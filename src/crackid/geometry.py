"""Breaking-line representation and broken-domain meshing.

The body is the fixed rectangle (0,1) x (0,0.5). The breaking line is the
graph x2 = psi(x1) of a piecewise-linear coarse grid function. Meshing uses
vertical columns of width ~ h; every column is split by the interpolated
interface height and each quadrilateral cell is cut into two triangles.
Interface vertices are duplicated so the displacement may jump across the
line; matched plus/minus edge pairs carry the interface frame.

All construction is pure arithmetic on the inputs: identical inputs yield
bitwise-identical meshes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElement, InterfaceTooClose

WIDTH = 1.0
HEIGHT = 0.5

INTERFACE_HEADER = "# interface v1"


# ----------------------------------------------------------------------
# Interface graph
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceGraph:
    """Piecewise-linear breaking line x2 = psi(x1) over x1 in [0, 1].

    ``s`` must be strictly increasing with s[0] = 0 and s[-1] = 1, and the
    heights must satisfy 0 < psi < 0.5 so the line stays inside the body.
    ``H`` is the nominal coarse spacing (max node gap unless given).
    """

    s: np.ndarray
    psi: np.ndarray
    H: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        p = np.asarray(self.psi, dtype=float)
        if s.ndim != 1 or s.shape != p.shape or s.size < 2:
            raise ValueError("interface graph needs matching 1-d s/psi arrays")
        if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0.0):
            raise ValueError("s-values must increase strictly from 0 to 1")
        if np.any(p <= 0.0) or np.any(p >= HEIGHT):
            raise ValueError("psi must lie strictly inside (0, 0.5)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "psi", p)
        if self.H <= 0.0:
            object.__setattr__(self, "H", float(np.max(np.diff(s))))

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.s, self.psi)

    def length(self):
        """Exact polyline length of the graph."""
        return float(np.sum(np.hypot(np.diff(self.s), np.diff(self.psi))))

    def with_psi(self, new_psi):
        return InterfaceGraph(self.s.copy(), np.asarray(new_psi, dtype=float), self.H)


def uniform_graph(values, H=None):
    """Graph on the uniform coarse grid implied by len(values)."""
    values = np.asarray(values, dtype=float)
    s = np.linspace(0.0, 1.0, values.size)
    return InterfaceGraph(s, values, H if H is not None else s[1] - s[0])


def constant_graph(height, n_nodes=11):
    return uniform_graph(np.full(n_nodes, float(height)))


def write_interface(path, graph):
    lines = [INTERFACE_HEADER]
    for sk, pk in zip(graph.s, graph.psi):
        lines.append("%.17g %.17g" % (sk, pk))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_interface(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != INTERFACE_HEADER:
            raise ValueError("not an interface v1 file: %r" % header)
        data = np.loadtxt(fh, ndmin=2)
    return InterfaceGraph(data[:, 0], data[:, 1])


def coarse_curvature(graph):
    """Curvature kappa of the graph at its coarse nodes.

    Interior nodes use the three-point second difference divided by
    (1 + psi'^2)^(3/2) with a central first difference (grid may be
    nonuniform). The two endpoint nodes get kappa = 0: they sit on the
    Dirichlet boundary where the endpoint gradient term governs instead.
    """
    s, p = graph.s, graph.psi
    if s.size < 3:
        return np.zeros_like(p)
    kap = np.zeros_like(p)
    hl = s[1:-1] - s[:-2]
    hr = s[2:] - s[1:-1]
    d2 = 2.0 * (hl * p[2:] - (hl + hr) * p[1:-1] + hr * p[:-2]) / (hl * hr * (hl + hr))
    d1 = (p[2:] - p[:-2]) / (hl + hr)
    kap[1:-1] = d2 / (1.0 + d1 * d1) ** 1.5
    return kap


# ----------------------------------------------------------------------
# Broken mesh
# ----------------------------------------------------------------------

@dataclass
class BrokenMesh:
    """Conforming triangulation of the broken rectangle.

    Interface vertices are duplicated: ``iface_minus``/``iface_plus`` list
    the matched node columns (below/above the line, sorted by x1), and the
    per-edge pair arrays carry the frame (nu from the minus into the plus
    side, tau with positive x1-component) plus the adjacent triangles.
    """

    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3) CCW
    tri_sub: np.ndarray           # (nt,) -1 below / +1 above
    h: float
    n_cols: int
    dirichlet_vertices: np.ndarray
    dirichlet_edges: np.ndarray   # (nd, 2)
    neumann_edges: np.ndarray     # (nn, 2) vertex pairs, x-sorted
    iface_minus: np.ndarray       # (n_cols+1,) vertex ids on the minus side
    iface_plus: np.ndarray        # (n_cols+1,)
    pair_minus: np.ndarray        # (n_cols, 2) edge vertex ids
    pair_plus: np.ndarray         # (n_cols, 2)
    pair_tri_minus: np.ndarray    # (n_cols,)
    pair_tri_plus: np.ndarray     # (n_cols,)
    normals: np.ndarray           # (n_cols, 2) unit nu per pair
    tangents: np.ndarray          # (n_cols, 2) unit tau per pair
    pair_lengths: np.ndarray      # (n_cols,)
    tri_area: np.ndarray = field(default=None)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_dofs(self):
        return 2 * self.vertices.shape[0]

    @property
    def observation_edges(self):
        """Observation boundary coincides with the Neumann boundary."""
        return self.neumann_edges

    @property
    def interface_x(self):
        return self.vertices[self.iface_minus, 0]

    def interface_interior(self):
        """Mask of interface node pairs not lying on the Dirichlet boundary."""
        x = self.interface_x
        return (x > 0.0) & (x < WIDTH)

    def interface_nodal_weights(self):
        """Trapezoidal weights: half the adjacent pair-edge lengths per node."""
        w = np.zeros(self.iface_minus.size)
        w[:-1] += 0.5 * self.pair_lengths
        w[1:] += 0.5 * self.pair_lengths
        return w

    def jump(self, values, comp):
        """Nodal interface jump of dof vector ``values``: plus minus minus."""
        v = np.asarray(values).reshape(-1)
        return v[2 * self.iface_plus + comp] - v[2 * self.iface_minus + comp]


def build_mesh(graph, h, n_cols=None, n_rows_below=None, n_rows_above=None):
    """Triangulate the rectangle broken along ``graph`` with target size h.

    Column count and row counts default to round(1/h) and round(0.25/h);
    they may be pinned explicitly for tiny oracle meshes. Requires the
    interface to keep a 2h margin from the top/bottom boundary.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if n_cols is None:
        n_cols = max(2, round(WIDTH / h))
    if n_rows_below is None:
        n_rows_below = max(1, round(0.5 * HEIGHT / h))
    if n_rows_above is None:
        n_rows_above = max(1, round(0.5 * HEIGHT / h))

    xs = np.linspace(0.0, WIDTH, n_cols + 1)
    psi_cols = graph(xs)
    margin = min(float(np.min(graph.psi)), float(np.min(psi_cols)),
                 HEIGHT - float(np.max(graph.psi)), HEIGHT - float(np.max(psi_cols)))
    if margin < 2.0 * h - 1e-12:  # slack: clamped updates sit exactly at 2h
        raise InterfaceTooClose(
            "interface within %.3g of the boundary; need >= 2h = %.3g"
            % (margin, 2.0 * h))

    nx = n_cols + 1

    def block(y_bottom, y_top, n_rows):
        fr = np.linspace(0.0, 1.0, n_rows + 1)
        yy = y_bottom[None, :] + fr[:, None] * (y_top - y_bottom)[None, :]
        verts = np.column_stack([np.tile(xs, n_rows + 1), yy.reshape(-1)])
        return verts

    zero = np.zeros(nx)
    top = np.full(nx, HEIGHT)
    verts_lo = block(zero, psi_cols, n_rows_below)
    verts_hi = block(psi_cols, top, n_rows_above)
    off_hi = verts_lo.shape[0]
    vertices = np.vstack([verts_lo, verts_hi])

    def idx_lo(i, j):
        return i * nx + j

    def idx_hi(i, j):
        return off_hi + i * nx + j

    def block_triangles(idx, n_rows):
        tris = []
        for i in range(n_rows):
            for j in range(n_cols):
                a, b = idx(i, j), idx(i, j + 1)
                c, d = idx(i + 1, j + 1), idx(i + 1, j)
                tris.append((a, b, c))
                tris.append((a, c, d))
        return tris

    tris_lo = block_triangles(idx_lo, n_rows_below)
    tris_hi = block_triangles(idx_hi, n_rows_above)
    triangles = np.array(tris_lo + tris_hi, dtype=np.int64)
    tri_sub = np.concatenate([
        np.full(len(tris_lo), -1, dtype=np.int64),
        np.full(len(tris_hi), 1, dtype=np.int64),
    ])

    p = vertices[triangles]
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    if np.any(area < 1e-6 * h * h):
        raise DegenerateElement(
            "minimum triangle area %.3g below 1e-6*h^2" % float(np.min(area)))

    # interface node columns: top row of the lower block / bottom row of
    # the upper block are geometrically coincident but distinct vertices
    iface_minus = np.array([idx_lo(n_rows_below, j) for j in range(nx)], dtype=np.int64)
    iface_plus = np.array([idx_hi(0, j) for j in range(nx)], dtype=np.int64)

    pair_minus = np.column_stack([iface_minus[:-1], iface_minus[1:]])
    pair_plus = np.column_stack([iface_plus[:-1], iface_plus[1:]])

    # triangle adjacent to interface edge j: minus side is the second
    # triangle of the top lower-block cell, plus side the first triangle
    # of the bottom upper-block cell (see block_triangles ordering)
    cells_per_row = 2 * n_cols
    base_lo = (n_rows_below - 1) * cells_per_row
    pair_tri_minus = np.array([base_lo + 2 * j + 1 for j in range(n_cols)], dtype=np.int64)
    base_hi = len(tris_lo)
    pair_tri_plus = np.array([base_hi + 2 * j for j in range(n_cols)], dtype=np.int64)

    edge_vec = vertices[iface_minus[1:]] - vertices[iface_minus[:-1]]
    lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    tangents = edge_vec / lengths[:, None]
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])  # nu = n^- points up

    # outer boundary
    dir_mask = (vertices[:, 0] == 0.0) | (vertices[:, 0] == WIDTH)
    dirichlet_vertices = np.nonzero(dir_mask)[0].astype(np.int64)
    dir_edges = []
    for i in range(n_rows_below):
        dir_edges.append((idx_lo(i, 0), idx_lo(i + 1, 0)))
        dir_edges.append((idx_lo(i, n_cols), idx_lo(i + 1, n_cols)))
    for i in range(n_rows_above):
        dir_edges.append((idx_hi(i, 0), idx_hi(i + 1, 0)))
        dir_edges.append((idx_hi(i, n_cols), idx_hi(i + 1, n_cols)))
    bottom = [(idx_lo(0, j), idx_lo(0, j + 1)) for j in range(n_cols)]
    topE = [(idx_hi(n_rows_above, j), idx_hi(n_rows_above, j + 1)) for j in range(n_cols)]
    neumann_edges = np.array(bottom + topE, dtype=np.int64)

    return BrokenMesh(
        vertices=vertices, triangles=triangles, tri_sub=tri_sub,
        h=float(h), n_cols=n_cols,
        dirichlet_vertices=dirichlet_vertices,
        dirichlet_edges=np.array(dir_edges, dtype=np.int64),
        neumann_edges=neumann_edges,
        iface_minus=iface_minus, iface_plus=iface_plus,
        pair_minus=pair_minus, pair_plus=pair_plus,
        pair_tri_minus=pair_tri_minus, pair_tri_plus=pair_tri_plus,
        normals=normals, tangents=tangents, pair_lengths=lengths,
        tri_area=area,
    )
