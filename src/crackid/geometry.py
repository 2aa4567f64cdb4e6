"""Breaking-line representation and broken-domain meshing.

The body is the fixed rectangle (0,1) x (0,0.5). The breaking line is the
graph x2 = psi(x1) of a piecewise-linear coarse grid function. Meshing uses
vertical columns of width ~ h; every column is split by the interpolated
interface height and each quadrilateral cell is cut into two triangles.
Interface vertices are duplicated so the displacement may jump across the
line; matched plus/minus edge pairs carry the interface frame.

The identification loop re-meshes at every step, but under the
column-preserving protocol only the vertex heights move. ``build_mesh``
therefore splits in two: a cached, vectorised part that builds the
read-only tables of one column and row count, the integer ones and the
coordinates no line moves (the column abscissae, the observation points,
the Neumann edges' end points and lengths), and a per-graph part that
computes the vertices, the interface frame and lengths, and the triangle
areas and shape gradients -- the one home of the element geometry that
assembly and the shape derivative read. A mesh holds only the per-graph
part and reads the tables through its topology.

All construction is pure arithmetic on the inputs: identical inputs yield
bitwise-identical meshes, whether the tables are built or come from the
cache.

The bottom and top rows, the observation boundary, hold the same bits in
every mesh of one topology, whatever the line: x1 comes from one
``linspace``, the bottom x2 is 0 + 0 psi = 0, and the top x2 is
psi + 1.0 (0.5 - psi), which is exactly 0.5 for every psi in (0, 0.5).
For psi >= 0.25 the difference is exact (Sterbenz); below 0.25,
fl(0.5 - psi) lies within 2^-55 of 0.5 - psi, half the spacing of the
doubles just below 0.5, so the sum rounds back to 0.5, and a tie goes to
0.5, whose significand is even. So those rows are the topology's tables,
and the terms that live on them (the boundary load and mass in ``fem``,
the interpolated measurement in ``driver``) are formed once per topology.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement, InterfaceTooClose

WIDTH = 1.0
HEIGHT = 0.5


# ----------------------------------------------------------------------
# Interface graph
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InterfaceGraph:
    """Piecewise-linear breaking line x2 = psi(x1) over x1 in [0, 1].

    ``s`` must be strictly increasing with s[0] = 0 and s[-1] = 1, and the
    heights must satisfy 0 < psi < 0.5 so the line stays inside the body;
    the checks are written so that a NaN fails them.
    """

    s: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        p = np.asarray(self.psi, dtype=float)
        if s.ndim != 1 or s.shape != p.shape or s.size < 2:
            raise ValueError("interface graph needs matching 1-d s/psi arrays")
        if s[0] != 0.0 or s[-1] != 1.0 or not np.all(np.diff(s) > 0.0):
            raise ValueError("s-values must increase strictly from 0 to 1")
        if not np.all((p > 0.0) & (p < HEIGHT)):
            raise ValueError("psi must lie strictly inside (0, 0.5)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "psi", p)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.s, self.psi)

    def length(self):
        """Exact polyline length of the graph."""
        return float(np.sum(np.hypot(np.diff(self.s), np.diff(self.psi))))

    def with_psi(self, new_psi):
        return InterfaceGraph(self.s.copy(), np.asarray(new_psi, dtype=float))


def uniform_graph(values):
    """Graph on the uniform coarse grid implied by len(values)."""
    values = np.asarray(values, dtype=float)
    return InterfaceGraph(np.linspace(0.0, 1.0, values.size), values)


def coarse_curvature(graph):
    """Curvature kappa of the graph at its coarse nodes.

    Interior nodes use the three-point second difference divided by
    (1 + psi'^2)^(3/2) with a central first difference (grid may be
    nonuniform). The two endpoint nodes get kappa = 0: they sit on the
    Dirichlet boundary where the endpoint gradient term governs instead.
    """
    s, p = graph.s, graph.psi
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

def triangle_geometry(vertices, triangles):
    """Areas and P1 shape gradients. grads[e, i] = grad of hat i on tri e.

    Whole-array passes over the gathered (nt, 3) corner coordinates: the
    edge e_i opposite corner i is p_{i+2} - p_{i+1}, and
    grad lambda_i = rot90(e_i) / (2 A). With e_2 = p_1 - p_0 and
    e_1 = p_0 - p_2, the area 0.5 (e_1x e_2y - e_2x e_1y) rounds as
    0.5 ((p_1 - p_0)_x (p_2 - p_0)_y - (p_2 - p_0)_x (p_1 - p_0)_y) does,
    since negation is exact.
    """
    x = vertices[triangles, 0]
    y = vertices[triangles, 1]
    ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
    area = 0.5 * (ex[:, 1] * ey[:, 2] - ex[:, 2] * ey[:, 1])
    if np.any(area <= 0.0):
        raise DegenerateElement("nonpositive triangle area")
    grads = np.empty((triangles.shape[0], 3, 2))
    twice = (2.0 * area)[:, None]
    np.divide(ey, -twice, out=grads[:, :, 0])   # -e_y / 2A, a zero's sign kept
    np.divide(ex, twice, out=grads[:, :, 1])
    return area, grads


@dataclass(frozen=True, eq=False)
class _Topology:
    """Read-only tables shared by every mesh of one (n_cols, n_rows_below,
    n_rows_above); hashed by identity, so caches of derived structure (the
    stiffness pattern, the boundary terms) can key on it."""

    triangles: np.ndarray         # (nt, 3) CCW
    neumann_edges: np.ndarray     # (nn, 2) vertex pairs, x-sorted
    observation_vertices: np.ndarray  # bottom row, then top row, x-sorted
    iface_minus: np.ndarray       # (n_cols+1,) vertex ids on the minus side
    iface_plus: np.ndarray        # (n_cols+1,)
    pair_minus: np.ndarray        # (n_cols, 2) edge vertex ids
    pair_plus: np.ndarray         # (n_cols, 2)
    pair_tri_minus: np.ndarray    # (n_cols,)
    pair_tri_plus: np.ndarray     # (n_cols,)
    free_dofs: np.ndarray         # unclamped dofs in band order, by block
    free_row: np.ndarray          # (n_dofs,) row in free_dofs, -1 if clamped
    block_end: np.ndarray         # (2,) where the blocks of free_dofs end
    interface_x: np.ndarray       # (n_cols+1,) column abscissae
    observation_points: np.ndarray    # coordinates of observation_vertices
    neumann_points: np.ndarray    # (2, nn, 2) end points of neumann_edges
    neumann_lengths: np.ndarray   # (nn,)


@functools.lru_cache(maxsize=8)
def _topology(n_cols, n_rows_below, n_rows_above):
    """Vertex numbering, triangles and boundary/interface tables.

    Vertices run row by row (x1 fastest), the lower block first; the top
    row of the lower block and the bottom row of the upper block are the
    minus and plus copies of the interface nodes. ``observation_vertices``
    lists the bottom row, then the top row, each in x1 order. ``free_dofs``
    lists the dofs off the clamped sides block by block, the lower block
    first, and in each block column by column (x1, then x2, then
    component): the row order of the mesh's band factor, whose blocks end
    at ``block_end``. ``free_row`` maps a dof to its row in ``free_dofs``,
    -1 on the clamped sides.
    """
    nx = n_cols + 1
    xs = np.linspace(0.0, WIDTH, nx)
    rows = np.stack([np.column_stack([xs, np.full(nx, y)]) for y in (0.0, HEIGHT)])
    ends = np.stack([rows[:, :-1].reshape(-1, 2), rows[:, 1:].reshape(-1, 2)])
    off_hi = (n_rows_below + 1) * nx
    cols = np.arange(nx)

    def block_triangles(offset, n_rows):
        # cell with lower-left corner a, counter-clockwise (a, b, c, d),
        # is cut into (a, b, c) and (a, c, d)
        a = (offset + nx * np.arange(n_rows)[:, None] + cols[None, :-1]).reshape(-1)
        return np.column_stack([a, a + 1, a + nx + 1,
                                a, a + nx + 1, a + nx]).reshape(-1, 3)

    tris_lo = block_triangles(0, n_rows_below)
    tris_hi = block_triangles(off_hi, n_rows_above)
    n_vertices = off_hi + (n_rows_above + 1) * nx
    grid = np.arange(n_vertices).reshape(-1, nx)
    by_column = np.concatenate([grid[:n_rows_below + 1].T[1:-1].reshape(-1),
                                grid[n_rows_below + 1:].T[1:-1].reshape(-1)])
    top = off_hi + n_rows_above * nx
    iface_minus = n_rows_below * nx + cols
    iface_plus = off_hi + cols
    # triangle adjacent to interface edge j: minus side is the second
    # triangle of the top lower-block cell, plus side the first triangle
    # of the bottom upper-block cell
    pair_cells = 2 * np.arange(n_cols)
    free_dofs = (2 * by_column[:, None] + np.arange(2)).reshape(-1)
    free_row = np.full(2 * n_vertices, -1)
    free_row[free_dofs] = np.arange(free_dofs.size)
    tables = dict(
        triangles=np.vstack([tris_lo, tris_hi]),
        neumann_edges=np.column_stack([np.concatenate([cols[:-1], top + cols[:-1]]),
                                       np.concatenate([cols[1:], top + cols[1:]])]),
        observation_vertices=np.concatenate([cols, top + cols]),
        iface_minus=iface_minus,
        iface_plus=iface_plus,
        pair_minus=np.column_stack([iface_minus[:-1], iface_minus[1:]]),
        pair_plus=np.column_stack([iface_plus[:-1], iface_plus[1:]]),
        pair_tri_minus=(n_rows_below - 1) * 2 * n_cols + pair_cells + 1,
        pair_tri_plus=len(tris_lo) + pair_cells,
        free_dofs=free_dofs,
        free_row=free_row,
        block_end=np.array([2 * (n_rows_below + 1) * (n_cols - 1), free_dofs.size]),
        interface_x=xs,
        observation_points=rows.reshape(-1, 2),
        neumann_points=ends,
        neumann_lengths=np.hypot(*(ends[1] - ends[0]).T),
    )
    for table in tables.values():
        table.setflags(write=False)
    return _Topology(**tables)


@dataclass
class BrokenMesh:
    """Conforming triangulation of the broken rectangle.

    Interface vertices are duplicated: ``iface_minus``/``iface_plus`` list
    the matched node columns (below/above the line, sorted by x1), and the
    per-edge pair arrays carry the frame (nu from the minus into the plus
    side, tau with positive x1-component) plus the adjacent triangles.
    ``free_dofs`` lists the unclamped dofs lower block first, each block
    column by column: the one order of every free-dof vector, and of the
    mesh's band factor, whose blocks end at ``block_end``. The tables are
    no fields of the mesh: each is a read-only property that returns the
    array of ``topology``, shared by every mesh with the same column and
    row counts; ``interface_x`` is the column abscissae among them.
    """

    vertices: np.ndarray          # (nv, 2)
    topology: _Topology
    h: float
    normals: np.ndarray           # (n_cols, 2) unit nu per pair
    tangents: np.ndarray          # (n_cols, 2) unit tau per pair
    pair_lengths: np.ndarray      # (n_cols,)
    tri_area: np.ndarray          # (nt,)
    tri_grads: np.ndarray         # (nt, 3, 2) P1 shape gradients

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_dofs(self):
        return 2 * self.vertices.shape[0]

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


for _name in _Topology.__dataclass_fields__:
    setattr(BrokenMesh, _name, property(operator.attrgetter("topology." + _name)))


def grid_counts(h):
    """Default column and row counts (n_cols, n_rows_below, n_rows_above)
    of ``build_mesh`` at spacing h: round(1/h) columns and round(0.25/h)
    rows on each side of the interface."""
    rows = max(1, round(0.5 * HEIGHT / h))
    return max(2, round(WIDTH / h)), rows, rows


def band_shape(h):
    """Shape (kd + 1, n) of the band storage of the free stiffness block of
    ``build_mesh(graph, h)``: n free dofs in block order, and the
    half-bandwidth kd = 2 (c + 1) + 3 of the taller block, whose columns
    hold c + 1 vertices, since an element joins a vertex to the one a row
    up in the next column."""
    n_cols, below, above = grid_counts(h)
    return 2 * max(below, above) + 6, 2 * (below + above + 2) * (n_cols - 1)


def build_mesh(graph, h, n_cols=None, n_rows_below=None, n_rows_above=None):
    """Triangulate the rectangle broken along ``graph`` with target size h.

    Column count and row counts default to round(1/h) and round(0.25/h);
    they may be pinned explicitly for tiny oracle meshes. Requires the
    interface to keep a 2h margin from the top/bottom boundary. Only the
    vertex heights depend on ``graph``: the tables, the column abscissae
    among them, come from a cache keyed on the column and row counts.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    default = grid_counts(h)
    n_cols = default[0] if n_cols is None else n_cols
    n_rows_below = default[1] if n_rows_below is None else n_rows_below
    n_rows_above = default[2] if n_rows_above is None else n_rows_above

    topo = _topology(n_cols, n_rows_below, n_rows_above)
    psi_cols = graph(topo.interface_x)
    margin = min(float(np.min(graph.psi)), float(np.min(psi_cols)),
                 HEIGHT - float(np.max(graph.psi)), HEIGHT - float(np.max(psi_cols)))
    if margin < 2.0 * h - 1e-12:  # slack: clamped updates sit exactly at 2h
        raise InterfaceTooClose(
            "interface within %.3g of the boundary; need >= 2h = %.3g"
            % (margin, 2.0 * h))

    def block(y_bottom, y_top, n_rows):
        fr = np.linspace(0.0, 1.0, n_rows + 1)
        yy = y_bottom[None, :] + fr[:, None] * (y_top - y_bottom)[None, :]
        return np.column_stack([np.tile(topo.interface_x, n_rows + 1), yy.reshape(-1)])

    vertices = np.vstack([block(np.zeros(n_cols + 1), psi_cols, n_rows_below),
                          block(psi_cols, np.full(n_cols + 1, HEIGHT), n_rows_above)])

    area, grads = triangle_geometry(vertices, topo.triangles)
    if np.any(area < 1e-6 * h * h):
        raise DegenerateElement(
            "minimum triangle area %.3g below 1e-6*h^2" % float(np.min(area)))

    edge_vec = vertices[topo.iface_minus[1:]] - vertices[topo.iface_minus[:-1]]
    lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    tangents = edge_vec / lengths[:, None]
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])  # nu = n^- points up

    return BrokenMesh(
        vertices=vertices, topology=topo, h=float(h),
        normals=normals, tangents=tangents, pair_lengths=lengths,
        tri_area=area, tri_grads=grads)
