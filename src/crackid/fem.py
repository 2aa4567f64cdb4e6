"""P1 finite-element core: plane-strain elasticity assembly on the broken
mesh, boundary/interface integrals and the factors of the linear solves.

Dof numbering is 2*vertex + component. Assembly is vectorised over elements
and reads the element areas and shape gradients the mesh carries; the
element blocks are formed in place as a few products over all elements at
once, the element axis last. The CSR pattern of the stiffness, and the
order in which scipy's COO -> CSR conversion would sum each entry's element
contributions, are derived once per mesh topology and grouped by the number
of terms an entry sums; each assembly then only gathers and sums the
element blocks group by group in that order, so the matrix equals the plain
COO conversion bit for bit, entries that sum to zero included. The boundary
load and the boundary mass live on the observation rows, which every mesh
of one topology shares bit for bit, so they are formed once per topology
and kept read-only. Dirichlet dofs are eliminated by row/column removal, so
every free block stays symmetric positive definite. Once per mesh,
``subdomain_factor`` gathers K's free block and its band from the cached
pattern, and ``FactorizedSPD`` factors the band in place by a band Cholesky
(LAPACK ``dpbtrf``; George and Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981). Its rows are the mesh's free dofs in
their one order, the lower subdomain first, so the block is block diagonal,
one band per subdomain, and the mesh's topology says where the blocks end.
Every Newton matrix of the mesh is that block plus a low-rank coupling on
interface jump dofs, which the factor solves through the Woodbury identity:
a penalty's jump mass, or a pair merged shut as the infinite-weight limit.
The factor checks definiteness and rank when it factors and the backward
error of every solve.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import InvalidPoisson, NotPositiveDefinite

GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))  # on [0, 1]
# |Ax - b| <= tol (|b| + max|A| |x|): every FactorizedSPD.solve, and the
# stationarity residual of every converged solvers._active_set_solve state
BACKWARD_TOL = 1e-10


def lame_from_young(E_Y, nu_P):
    """Lame parameters mu = E/(2(1+nu)), lambda = 2 mu nu/(1-2 nu)."""
    if not 0.0 <= nu_P < 0.5:
        raise InvalidPoisson("Poisson ratio must lie in [0, 0.5), got %r" % nu_P)
    mu = E_Y / (2.0 * (1.0 + nu_P))
    lam = 2.0 * mu * nu_P / (1.0 - 2.0 * nu_P)
    return mu, lam


@dataclass(frozen=True)
class IsotropicElasticity:
    """Isotropic plane-strain material with perimeter weight rho_reg."""

    E_Y: float
    nu_P: float
    mu_L: float
    lambda_L: float
    rho_reg: float

    @classmethod
    def from_young(cls, E_Y, nu_P, rho_reg=None):
        mu, lam = lame_from_young(E_Y, nu_P)
        if rho_reg is None:
            rho_reg = 1.0 / mu
        return cls(E_Y=float(E_Y), nu_P=float(nu_P), mu_L=mu, lambda_L=lam,
                   rho_reg=float(rho_reg))

    def dmatrix(self):
        """Constitutive matrix for (e11, e22, 2 e12) Voigt strain."""
        mu, lam = self.mu_L, self.lambda_L
        return np.array([
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, mu],
        ])

    def stress(self, eps):
        """Cauchy stress of a 2x2 strain tensor (or (n,2,2) batch)."""
        eps = np.asarray(eps)
        tr = eps[..., 0, 0] + eps[..., 1, 1]
        sig = 2.0 * self.mu_L * eps
        sig[..., 0, 0] += self.lambda_L * tr
        sig[..., 1, 1] += self.lambda_L * tr
        return sig


@dataclass
class DofField:
    """Nodal 2-vector field on a broken mesh, stored flat (2 per vertex)."""

    mesh: object
    values: np.ndarray

    def as_points(self):
        return self.values.reshape(-1, 2)


# ----------------------------------------------------------------------
# Element quantities
# ----------------------------------------------------------------------

def element_stiffness(area, grads, dmat):
    """Per-element 6x6 plane-strain stiffness blocks B^T D B area, with the
    element axis last: block[i, j, e] for local dofs i = 2 a + c.

    Each of the four 3x3 node blocks is one product over all elements, such
    as ((gx D00) gx + (gy D22) gy) area for the x-x block, formed in its
    place in the output. It is the sum that the plain einsum pair
    (B^T D) B forms, term for term and in the same order; the terms with a
    structural zero of B add exact zeros and are left out.
    """
    gx = np.ascontiguousarray(grads[:, :, 0].T)[:, None]   # (3, 1, nt)
    gy = np.ascontiguousarray(grads[:, :, 1].T)[:, None]
    gx_t, gy_t = gx.transpose(1, 0, 2), gy.transpose(1, 0, 2)   # (1, 3, nt)
    gx_s, gy_s = gx * dmat[2, 2], gy * dmat[2, 2]
    out = np.empty((6, 6, area.shape[0]))
    for i, j, a, b, c, d in ((0, 0, gx, gx_t, gy_s, gy_t), (0, 1, gx, gy_t, gy_s, gx_t),
                             (1, 0, gy, gx_t, gx_s, gy_t), (1, 1, gy, gy_t, gx_s, gx_t)):
        block = out[i::2, j::2]
        np.multiply(a * dmat[i, j], b, out=block)
        block += c * d
        block *= area
    return out


def _dof_table(triangles):
    t = triangles
    return np.column_stack([2 * t[:, 0], 2 * t[:, 0] + 1,
                            2 * t[:, 1], 2 * t[:, 1] + 1,
                            2 * t[:, 2], 2 * t[:, 2] + 1])


@functools.lru_cache(maxsize=8)
def _stiffness_pattern(topology, n_dofs):
    """CSR pattern of the stiffness of one mesh topology, with the gathers
    that sum the element blocks of ``element_stiffness`` into it.

    ``coo_matrix(...).tocsr()`` of the blocks listed element by element
    places the entries row by row in input order, sorts each row by column
    (not stably) and sums each run of equal columns left to right.
    Replaying it on entry numbers instead of values gives the permutation
    it applies; the assembly then repeats that sum exactly. The entry
    numbers are then moved to the element-last layout of the blocks.
    Returns (indptr, indices, groups): entry k of the data is the sum of
    the run of terms flat[table[0, m]] + flat[table[1, m]] + ..., left to
    right, for the one (dst, table) in ``groups`` with dst[m] = k, with
    flat the raveled blocks; each group holds the runs of one length.
    """
    table = _dof_table(topology.triangles)
    nd = table.shape[1]
    rows = np.repeat(table, nd, axis=1).reshape(-1)
    cols = np.tile(table, (1, nd)).reshape(-1)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    bounds = np.arange(n_dofs + 1)
    probe = sp.csr_matrix((order, cols[order], np.searchsorted(rows, bounds)),
                          shape=(n_dofs, n_dofs))
    probe.sort_indices()
    perm, cols = probe.data, probe.indices
    # element-major entry e*36 + i*6 + j sits at (i*6 + j)*nt + e of flat
    element, local = np.divmod(perm, nd * nd)
    perm = local * table.shape[0] + element
    starts = np.flatnonzero(np.concatenate(
        [[True], (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]))
    run = np.diff(np.append(starts, perm.size))
    groups = []
    for length in np.unique(run):
        dst = np.flatnonzero(run == length)
        groups.append((dst, perm[starts[dst] + np.arange(length)[:, None]]))
    indptr = np.searchsorted(rows[starts], bounds).astype(cols.dtype)
    out = (indptr, cols[starts], tuple(groups))
    for arr in out[:2] + tuple(a for pair in groups for a in pair):
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _free_block(topology, n_dofs):
    """The free block B of a topology's stiffness pattern, rows and columns
    in the order of ``topology.free_dofs``, and its lower band storage.

    Each row of B keeps the pattern's stored column order, so B @ x sums a
    row's terms as K @ x does, less the products with the clamped dofs'
    zeros. Returns (src, indptr, indices, lower, slot, kd): entry k of B's
    data is K.data[src[k]]; the entries ``lower`` of that data, B's lower
    triangle, go to the flat index column * (kd + 1) + offset of a
    (n_free, kd + 1) array, the transpose of a Fortran-ordered band, kd
    the largest offset among them.
    """
    indptr, indices, _ = _stiffness_pattern(topology, n_dofs)
    row = topology.free_row[np.repeat(np.arange(n_dofs), np.diff(indptr))]
    col = topology.free_row[indices]
    src = np.flatnonzero((row >= 0) & (col >= 0))
    src = src[np.argsort(row[src], kind="stable")]
    row, col = row[src], col[src]
    n_free = topology.free_dofs.size
    offset = row - col
    lower = np.flatnonzero(offset >= 0)
    kd = int(offset.max(initial=0))
    out = (src, np.searchsorted(row, np.arange(n_free + 1)).astype(indices.dtype),
           col.astype(indices.dtype), lower, col[lower] * (kd + 1) + offset[lower])
    for arr in out:
        arr.setflags(write=False)
    return out + (kd,)


def assemble_stiffness(mesh, elast):
    """Bulk stiffness over the broken domain (full, pre-elimination).

    The CSR pattern and summation order are those of the mesh's topology,
    built once; each call gathers the element blocks' terms run length by
    run length, sums each group's runs left to right and writes the sums
    into the data once per group. An entry that sums to exactly zero stays
    in the pattern.
    """
    flat = element_stiffness(mesh.tri_area, mesh.tri_grads, elast.dmatrix()).reshape(-1)
    indptr, indices, groups = _stiffness_pattern(mesh.topology, mesh.n_dofs)
    data = np.empty(indices.size)
    for dst, table in groups:
        total = flat[table[0]]
        for src in table[1:]:
            total += flat[src]
        data[dst] = total
    return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                         shape=(mesh.n_dofs, mesh.n_dofs))


def subdomain_factor(mesh, K):
    """``FactorizedSPD`` of the free block of K, the mesh's
    ``assemble_stiffness``: the one band factor of the mesh.

    No entry of K joins the two subdomains, so in the order of
    ``mesh.free_dofs`` its free block is block diagonal, one band per
    subdomain, the blocks ending at ``mesh.block_end``. The block and its
    band are gathered from K's data by the cached pattern; the band is laid
    out in LAPACK's column-major order, so the factor overwrites it.
    """
    src, indptr, indices, lower, slot, kd = _free_block(mesh.topology, mesh.n_dofs)
    n_free = mesh.free_dofs.size
    data = K.data[src]
    band = np.zeros((n_free, kd + 1))
    band.reshape(-1)[slot] = data[lower]
    block = sp.csr_matrix((data, indices, indptr), shape=(n_free, n_free))
    return FactorizedSPD(band.T, block, mesh.block_end)


def _neumann_ends(mesh):
    """(topology, a, b): the mesh's topology and the bytes of its Neumann
    edges' end points, all that the boundary terms read of a mesh, and the
    key they are cached on. Every mesh of one topology has the same bits
    there (``geometry``), so the terms are formed once per topology."""
    edges = mesh.neumann_edges
    return (mesh.topology, mesh.vertices[edges[:, 0]].tobytes(),
            mesh.vertices[edges[:, 1]].tobytes())


def _edge_points(a, b):
    """The end points of ``_neumann_ends`` as (n, 2) arrays, and the edge
    lengths."""
    a = np.frombuffer(a).reshape(-1, 2)
    b = np.frombuffer(b).reshape(-1, 2)
    return a, b, np.hypot(*(b - a).T)


def assemble_traction(mesh, g):
    """Boundary load vector of the traction ``g(x, y) -> (gx, gy)`` over the
    Neumann edges, via 2-point Gauss quadrature per edge; read-only, and
    formed once per topology, edge end points and ``g``."""
    return _traction(*_neumann_ends(mesh), g)


@functools.lru_cache(maxsize=8)
def _traction(topology, a, b, g):
    edges = topology.neumann_edges
    f = np.zeros(topology.free_row.size)
    a, b, L = _edge_points(a, b)
    for t in GAUSS2:
        pts = a + t * (b - a)
        gx, gy = g(pts[:, 0], pts[:, 1])
        w = 0.5 * L
        for comp, gv in ((0, np.asarray(gx, dtype=float)),
                         (1, np.asarray(gy, dtype=float))):
            gv = np.broadcast_to(gv, L.shape)
            np.add.at(f, 2 * edges[:, 0] + comp, w * gv * (1.0 - t))
            np.add.at(f, 2 * edges[:, 1] + comp, w * gv * t)
    f.setflags(write=False)
    return f


def assemble_boundary_mass(mesh):
    """Consistent boundary mass over the observation (Neumann) edges, acting
    identically on both displacement components; read-only, and formed once
    per topology and edge end points."""
    return _boundary_mass(*_neumann_ends(mesh))


@functools.lru_cache(maxsize=8)
def _boundary_mass(topology, a, b):
    edges = topology.neumann_edges
    _, _, L = _edge_points(a, b)
    rows, cols, vals = [], [], []
    for comp in (0, 1):
        da = 2 * edges[:, 0] + comp
        db = 2 * edges[:, 1] + comp
        rows += [da, db, da, db]
        cols += [da, db, db, da]
        vals += [L / 3.0, L / 3.0, L / 6.0, L / 6.0]
    n_dofs = topology.free_row.size
    mat = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n_dofs, n_dofs)).tocsr()
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


# ----------------------------------------------------------------------
# Dirichlet elimination and solving
# ----------------------------------------------------------------------

class _Band(NamedTuple):
    """LAPACK lower band storage of a Cholesky factor: L[i + k, i] is
    ``lower[k, i]``, so row 0 holds diag(L)."""

    lower: np.ndarray
    nnz: int     # stored entries of the band


class FactorizedSPD:
    """Band Cholesky factor of an SPD matrix B, and the solves of
    B + U D U^T for a low-rank coupling that ``couple`` sets.

    ``band`` is B in LAPACK lower band storage; ``dpbtrf`` factors it in
    place when it is Fortran-ordered, so the caller hands it over. The
    factor keeps diag(B), which ``couple`` reads, and max|B|, both taken
    before the band is overwritten. ``matrix`` is B as a sparse matrix; a
    solve takes and returns vectors in the order of B's rows. ``block_end``
    lists where B's diagonal blocks end: no entry of B joins the rows above
    such an end to the rows below it, so L^-1 keeps a column in its block.
    A coupling is (plus, minus, d): U's column k is e(plus_k) - e(minus_k),
    plus_k and minus_k rows of B, with weight d_k > 0. With B = L L^T,
    Y = L^-1 U and C = D^-1 + Y^T Y factored densely, a solve is
    x = L^-T (z - Y mu), z = L^-1 b, mu = C^-1 Y^T z (Woodbury; Hager,
    SIAM Review 31, 1989).
    A weight d_k = inf, a zero of D^-1, is the d -> inf limit: it merges
    the pair shut, and mu_k is the reaction that keeps it shut. Such a
    solve is the Galerkin merge's: the minus row's load moves onto the
    plus row first, and the minus dof takes the plus dof's value after.

    Each solve's backward error is checked against ``matrix`` on every
    row, with d (x[plus] - x[minus]) on the coupled rows, or mu for a shut
    pair, and max|A| taken over B and the finite coupled diagonals
    (``BACKWARD_TOL``). A nonpositive pivot of B or C, a negligible pivot
    of B (min diag(L)^2 <= 1e-12 max diag(L)^2, the rank check; a NaN
    fails it too), a weight that is not > 0 and a failed check raise
    ``NotPositiveDefinite``. ``lu`` holds the factor.
    """

    def __init__(self, band, matrix, block_end):
        self.diag = band[0].copy()
        self.band_max = max(band.max(), -band.min())
        try:
            lower = cholesky_banded(band, lower=True, overwrite_ab=True,
                                    check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from exc
        diag = lower[0]
        if diag.size and not diag.min() ** 2 > 1e-12 * diag.max() ** 2:
            raise NotPositiveDefinite("matrix numerically rank deficient")
        self.matrix = matrix
        self.block_end = np.asarray(block_end)
        self.lu = _Band(lower, lower.size)
        self.couple((), (), ())

    def couple(self, plus, minus, weights):
        """Set the coupling (plus, minus, weights) that ``solve`` adds to B;
        an empty one solves B alone."""
        self.coupling = self.y = self.c = None   # let the old one go first
        self.max_abs = self.band_max
        d = np.asarray(weights, dtype=float)
        if not np.all(d > 0.0):   # with D <= 0, C may factor; A would not
            raise NotPositiveDefinite("coupling weights must be positive")
        if d.size == 0:
            return
        y = self._trailing_solves(plus, minus)
        try:
            self.c = cholesky(np.diag(1.0 / d) + y.T @ y, lower=True,
                              check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from exc
        self.y, self.coupling = y, (plus, minus, d)
        self.shut = np.flatnonzero(np.isinf(d))
        self.pen = np.flatnonzero(np.isfinite(d))
        for side in (plus, minus):
            self.max_abs = max(self.max_abs,
                               (self.diag[side] + d)[self.pen].max(initial=0.0))

    def _trailing_solves(self, plus, minus):
        """Y = L^-1 U, row-major. In each diagonal block of L, a column of U
        is solved from its first entry there to the block's end, and Y is
        zero elsewhere; eight columns a solve, sorted by that first row."""
        lower = self.lu.lower
        r = plus.size
        rows = np.concatenate([plus, minus])
        cols = np.tile(np.arange(r), 2)
        vals = np.repeat([1.0, -1.0], r)
        starts = np.r_[0, self.block_end]
        y = np.zeros((lower.shape[1], r))
        for block in np.unique(np.searchsorted(self.block_end, rows, side="right")):
            end = self.block_end[block]
            inside = (rows >= starts[block]) & (rows < end)
            first = np.full(r, end)
            np.minimum.at(first, cols[inside], rows[inside])
            present = np.argsort(first, kind="stable")[:np.count_nonzero(first < end)]
            for k in range(0, present.size, 8):
                chunk = present[k:k + 8]
                lo = first[chunk[0]]
                slot = np.full(r, -1)
                slot[chunk] = np.arange(chunk.size)
                mine = inside & (slot[cols] >= 0)
                rhs = np.zeros((end - lo, chunk.size), order="F")
                rhs[rows[mine] - lo, slot[cols[mine]]] = vals[mine]
                y[lo:end, chunk] = dtbtrs(lower[:, lo:end], rhs, uplo="L")[0]
        return y

    def solve(self, rhs):
        if self.coupling is None:
            x, _ = self._substitute(rhs)
            res = self._apply(x, None) - rhs
        else:
            plus, minus, _ = self.coupling
            p, m = plus[self.shut], minus[self.shut]
            rhs = rhs.copy()
            rhs[p] += rhs[m]   # the merge's R^T b: zero stays exactly zero
            rhs[m] = 0.0
            x, mu = self._substitute(rhs)
            # the Woodbury update cancels in the coupled directions; one step
            # of iterative refinement restores the accuracy of a Cholesky
            # solve (Yip, SIAM J. Sci. Stat. Comput. 7, 1986)
            dx, dmu = self._substitute(self._apply(x, mu) - rhs)
            x, mu = x - dx, mu - dmu
            x[m] = x[p]
            res = self._apply(x, mu) - rhs
        res = np.linalg.norm(res)
        scale = np.linalg.norm(rhs) + self.max_abs * np.linalg.norm(x)
        if not res <= BACKWARD_TOL * scale:   # a NaN residual fails too
            raise NotPositiveDefinite(
                "factorised solve failed its backward-error check "
                "(residual %.3e)" % res)
        return x

    def _substitute(self, rhs):
        """x = L^-T (z - Y mu) and mu = C^-1 Y^T z, z = L^-1 rhs."""
        z = dtbtrs(self.lu.lower, rhs, uplo="L")[0]
        mu = None
        if self.coupling is not None:
            mu = cho_solve((self.c, True), self.y.T @ z, check_finite=False)
            z -= self.y @ mu
        return dtbtrs(self.lu.lower, z, uplo="L", trans="T")[0], mu

    def _apply(self, x, mu):
        """The factored matrix times x, ``matrix`` and the coupling, with
        the reactions mu on the shut pairs."""
        ax = self.matrix @ x
        if self.coupling is not None:
            plus, minus, d = self.coupling
            t = mu.copy()
            pen = self.pen
            t[pen] = d[pen] * (x[plus[pen]] - x[minus[pen]])
            ax[plus] += t
            ax[minus] -= t
        return ax


def field_gradients(mesh, values, tris=slice(None)):
    """Per-triangle constant gradient (du_i/dx_j) of a P1 dof vector, on
    the triangles ``tris`` (all by default)."""
    vals = np.asarray(values).reshape(-1, 2)
    nodal = vals[mesh.triangles[tris]]      # (nt, 3, 2) u_i at corners
    return np.einsum("eia,eib->eab", nodal, mesh.tri_grads[tris])


def strain_from_grad(gradu):
    return 0.5 * (gradu + np.swapaxes(gradu, -1, -2))


def h1_seminorm(mesh, values):
    """Broken H1 seminorm of a dof vector over both subdomains."""
    g = field_gradients(mesh, values)
    return float(np.sqrt(np.sum(mesh.tri_area * np.sum(g * g, axis=(1, 2)))))


def boundary_misfit(mesh, values, z_values):
    """1/2 int |u - z|^2 over the observation (Neumann) edges (2-pt Gauss)."""
    edges = mesh.neumann_edges
    d = (np.asarray(values) - np.asarray(z_values)).reshape(-1, 2)
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    L = np.hypot(*(b - a).T)
    da = d[edges[:, 0]]
    db = d[edges[:, 1]]
    total = 0.0
    for t in GAUSS2:
        dv = da + t * (db - da)
        total += np.sum(0.5 * L * np.sum(dv * dv, axis=1))
    return 0.5 * float(total)
