"""P1 finite-element core: plane-strain elasticity assembly on the broken
mesh, boundary/interface integrals and the factors of the linear solves.

Dof numbering is 2*vertex + component. Assembly is vectorised over elements
and reads the element areas and shape gradients the mesh carries; the
element blocks are formed in place as a few products over all elements at
once, the element axis last. The CSR pattern of the stiffness, that of
scipy's COO -> CSR conversion with the entries that sum to zero, and the
entry each term of the blocks goes to are derived once per mesh topology;
each assembly then sums the terms into their entries by one
``np.bincount``, in the order of the raveled blocks, which this module
fixes and not the installed scipy. The boundary load, the boundary mass and
the misfit read the Neumann edges' end points and lengths from the mesh's
topology, which every mesh of it holds bit for bit (``geometry``), so the
load and the mass are formed once per topology and kept read-only. Dirichlet
dofs are eliminated by row/column removal, so every free block stays
symmetric positive definite. Once per mesh, ``subdomain_factor`` gathers
K's free block and its band from the cached pattern into a
``CoupledSystem``, which solves on ``FactorizedSPD``, the block's band
Cholesky (LAPACK ``dpbtrf``; George and Liu, Computer Solution of Large
Sparse Positive Definite Systems, 1981), or on the factor of a nearby mesh
of the same topology, such as a finite-difference probe's base, refining
against its own block. Its rows are the mesh's free dofs in their one
order, the lower subdomain first, so the block is block diagonal, one band
per subdomain, and the mesh's topology says where the blocks end. Every
Newton matrix of the mesh is that block plus a low-rank coupling on
interface jump dofs, solved through the Woodbury identity: a penalty's jump
mass, or a pair merged shut as the infinite-weight limit; a coupling on the
rows of the factor's last Y = L^-1 U takes it. A coupled or borrowed solve,
or one given a start, refines until its residual is at roundoff.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve, cholesky, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import InvalidPoisson, NotPositiveDefinite, NumericalOverflow

GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))  # on [0, 1]
# |Ax - b| <= tol (|b| + max|A| |x|): every CoupledSystem.solve, and the
# stationarity residual of every converged solvers._active_set_solve state
BACKWARD_TOL = 1e-10
REFINE_CAP = 8   # refinement steps of a solve; a borrower then factors


def norm(v):
    """The Euclidean norm of the backward-error tests: ``np.linalg.norm``'s
    bits wherever that is finite, and max|v| |v / max|v|| where only its
    sum of squares overflows."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
        big = np.max(np.abs(v)) if n == np.inf else 0.0
        return big * np.linalg.norm(v / big) if 0.0 < big < np.inf else n


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
            rho_reg = 1.0 / mu if mu > 0.0 else np.inf   # mu_L may underflow
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


@functools.lru_cache(maxsize=8)
def _stiffness_pattern(topology):
    """CSR pattern of the stiffness of one mesh topology, and the entry that
    each term of ``element_stiffness``'s blocks is summed into.

    Term t = (i*6 + j)*nt + e of the raveled element-last blocks couples
    the local dofs i and j of element e, at rows[t] and cols[t]; the
    pattern holds each coupled pair once, rows and then columns in
    increasing order, as the COO -> CSR conversion of the blocks does,
    entries that sum to zero included. Returns (indptr, indices, slot):
    term t goes to entry slot[t].
    """
    tri = topology.triangles.T[:, None]
    dofs = (2 * tri + np.arange(2)[:, None]).reshape(6, -1)   # dof 2 a + c of corner a
    n_dofs = topology.free_row.size
    rows = np.repeat(dofs, 6, axis=0).reshape(-1)
    cols = np.tile(dofs, (6, 1)).reshape(-1)
    pair, slot = np.unique(rows * n_dofs + cols, return_inverse=True)
    row, col = np.divmod(pair, n_dofs)
    out = (np.searchsorted(row, np.arange(n_dofs + 1)).astype(np.int32),
           col.astype(np.int32), slot)
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _free_block(topology):
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
    indptr, indices, _ = _stiffness_pattern(topology)
    n_dofs = topology.free_row.size
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

    The CSR pattern, and the entry each term of the element blocks goes
    to, are those of the mesh's topology, built once; each call sums the
    terms into their entries by one ``np.bincount``, which starts every
    entry at zero and adds its terms in the blocks' raveled order. An entry
    that sums to exactly zero stays in the pattern.
    """
    indptr, indices, slot = _stiffness_pattern(mesh.topology)
    flat = element_stiffness(mesh.tri_area, mesh.tri_grads, elast.dmatrix()).reshape(-1)
    data = np.bincount(slot, weights=flat, minlength=indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()),
                         shape=(mesh.n_dofs, mesh.n_dofs))


def subdomain_factor(mesh, K, base=None):
    """``CoupledSystem`` of the free block of K (``assemble_stiffness``), on
    the mesh's band factor or on ``base``, one of a mesh of this topology.

    No entry of K joins the two subdomains, so in the order of
    ``mesh.free_dofs`` its free block is block diagonal, one band per
    subdomain, the blocks ending at ``mesh.block_end``. The block and its
    band are gathered from K's data by the cached pattern; the band is laid
    out in LAPACK's column-major order, so the factor overwrites it (on
    ``base``, the system builds it to fall back on).
    """
    src, indptr, indices, lower, slot, kd = _free_block(mesh.topology)
    n_free = mesh.free_dofs.size
    data = K.data[src]
    vals = data[lower]

    def band():
        out = np.zeros((n_free, kd + 1))
        out.reshape(-1)[slot] = vals
        return out.T

    block = sp.csr_matrix((data, indices, indptr), shape=(n_free, n_free))
    band_max = max(vals.max(initial=0.0), -vals.min(initial=0.0))
    return CoupledSystem(block, band_max, base or FactorizedSPD(band(), mesh.block_end),
                         band if base else None)


def assemble_traction(mesh, g):
    """Boundary load vector of the traction ``g(x, y) -> (gx, gy)`` over the
    Neumann edges, via 2-point Gauss quadrature per edge; read-only, and
    formed once per topology and ``g``."""
    return _traction(mesh.topology, g)


@functools.lru_cache(maxsize=8)
def _traction(topology, g):
    edges = topology.neumann_edges
    f = np.zeros(topology.free_row.size)
    (a, b), L = topology.neumann_points, topology.neumann_lengths
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
    per topology."""
    return _boundary_mass(mesh.topology)


@functools.lru_cache(maxsize=8)
def _boundary_mass(topology):
    edges = topology.neumann_edges
    L = topology.neumann_lengths
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
    """Band Cholesky factor L of an SPD matrix B; nothing changes L once built.

    ``band`` is B in LAPACK lower band storage; ``dpbtrf`` factors it in
    place when it is Fortran-ordered, so the caller hands it over.
    ``block_end`` lists where B's diagonal blocks end: no entry of B joins
    the rows above such an end to the rows below it, so L^-1 keeps a column
    in its block. Y = L^-1 U and Y^T Y (``products``) depend on L and U's
    rows alone, so the factor keeps the last pair it formed, with the rows,
    for any coupling on them (a probe's on its base's L), and drops it
    before it forms the next. A nonpositive pivot, or a negligible one
    (min diag(L)^2 <= 1e-12 max diag(L)^2; a NaN fails it too), raises
    ``NotPositiveDefinite``; a Y^T Y that overflows raises
    ``NumericalOverflow``. ``lu`` holds the factor.
    """

    def __init__(self, band, block_end):
        try:
            lower = cholesky_banded(band, lower=True, overwrite_ab=True,
                                    check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from exc
        diag = lower[0]
        if diag.size and not diag.min() ** 2 > 1e-12 * diag.max() ** 2:
            raise NotPositiveDefinite("matrix numerically rank deficient")
        self.block_end = np.asarray(block_end)
        self.lu = _Band(lower, lower.size)
        self._kept = None   # (plus, minus, Y, Y^T Y) of the last Y formed

    def products(self, plus, minus):
        """Y = L^-1 U, read-only, and Y^T Y for the rows (plus, minus)."""
        kept = self._kept
        if kept and all(map(np.array_equal, (plus, minus), kept[:2])):
            return kept[2:]
        self._kept = None   # let the old Y go first
        y = self._trailing_solves(plus, minus)
        y.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            yty = y.T @ y
        if not np.isfinite(yty).all():
            raise NumericalOverflow("coupling Y^T Y overflows double precision "
                                    "(max |Y| %.3g)" % np.abs(y).max())
        self._kept = (plus, minus, y, yty)
        return y, yty

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

    def solve(self, rhs, y, c):
        """One substitution: x = L^-T (z - Y mu) and mu = C^-1 Y^T z,
        z = L^-1 rhs, with C the lower Cholesky factor; x = B^-1 rhs and an
        empty mu for Y None."""
        z = dtbtrs(self.lu.lower, rhs, uplo="L")[0]
        mu = np.zeros(0)
        if y is not None:
            mu = cho_solve((c, True), y.T @ z, check_finite=False)
            z -= y @ mu
        return dtbtrs(self.lu.lower, z, uplo="L", trans="T")[0], mu


class CoupledSystem:
    """The Newton matrices of one mesh: B + U D U^T on a ``FactorizedSPD``.

    ``matrix`` is B, sparse, in the order of a solve's vectors, with
    ``band_max`` = max|B|. ``factor`` is B's, or,
    with the builder of B's band as ``fallback``, that of a nearby matrix
    with the same blocks (a probe's base). A coupling (``couple``) is
    (plus, minus, d): U's column k is e(plus_k) - e(minus_k), rows of B,
    with weight d_k > 0. With Y = L^-1 U and C = D^-1 + Y^T Y factored
    densely, a substitution is Woodbury's (Hager, SIAM Review 31, 1989).
    A weight d_k = inf, a zero of D^-1, is the d -> inf limit: it merges
    the pair shut, and mu_k is the reaction that keeps it shut. Such a
    solve is the Galerkin merge's: the minus row's load moves onto the plus
    row first, and the minus dof takes the plus dof's value after each
    substitution. A coupled solve, or one on a borrowed factor, refines x
    against ``matrix`` until |r| <= eps (|b| + max|A| |x|), eps the machine
    epsilon, from ``start`` where given (a probe's predictor, tied on the
    shut pairs and with no reaction on them; a start that meets the test
    takes no substitution), and otherwise from one substitution; after
    ``REFINE_CAP`` steps a borrower factors B, couples again and solves with
    no start, and an own factor stops. An uncoupled own solve from no start
    takes no step; from a start it refines as a coupled one does.

    Each solve's backward error is checked against ``matrix`` on every
    row, with d (x[plus] - x[minus]) on the coupled rows, or mu for a shut
    pair, and max|A| taken over B and the finite coupled diagonals
    (``BACKWARD_TOL``). A nonpositive pivot of C, a weight that is not > 0
    and a failed check raise ``NotPositiveDefinite``.
    """

    def __init__(self, matrix, band_max, factor, fallback=None):
        self.matrix, self.diag, self.band_max = matrix, matrix.diagonal(), band_max
        self.factor, self.fallback = factor, fallback
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
        y, yty = self.factor.products(plus, minus)
        with np.errstate(over="ignore"):   # 1/d = inf, the d -> 0 limit: mu_k = 0
            inverse = 1.0 / d
        try:
            self.c = cholesky(np.diag(inverse) + yty, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from exc
        self.y, self.coupling = y, (plus, minus, d)
        self.shut = np.flatnonzero(np.isinf(d))
        self.pen = np.flatnonzero(np.isfinite(d))
        for side in (plus, minus):
            self.max_abs = max(self.max_abs,
                               (self.diag[side] + d)[self.pen].max(initial=0.0))

    def solve(self, rhs, start=None):
        given, p, m = rhs, slice(0), slice(0)
        if self.coupling is not None:
            plus, minus, _ = self.coupling
            p, m = plus[self.shut], minus[self.shut]
            rhs = rhs.copy()
            rhs[p] += rhs[m]   # the merge's R^T b: zero stays exactly zero
            rhs[m] = 0.0
        if start is None:
            x, mu = self.factor.solve(rhs, self.y, self.c)
        else:   # a nearby solution, with no reaction on the shut pairs
            x, mu = start.copy(), np.zeros(0 if self.c is None else len(self.c))
        x[m] = x[p]
        res = self._apply(x, mu) - rhs
        # the Woodbury update may cancel in the coupled directions (Yip, SIAM J.
        # Sci. Stat. Comput. 7, 1986), and on a borrowed L a step cuts r by
        # about |B - B_base|/|B|; a step pays only while r is above roundoff
        # (Skeel, Math. Comp. 35, 1980), and a band solve alone is stable
        for step in range(REFINE_CAP + 1 if start is not None or self.fallback
                          or self.coupling else 0):
            if norm(res) <= np.finfo(float).eps * (norm(rhs) + self.max_abs * norm(x)):
                break
            if step == REFINE_CAP:   # a borrower factors B; an own factor stops
                if not self.fallback:
                    break
                self.factor = FactorizedSPD(self.fallback(), self.factor.block_end)
                self.fallback = None
                self.couple(*(self.coupling or ((), (), ())))
                return self.solve(given)
            dx, dmu = self.factor.solve(res, self.y, self.c)
            x, mu = x - dx, mu - dmu
            x[m] = x[p]
            res = self._apply(x, mu) - rhs
        res = norm(res)
        scale = norm(rhs) + self.max_abs * norm(x)
        if not res <= BACKWARD_TOL * scale:   # a NaN residual fails too
            raise NotPositiveDefinite(
                "factorised solve failed its backward-error check "
                "(residual %.3e)" % res)
        return x

    def _apply(self, x, mu):
        """The coupled matrix times x, ``matrix`` and the coupling, with
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


def boundary_misfit(mesh, values, z_values):
    """1/2 int |u - z|^2 over the observation (Neumann) edges (2-pt Gauss)."""
    edges = mesh.neumann_edges
    d = (np.asarray(values) - np.asarray(z_values)).reshape(-1, 2)
    L = mesh.neumann_lengths
    da = d[edges[:, 0]]
    db = d[edges[:, 1]]
    total = 0.0
    for t in GAUSS2:
        dv = da + t * (db - da)
        total += np.sum(0.5 * L * np.sum(dv * dv, axis=1))
    return 0.5 * float(total)
