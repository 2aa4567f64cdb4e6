"""Assembly, Dirichlet handling and the sparse solve path against independent
oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dtbtrs

from crackid import cli, driver, fem, solvers
from crackid.driver import ExperimentConfig
from crackid.errors import InvalidPoisson, NotPositiveDefinite
from crackid.fem import IsotropicElasticity, lame_from_young
from crackid.geometry import (HEIGHT, InterfaceGraph, band_shape, build_mesh,
                              triangle_geometry, uniform_graph)

import oracles
from oracles import constant_graph

ELAST = IsotropicElasticity.from_young(73000.0, 0.34)


# graph and h: axis-aligned cells, some sheared, and a kink
MESHES = {
    "flat": (constant_graph(0.25), 0.05),
    "flat-fine": (constant_graph(0.25), 1.0 / 35.0),
    "perturbed": (uniform_graph(0.25 + 0.01 * np.sin(np.linspace(0.0, 7.0, 11))), 1.0 / 35.0),
    "kinked": (InterfaceGraph(np.array([0.0, 0.6, 1.0]), np.array([0.1, 0.3, 0.3])), 0.02),
}


def factor_of(A):
    """A sparse SPD matrix's system on its band Cholesky, checked against it."""
    band = oracles.tril_band(A)
    return fem.CoupledSystem(A, np.abs(band).max(),
                             fem.FactorizedSPD(band, [A.shape[0]]))


def free_solve(matrix, rhs, free):
    """Solution of the ``free`` x ``free`` block of ``matrix`` for the
    full-length ``rhs``, zero off ``free``, and the factor."""
    factor = factor_of(matrix[free][:, free])
    x = np.zeros(rhs.size)
    x[free] = factor.solve(rhs[free])
    return x, factor


def pair_dofs(mesh, normal, stick):
    """Full-length plus and minus dofs of the x2 pairs of the interface
    nodes ``normal``, then of the x1 pairs of ``stick``."""
    normal = np.asarray(normal, dtype=np.int64)
    stick = np.asarray(stick, dtype=np.int64)
    plus = np.concatenate([2 * mesh.iface_plus[normal] + 1, 2 * mesh.iface_plus[stick]])
    minus = np.concatenate([2 * mesh.iface_minus[normal] + 1, 2 * mesh.iface_minus[stick]])
    return plus, minus


def couple(factor, mesh, normal, weights, stick=()):
    """Couple ``fem.subdomain_factor``'s factor on the x2 pairs of
    ``normal`` with ``weights`` (inf merges a pair shut) and merge the x1
    pairs of ``stick`` shut."""
    plus, minus = pair_dofs(mesh, normal, stick)
    factor.couple(mesh.free_row[plus], mesh.free_row[minus],
                  np.concatenate([weights, np.full(len(stick), np.inf)]))
    return factor


def small_mesh(h=0.125, **kw):
    return build_mesh(constant_graph(0.25), h, **kw)


def tiny_mesh():
    """Two-column broken mesh, 12 vertices, 8 triangles."""
    return build_mesh(constant_graph(0.25, n_nodes=3), 0.125,
                      n_cols=2, n_rows_below=1, n_rows_above=1)


class TestLame:
    def test_reference_constants(self):
        mu, lam = lame_from_young(73000.0, 0.34)
        assert mu == pytest.approx(27238.806, abs=5e-4)
        assert lam == pytest.approx(57882.463, abs=5e-4)

    def test_zero_poisson(self):
        mu, lam = lame_from_young(10.0, 0.0)
        assert mu == 5.0 and lam == 0.0

    def test_incompressible_rejected(self):
        with pytest.raises(InvalidPoisson):
            lame_from_young(1.0, 0.5)
        with pytest.raises(InvalidPoisson):
            lame_from_young(1.0, 0.7)

    def test_rho_default(self):
        assert ELAST.rho_reg == pytest.approx(1.0 / ELAST.mu_L)


class TestElementStiffness:
    def test_unit_right_triangle_against_sympy(self):
        """Symbolic integration oracle for one P1 element, mu=1, lambda=0."""
        import sympy as sy

        x, y = sy.symbols("x y")
        shapes = [1 - x - y, x, y]
        mu, lam = 1.0, 0.0
        D = sy.Matrix([[lam + 2 * mu, lam, 0], [lam, lam + 2 * mu, 0], [0, 0, mu]])
        B = sy.zeros(3, 6)
        for i, N in enumerate(shapes):
            B[0, 2 * i] = sy.diff(N, x)
            B[1, 2 * i + 1] = sy.diff(N, y)
            B[2, 2 * i] = sy.diff(N, y)
            B[2, 2 * i + 1] = sy.diff(N, x)
        integrand = B.T * D * B
        ke_sym = sy.Matrix(6, 6, lambda i, j: sy.integrate(
            sy.integrate(integrand[i, j], (y, 0, 1 - x)), (x, 0, 1)))
        ke_ref = np.array(ke_sym, dtype=float)

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        dmat = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        ke = fem.element_stiffness(*triangle_geometry(verts, tris), dmat)
        assert np.allclose(ke[..., 0], ke_ref, atol=1e-14)

    def test_rigid_modes_in_kernel(self):
        mesh = small_mesh()
        K = fem.assemble_stiffness(mesh, ELAST)
        scale = np.abs(K).max()
        pts = mesh.vertices
        below = np.arange(mesh.n_vertices) < mesh.iface_plus[0]
        for side in (below, ~below):
            for mode_pts in (np.tile([1.0, 0.0], (mesh.n_vertices, 1)),
                             np.tile([0.0, 1.0], (mesh.n_vertices, 1)),
                             np.column_stack([-(pts[:, 1] - 0.25), pts[:, 0] - 0.5])):
                mode = np.where(side[:, None], mode_pts, 0.0).reshape(-1)
                assert np.max(np.abs(K @ mode)) < 1e-9 * scale

    def test_kernel_dimension_is_six(self):
        mesh = tiny_mesh()
        K = fem.assemble_stiffness(mesh, ELAST).toarray()
        w = np.linalg.eigvalsh(K)
        assert np.count_nonzero(w < 1e-9 * w.max()) == 6

    def test_dense_assembly_oracle(self):
        """Loop-based dense assembly must agree entrywise to 1e-12."""
        mesh = tiny_mesh()
        K = fem.assemble_stiffness(mesh, ELAST).toarray()
        D = ELAST.dmatrix()
        Kd = np.zeros_like(K)
        for tri in mesh.triangles:
            X = mesh.vertices[tri]
            A = 0.5 * abs((X[1, 0] - X[0, 0]) * (X[2, 1] - X[0, 1])
                          - (X[2, 0] - X[0, 0]) * (X[1, 1] - X[0, 1]))
            b = np.array([X[1, 1] - X[2, 1], X[2, 1] - X[0, 1], X[0, 1] - X[1, 1]])
            c = np.array([X[2, 0] - X[1, 0], X[0, 0] - X[2, 0], X[1, 0] - X[0, 0]])
            B = np.zeros((3, 6))
            for i in range(3):
                B[0, 2 * i] = b[i]
                B[1, 2 * i + 1] = c[i]
                B[2, 2 * i] = c[i]
                B[2, 2 * i + 1] = b[i]
            B /= 2.0 * A
            ke = A * B.T @ D @ B
            dofs = np.array([[2 * v, 2 * v + 1] for v in tri]).reshape(-1)
            for a in range(6):
                for bb in range(6):
                    Kd[dofs[a], dofs[bb]] += ke[a, bb]
        assert np.max(np.abs(K - Kd)) < 1e-12 * np.abs(Kd).max()

    def test_assembly_additive_over_subsets(self):
        mesh = small_mesh()
        ke = np.moveaxis(
            fem.element_stiffness(mesh.tri_area, mesh.tri_grads, ELAST.dmatrix()), -1, 0)
        half = ke.shape[0] // 2
        K1 = oracles.coo_stiffness(mesh, np.concatenate([ke[:half], 0.0 * ke[half:]]))
        K2 = oracles.coo_stiffness(mesh, np.concatenate([0.0 * ke[:half], ke[half:]]))
        K = fem.assemble_stiffness(mesh, ELAST)
        assert abs((K1 + K2) - K).max() < 1e-12 * abs(K).max()

    @pytest.mark.parametrize("graph,h", [MESHES[k] for k in ("flat", "perturbed", "kinked")],
                             ids=["flat", "perturbed", "kinked"])
    def test_blocks_match_the_einsum_formula_bitwise(self, graph, h):
        mesh = build_mesh(graph, h)
        args = (mesh.tri_area, mesh.tri_grads, ELAST.dmatrix())
        ke = fem.element_stiffness(*args)
        assert ke.shape == (6, 6, mesh.triangles.shape[0])
        assert np.array_equal(np.moveaxis(ke, -1, 0),
                              oracles.einsum_element_stiffness(*args))
        # formed in place, the blocks keep the expression's bits
        assert ke.tobytes() == oracles.expression_element_stiffness(*args).tobytes()

    @pytest.mark.parametrize("graph,h,sums_to_zero", [
        MESHES["flat"] + (True,),
        MESHES["flat-fine"] + (True,),
        MESHES["perturbed"] + (False,),
        MESHES["kinked"] + (True,),
    ], ids=["flat", "flat-fine", "perturbed", "kinked"])
    def test_cached_pattern_is_coo_and_data_within_ulps(self, graph, h, sums_to_zero):
        mesh = build_mesh(graph, h)
        ke = fem.element_stiffness(mesh.tri_area, mesh.tri_grads, ELAST.dmatrix())
        ref = oracles.coo_stiffness(mesh, np.moveaxis(ke, -1, 0))
        fem._stiffness_pattern.cache_clear()
        for _ in range(2):   # the cold pattern build, then the cached one
            K = fem.assemble_stiffness(mesh, ELAST)
            for attr in ("indptr", "indices", "data"):
                assert getattr(K, attr).dtype == getattr(ref, attr).dtype
            for attr in ("indptr", "indices"):
                assert np.array_equal(getattr(K, attr), getattr(ref, attr)), attr
        # scipy sums each entry in its own order; two orders of an m-term
        # sum differ by at most 2 (m - 1) u sum|terms| (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2002, ch. 4)
        slot = fem._stiffness_pattern(mesh.topology)[2]
        terms = np.bincount(slot)
        size = np.bincount(slot, weights=np.abs(ke.reshape(-1)))
        assert np.all(np.abs(K.data - ref.data) <= 2.0 * (terms - 1) * 2.0 ** -53 * size)
        # on axis-aligned cells some entries sum to exactly zero; they stay
        # in the pattern, as they stay in the COO conversion's
        assert np.array_equal(K.data == 0.0, ref.data == 0.0)
        assert (np.count_nonzero(K.data) < K.nnz) == sums_to_zero

    def test_cached_pattern_is_read_only(self):
        mesh = small_mesh()
        fem.assemble_stiffness(mesh, ELAST)
        for arr in fem._stiffness_pattern(mesh.topology):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("h,terms", [
        (0.05, {1: 816, 2: 4416, 3: 368, 6: 608}),
        (0.01 * 8.0 / 7.0, {1: 3536, 2: 91184, 3: 1728, 6: 14616}),
    ], ids=["flat", "identify"])
    def test_data_equal_the_flat_order_oracle_bitwise(self, h, terms):
        # every term of the blocks goes to one entry, every entry gets one
        # or more, and each entry sums its terms in the blocks' raveled
        # order from +0.0
        mesh = build_mesh(constant_graph(0.25), h)
        ke = fem.element_stiffness(mesh.tri_area, mesh.tri_grads, ELAST.dmatrix())
        slot = fem._stiffness_pattern(mesh.topology)[2]
        assert slot.size == ke.size
        counts = np.bincount(np.bincount(slot))
        assert {m: int(c) for m, c in enumerate(counts) if c} == terms
        K = fem.assemble_stiffness(mesh, ELAST)
        assert K.data.tobytes() == oracles.flat_order_stiffness(mesh, ke).tobytes()

    def test_symmetry(self):
        mesh = small_mesh(0.05)
        K = fem.assemble_stiffness(mesh, ELAST)
        assert abs(K - K.T).max() < 1e-12 * abs(K).max()


class TestTraction:
    def test_zero_load(self):
        mesh = small_mesh()
        f = fem.assemble_traction(mesh, lambda x, y: (0.0 * x, 0.0 * x))
        assert np.all(f == 0.0)

    def test_constant_load_lumping(self):
        mesh = small_mesh(0.125)
        c = 3.5
        f = fem.assemble_traction(mesh, lambda x, y: (0.0 * x, np.where(y < 0.1, c, 0.0)))
        # bottom edge nodes receive c*L/2 per adjacent edge
        bottom = np.nonzero((mesh.vertices[:, 1] == 0.0))[0]
        inner = bottom[(mesh.vertices[bottom, 0] > 0) & (mesh.vertices[bottom, 0] < 1)]
        L = 1.0 / oracles.column_count(mesh)
        assert np.allclose(f[2 * inner + 1], c * L, rtol=1e-14)
        corners = bottom[(mesh.vertices[bottom, 0] == 0) | (mesh.vertices[bottom, 0] == 1)]
        assert np.allclose(f[2 * corners + 1], c * L / 2.0, rtol=1e-14)
        assert np.all(f[0::2] == 0.0)

    def test_contact_load_sign_flip(self):
        # top edge trace of the contact load changes sign at x1 = 4/7
        mu = ELAST.mu_L

        def g(x, y):
            return np.zeros_like(x), (1.0 - 7.0 * x / 4.0) * (4.0 * y - 1.0) * mu

        mesh = small_mesh(0.05)
        f = fem.assemble_traction(mesh, g)
        top = np.nonzero(mesh.vertices[:, 1] == 0.5)[0]
        xs = mesh.vertices[top, 0]
        vals = f[2 * top + 1]
        assert np.all(vals[xs < 4.0 / 7.0 - 0.05] > 0)
        assert np.all(vals[xs > 4.0 / 7.0 + 0.05] < 0)

    def test_exactness_for_linear_load(self):
        # 2-point Gauss is exact for P1 x linear data: compare total force
        mesh = small_mesh(0.125)

        def g(x, y):
            return np.zeros_like(x), np.where(y < 0.1, 2.0 * x + 1.0, 0.0)

        f = fem.assemble_traction(mesh, g)
        assert np.sum(f[1::2]) == pytest.approx(2.0, rel=1e-14)  # int_0^1 (2x+1)


class TestObservationRows:
    """The terms on the observation rows, formed once per topology: every
    mesh of one topology holds the topology's coordinate tables bit for bit
    in its vertices (``geometry``), so the cached load and mass, and the
    measurement interpolated on the first mesh, equal each mesh's own."""

    @pytest.mark.parametrize("h", [0.05, 1.0 / 35.0, 0.01 * 8.0 / 7.0],
                             ids=["flat", "flat-fine", "identify"])
    def test_cached_terms_equal_each_mesh_fresh_bitwise(self, h):
        rng = np.random.default_rng(41)
        g = ExperimentConfig().traction("contact")
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
        meas = driver.Measurement(
            h=0.01, load_case="contact",
            points=np.column_stack([np.tile(x, 2), np.repeat([0.0, HEIGHT], x.size)]),
            disp=rng.standard_normal((2 * x.size, 2)))
        fem._traction.cache_clear()
        fem._boundary_mass.cache_clear()
        z = None
        for k in range(12):
            # every other line lies wholly below 0.25, where 0.5 - psi rounds
            top = 0.25 if k % 2 else HEIGHT - 2.0 * h
            mesh = build_mesh(uniform_graph(rng.uniform(2.0 * h, top, 11)), h)
            rows = mesh.vertices[mesh.observation_vertices]
            assert rows.tobytes() == mesh.observation_points.tobytes()
            for side in (mesh.iface_minus, mesh.iface_plus):
                assert mesh.vertices[side, 0].tobytes() == mesh.interface_x.tobytes()
            F = fem.assemble_traction(mesh, g)
            assert F.tobytes() == oracles.vertex_traction(mesh, g).tobytes()
            M, ref = fem.assemble_boundary_mass(mesh), oracles.vertex_boundary_mass(mesh)
            for attr in ("data", "indices", "indptr"):
                assert getattr(M, attr).tobytes() == getattr(ref, attr).tobytes()
            z = driver.interp_measurement(mesh, meas) if z is None else z
            assert z.tobytes() == driver.interp_measurement(mesh, meas).tobytes()
        assert fem._traction.cache_info().misses == 1
        assert fem._boundary_mass.cache_info().misses == 1

    def test_cached_terms_are_read_only(self):
        mesh = small_mesh()
        F = fem.assemble_traction(mesh, lambda x, y: (0.0 * x, 1.0 + 0.0 * y))
        M = fem.assemble_boundary_mass(mesh)
        for arr in (F, M.data, M.indices, M.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestInterfaceLinear:
    def test_zero_weight(self):
        mesh = small_mesh()
        M = oracles.assemble_interface_linear(mesh, 0.0)
        assert M.nnz == 0 or abs(M).max() == 0.0

    def test_constant_jump_quadratic_form(self):
        mesh = tiny_mesh()
        w, j = 2.5, 0.7
        M = oracles.assemble_interface_linear(mesh, w, component="normal")
        u = np.zeros(mesh.n_dofs)
        u[2 * mesh.iface_plus + 1] = j
        assert u @ (M @ u) == pytest.approx(w * 1.0 * j * j, rel=1e-14)
        M1 = oracles.assemble_interface_linear(mesh, w, component="normal", lumped=True)
        assert u @ (M1 @ u) == pytest.approx(w * 1.0 * j * j, rel=1e-14)

    def test_psd_and_continuous_kernel(self):
        mesh = small_mesh()
        M = oracles.assemble_interface_linear(mesh, 1.0)
        assert abs(M - M.T).max() < 1e-14
        w = np.linalg.eigvalsh(M.toarray())
        assert w.min() > -1e-12 * max(w.max(), 1.0)
        rng = np.random.default_rng(3)
        cont = np.zeros(mesh.n_dofs)
        vals = rng.standard_normal(mesh.iface_minus.size)
        cont[2 * mesh.iface_minus + 1] = vals
        cont[2 * mesh.iface_plus + 1] = vals  # no jump
        assert np.max(np.abs(M @ cont)) < 1e-12

    def test_tangent_component_couples_x_dofs(self):
        mesh = tiny_mesh()
        M = oracles.assemble_interface_linear(mesh, 1.0, component="tangent")
        u = np.zeros(mesh.n_dofs)
        u[2 * mesh.iface_plus] = 1.0
        assert u @ (M @ u) == pytest.approx(1.0, rel=1e-14)


class TestSolve:
    def test_identity_system(self):
        mesh = tiny_mesh()
        clamped = oracles.dirichlet_vertices(mesh)
        n_free = mesh.n_dofs - 2 * clamped.size
        free = mesh.free_dofs
        x, factor = free_solve(sp.identity(mesh.n_dofs, format="csr"),
                               np.ones(mesh.n_dofs), free)
        assert np.allclose(x[free], 1.0)
        assert np.all(x[2 * clamped] == 0.0)
        assert factor.matrix.shape[0] == n_free

    def test_dense_oracle(self):
        mesh = tiny_mesh()
        K = fem.assemble_stiffness(mesh, ELAST)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(mesh.n_dofs)
        free = mesh.free_dofs
        x, factor = free_solve(K, f, free)
        xd = np.linalg.solve(factor.matrix.toarray(), f[free])
        assert np.linalg.norm(x[free] - xd) < 1e-10 * np.linalg.norm(xd)

    def test_residual_tolerance(self):
        mesh = small_mesh(0.05)
        K = fem.assemble_stiffness(mesh, ELAST)
        f = fem.assemble_traction(
            mesh, lambda x, y: (0.0 * x, np.full_like(x, ELAST.mu_L)))
        free = mesh.free_dofs
        x, factor = free_solve(K, f, free)
        r = factor.matrix @ x[free] - f[free]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(f[free])

    def test_singular_system_rejected(self):
        # no Dirichlet dofs: pure Neumann stiffness has rigid modes
        mesh = tiny_mesh()
        K = fem.assemble_stiffness(mesh, ELAST)
        with pytest.raises(NotPositiveDefinite):
            factor_of(K.tocsr())

    def test_mismatched_factor_rejected(self):
        # every solve checks its backward error against the factor's matrix;
        # a factor that no longer matches it must not hand back a solution
        mesh = small_mesh(0.05)
        K = fem.assemble_stiffness(mesh, ELAST)
        f = fem.assemble_traction(
            mesh, lambda x, y: (0.0 * x, np.full_like(x, ELAST.mu_L)))
        free = mesh.free_dofs
        _, factor = free_solve(K, f, free)
        factor.matrix = 2.0 * factor.matrix
        with pytest.raises(NotPositiveDefinite):
            factor.solve(f[free])

    def test_deterministic(self):
        mesh = small_mesh(0.05)
        K = fem.assemble_stiffness(mesh, ELAST)
        f = fem.assemble_traction(mesh, lambda x, y: (0.0 * x, 4.0 * y - 1.0))
        free = mesh.free_dofs
        x1, _ = free_solve(K, f, free)
        x2, _ = free_solve(K, f, free)
        assert np.array_equal(x1, x2)


class TestFactor:
    """The band Cholesky's own checks: each failure is NotPositiveDefinite."""

    def free_block(self):
        mesh = small_mesh(0.05)
        free = mesh.free_dofs
        return fem.assemble_stiffness(mesh, ELAST)[free][:, free].tolil()

    def test_indefinite_matrix_rejected(self):
        A = self.free_block()
        A[40, 40] = -A[40, 40]
        with pytest.raises(NotPositiveDefinite, match="not positive definite"):
            factor_of(A.tocsr())

    def test_nan_entry_rejected(self):
        A = self.free_block()
        A[40, 40] = np.nan
        with pytest.raises(NotPositiveDefinite):
            factor_of(A.tocsr())

    def test_negligible_pivot_rejected(self):
        # SPD, so the Cholesky succeeds; its last pivot diag(L)^2 = 1e-13 is
        # below 1e-12 of the largest
        A = sp.diags([1.0, 2.0, 1e-13], format="csr")
        with pytest.raises(NotPositiveDefinite, match="rank deficient"):
            factor_of(A)


def closed_nodes(mesh, closed):
    interior = np.flatnonzero(mesh.interface_interior())
    return {"none": interior[:0], "every-other": interior[::2],
            "all": interior}[closed]


class TestFreeBand:
    """The one band factor of a mesh: K's free block in the order of
    ``mesh.free_dofs``, filled from the cached stiffness pattern and
    factored as one band per subdomain, with the closed pairs' jump mass
    as a coupling."""

    # each mesh, and whether no entry of its stiffness sums to exactly zero
    MESH_CASES = [("flat", False), ("perturbed", True), ("kinked", False)]

    def system(self, name, closed):
        mesh = build_mesh(*MESHES[name])
        K = fem.assemble_stiffness(mesh, ELAST)
        weights = mesh.interface_nodal_weights() / 1e-8
        nodes = closed_nodes(mesh, closed)
        system = couple(fem.subdomain_factor(mesh, K), mesh, nodes, weights[nodes])
        return mesh, K, weights, nodes, system

    @pytest.mark.parametrize("name,nonzero", MESH_CASES)
    @pytest.mark.parametrize("closed", ["none", "every-other", "all"])
    def test_band_and_factor_match_the_sparse_route_bitwise(self, name, nonzero,
                                                            closed):
        mesh, K, _, nodes, system = self.system(name, closed)
        # a flat or kinked mesh keeps exact zeros in K, and in the band
        assert (np.count_nonzero(K.data) == K.nnz) == nonzero
        free = mesh.free_dofs
        # the whole free block in the mesh's order: no entry of K joins the
        # blocks, so its band is the two blocks' bands side by side
        ref = oracles.tril_band(K[free][:, free])
        # the factor consumed its band; B's band holds the same bits, max|B|
        # was taken from it, and diag(B) holds its diagonal's bits
        assert oracles.tril_band(system.matrix).tobytes() == ref.tobytes()
        assert system.diag.tobytes() == ref[0].tobytes()
        assert system.band_max == np.abs(ref).max()
        ref_lower = cholesky_banded(ref, lower=True, check_finite=False)
        assert np.array_equal(system.factor.lu.lower, ref_lower)
        # the blocks end where the mesh says; the size counts the band only
        lower = np.count_nonzero(free // 2 < mesh.iface_plus[0])
        assert np.array_equal(system.factor.block_end, [lower, free.size])
        assert system.factor.lu.nnz == ref.size

    @pytest.mark.parametrize("name", sorted(MESHES) + ["identify"])
    def test_block_end_is_the_topology_split(self, name):
        # the lower block holds 2 (rows below + 1) (columns - 1) free dofs,
        # and no entry of L joins the blocks there
        mesh = coupling_mesh(name)
        system = fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST))
        n_cols = oracles.column_count(mesh)
        rows_below = mesh.iface_minus[0] // (n_cols + 1)
        lower = 2 * (rows_below + 1) * (n_cols - 1)
        assert np.array_equal(system.factor.block_end, [lower, mesh.free_dofs.size])
        factor = system.factor
        assert np.array_equal(factor.block_end, oracles.block_end_scan(factor.lu.lower))
        if name == "identify":
            assert lower == 4002

    @pytest.mark.parametrize("name", sorted(MESHES) + ["identify"])
    def test_block_product_is_the_full_product_bitwise(self, name):
        # each row of the block keeps K's stored column order, so B x sums
        # as K x does on the free rows, less products with zeros
        mesh = coupling_mesh(name)
        K = fem.assemble_stiffness(mesh, ELAST)
        system = fem.subdomain_factor(mesh, K)
        free = mesh.free_dofs
        x = np.random.default_rng(17).standard_normal(free.size)
        full = np.zeros(mesh.n_dofs)
        full[free] = x
        assert (system.matrix @ x).tobytes() == (K @ full)[free].tobytes()
        # the block holds every entry of K that joins two free dofs
        assert system.matrix.nnz == K[free][:, free].nnz

    @pytest.mark.parametrize("h", [0.05, 1.0 / 35.0, 0.01 * 8.0 / 7.0, 0.01],
                             ids=["flat", "flat-fine", "identify", "measure"])
    def test_band_shape_predicts_the_built_band(self, h):
        # the size guard's prediction is the band the factor builds
        mesh = build_mesh(constant_graph(0.25), h)
        K = fem.assemble_stiffness(mesh, ELAST)
        system = fem.subdomain_factor(mesh, K)
        assert band_shape(h) == oracles.tril_band(system.matrix).shape
        assert band_shape(h) == system.factor.lu.lower.shape

    @pytest.mark.parametrize("name,nonzero", MESH_CASES)
    @pytest.mark.parametrize("closed", ["none", "every-other", "all"])
    def test_solve_matches_the_full_band_route(self, name, nonzero, closed):
        mesh, K, weights, nodes, system = self.system(name, closed)
        # the reference bands K + J in column order, where it stays banded
        col = oracles.column_order(mesh)
        A = (K + oracles.interface_nodal_jump_matrix(mesh, weights, nodes))[col][:, col]
        rhs = np.random.default_rng(8).standard_normal(mesh.n_dofs)
        ref = oracles.full_band_solve(A, rhs[col])
        x = np.zeros(mesh.n_dofs)
        x[mesh.free_dofs] = system.solve(rhs[mesh.free_dofs])
        assert np.linalg.norm(x[col] - ref) <= 1e-12 * np.linalg.norm(ref)
        # the backward-error check scales by max|A| of the whole matrix
        assert system.max_abs == abs(A).max()

    @pytest.mark.parametrize("block", [0, 1], ids=["lower", "upper"])
    def test_indefinite_block_rejected(self, block):
        mesh = build_mesh(*MESHES["perturbed"])
        K = fem.assemble_stiffness(mesh, ELAST)
        dof = mesh.free_dofs[0 if block == 0 else -1]
        K[dof, dof] = -K[dof, dof]
        with pytest.raises(NotPositiveDefinite, match="not positive definite"):
            fem.subdomain_factor(mesh, K)

    def test_nonpositive_coupling_rejected(self):
        # K - J is indefinite although C = D^-1 + Y^T Y may factor
        mesh = build_mesh(*MESHES["perturbed"])
        K = fem.assemble_stiffness(mesh, ELAST)
        nodes = closed_nodes(mesh, "all")
        system = fem.subdomain_factor(mesh, K)
        with pytest.raises(NotPositiveDefinite, match="coupling"):
            couple(system, mesh, nodes, -mesh.interface_nodal_weights()[nodes] / 1e-8)

    def test_sign_flipped_coupling_fails_the_backward_error_check(self):
        # the check applies the coupling: against K - J, the solve of K + J fails
        mesh, _, _, _, system = self.system("perturbed", "every-other")
        plus, minus, d = system.coupling
        rhs = np.ones(mesh.free_dofs.size)
        system.solve(rhs)
        system.coupling = (plus, minus, -d)
        with pytest.raises(NotPositiveDefinite, match="backward-error"):
            system.solve(rhs)

    @pytest.mark.parametrize("eps", [1e-8, 1e-10])
    @pytest.mark.parametrize("closed", ["every-other", "all"])
    @pytest.mark.parametrize("name", ["flat", "perturbed", "kinked", "identify"])
    def test_refinement_step_cuts_the_backward_error(self, name, closed, eps):
        # the Woodbury solve alone cancels in the coupled directions; on the
        # contact load it starts above roundoff, and refinement brings the
        # normwise backward error against the whole (K + J) free block down
        # 50x or more
        cfg = ExperimentConfig()
        mesh = coupling_mesh(name)
        K = fem.assemble_stiffness(mesh, ELAST)
        weights = mesh.interface_nodal_weights() / eps
        nodes = closed_nodes(mesh, closed)
        system = couple(fem.subdomain_factor(mesh, K), mesh, nodes, weights[nodes])
        free = mesh.free_dofs
        A = (K + oracles.interface_nodal_jump_matrix(mesh, weights, nodes))[free][:, free]
        rhs = fem.assemble_traction(mesh, cfg.traction("contact"))[free]
        max_abs = abs(A).max()

        def backward_error(x):
            return np.linalg.norm(A @ x - rhs) / (max_abs * np.linalg.norm(x)
                                                  + np.linalg.norm(rhs))

        refined = backward_error(system.solve(rhs))
        unrefined = system.factor.solve(rhs, system.y, system.c)[0]
        assert refined <= backward_error(unrefined) / 3.0


def coupling_mesh(name):
    if name == "identify":
        cfg = ExperimentConfig()
        return build_mesh(cfg.initial_graph(), cfg.h_identify)
    return build_mesh(*MESHES[name])


# interface nodes coupled on x2 with a penalty (eps = 1e-8), merged shut on
# x2 (contact), and merged shut on x1 (sticking), by case
COUPLING_CASES = {
    "every-other-sticking": lambda i: (i[:0], i[:0], i[::2]),
    "contact-all-sticking": lambda i: (i[:0], i, i),
    "penalty-and-sticking": lambda i: (i[::2], i[:0], i),
}


class TestCoupling:
    """Penalty, contact and stick as one coupling on the mesh's band
    factor: a merged pair is a zero of D^-1, and the solve is the merged
    (R^T A R) system's."""

    def coupled(self, name, case):
        mesh = coupling_mesh(name)
        K = fem.assemble_stiffness(mesh, ELAST)
        penalty, shut, stick = COUPLING_CASES[case](
            np.flatnonzero(mesh.interface_interior()))
        weights = np.concatenate([mesh.interface_nodal_weights()[penalty] / 1e-8,
                                  np.full(shut.size, np.inf)])
        system = couple(fem.subdomain_factor(mesh, K), mesh,
                        np.concatenate([penalty, shut]), weights, stick)
        A = K + oracles.interface_nodal_jump_matrix(
            mesh, mesh.interface_nodal_weights() / 1e-8, penalty)
        plus, minus = pair_dofs(mesh, shut, stick)
        return mesh, A, system, plus, minus

    @staticmethod
    def solve(mesh, system, rhs):
        x = np.zeros(mesh.n_dofs)
        x[mesh.free_dofs] = system.solve(rhs[mesh.free_dofs])
        return x

    @pytest.mark.parametrize("case", list(COUPLING_CASES))
    @pytest.mark.parametrize("name", ["flat", "perturbed", "kinked", "identify"])
    def test_constrained_solve_matches_the_merged_oracle(self, name, case):
        mesh, A, system, plus, minus = self.coupled(name, case)
        rhs = np.random.default_rng(8).standard_normal(mesh.n_dofs)
        ref = oracles.merged_solve(A, rhs, oracles.column_order(mesh), minus, plus)
        x = self.solve(mesh, system, rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        # every merged jump is exactly zero, as the merge makes it
        assert np.array_equal(x[plus], x[minus])

    @pytest.mark.parametrize("case", list(COUPLING_CASES))
    def test_load_the_merge_cancels_gives_exact_zero(self, case):
        # equal and opposite loads on the merged pairs: R^T b = 0, so x = 0
        mesh, _, system, plus, minus = self.coupled("perturbed", case)
        rhs = np.zeros(mesh.n_dofs)
        rhs[plus] = np.linspace(1.0, 2.0, plus.size)
        rhs[minus] = -rhs[plus]
        assert not np.any(self.solve(mesh, system, rhs))

    @pytest.mark.parametrize("case", list(COUPLING_CASES))
    @pytest.mark.parametrize("name", ["perturbed", "identify"])
    def test_block_solves_equal_one_solve_from_the_top(self, name, case):
        # Y = L^-1 U solved per block from each column's first row equals,
        # bit for bit, one solve of all of U from row 0; it is row-major
        mesh, _, system, _, _ = self.coupled(name, case)
        plus, minus, d = system.coupling
        u = np.zeros((mesh.free_dofs.size, d.size))
        u[plus, np.arange(d.size)] = 1.0
        u[minus, np.arange(d.size)] = -1.0
        ref = dtbtrs(system.factor.lu.lower, u, uplo="L")[0]
        assert np.array_equal(system.y, ref)
        assert system.y.flags.c_contiguous

    @pytest.mark.parametrize("case", list(COUPLING_CASES))
    @pytest.mark.parametrize("name", ["flat", "perturbed", "kinked", "identify"])
    def test_refinement_step_cuts_the_constrained_backward_error(self, name, case):
        # the merged system's normwise backward error, with the solution
        # read on the kept dofs, on the contact load
        mesh, A, system, plus, minus = self.coupled(name, case)
        R, kept = oracles.merge_map(mesh.n_dofs, mesh.free_dofs, minus, plus)
        A_r = R.T @ A @ R
        rhs = fem.assemble_traction(mesh, ExperimentConfig().traction("contact"))
        b_r = R.T @ rhs
        max_abs = abs(A_r).max()
        free = mesh.free_dofs

        def backward_error(x):
            x_r = x[kept]
            return np.linalg.norm(A_r @ x_r - b_r) / (max_abs * np.linalg.norm(x_r)
                                                      + np.linalg.norm(b_r))

        x0 = np.zeros(mesh.n_dofs)
        folded = rhs.copy()
        folded[plus] += folded[minus]
        folded[minus] = 0.0
        x0[free] = system.factor.solve(folded[free], system.y, system.c)[0]
        refined = backward_error(self.solve(mesh, system, rhs))
        unrefined = backward_error(x0)
        # merged pairs alone add no large weight, so the solve starts at
        # roundoff; the penalty's w/eps cancels, and the step cuts it 20x
        assert refined <= unrefined / (3.0 if case == "penalty-and-sticking" else 1.0)


# interface nodes coupled on x2 with a penalty (eps = 1e-8), and merged shut
# on x1 (sticking), by case
BORROW_CASES = {
    "uncoupled": lambda i: (i[:0], i[:0]),
    "penalty": lambda i: (i[::2], i[:0]),
    "penalty-and-sticking": lambda i: (i[::2], i),
}


class TestBorrowedFactor:
    """A system that solves on the L of a nearby matrix with the same
    blocks (a finite-difference probe's on its base mesh's) and refines
    against its own block; a coupled own system refines by the same eps
    test, an uncoupled one takes no step. Factorisations are counted as
    ``FactorizedSPD.__init__`` calls, substitutions as ``FactorizedSPD.solve``
    calls (a solve's first, and one per refinement step) and the Y formed
    as ``FactorizedSPD._trailing_solves`` calls."""

    @staticmethod
    def coupled(system, mesh, case):
        penalty, stick = BORROW_CASES[case](np.flatnonzero(mesh.interface_interior()))
        return couple(system, mesh, penalty,
                      mesh.interface_nodal_weights()[penalty] / 1e-8, stick)

    @staticmethod
    def load(mesh):
        cfg = ExperimentConfig()
        return fem.assemble_traction(mesh, cfg.traction("contact"))[mesh.free_dofs]

    @pytest.mark.parametrize("case", list(BORROW_CASES))
    @pytest.mark.parametrize("name,step", [("flat-fine", 1e-3), ("identify", 1e-3),
                                           ("identify", 1e-4)])
    def test_probe_block_refines_to_roundoff_on_the_base_factor(self, monkeypatch,
                                                                name, step, case):
        # a probe moves one coarse node by step h: its block is within about
        # 1e-4 of the base's, and refinement on the base's L reaches
        # |r| <= eps (|b| + max|A| |x|) in a few steps, with no factor made
        cfg = ExperimentConfig()
        psi = cfg.initial_graph()
        h = cfg.h_identify if name == "identify" else MESHES[name][1]
        base_mesh = build_mesh(psi, h)
        mesh = build_mesh(psi.with_psi(psi.psi + step * h * np.eye(psi.s.size)[4]), h)
        assert mesh.topology is base_mesh.topology
        base = fem.subdomain_factor(base_mesh, fem.assemble_stiffness(base_mesh, ELAST))
        K = fem.assemble_stiffness(mesh, ELAST)
        own = self.coupled(fem.subdomain_factor(mesh, K), mesh, case)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        # diag(B) and max|A| hold the bits the probe's own band gives
        assert borrowed.diag.tobytes() == own.diag.tobytes()
        assert borrowed.max_abs == own.max_abs and borrowed.factor is base.factor
        rhs = self.load(mesh)
        x = borrowed.solve(rhs)
        # no fallback: the loop left on the roundoff bound before the cap
        assert made == []
        assert borrowed.fallback is not None and borrowed.factor is base.factor
        assert 1 <= len(substituted) - 1 <= 4, len(substituted)
        ref = own.solve(rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", list(BORROW_CASES))
    def test_far_block_falls_back_on_its_own_factor_bitwise(self, monkeypatch, case):
        # B = 2 B_base: each step maps the error e to -e, so the residual
        # never contracts; after REFINE_CAP steps the system factors B once
        # and solves as a system made from B's band does, then and after
        mesh = build_mesh(*MESHES["perturbed"])
        base = fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST))
        stiff = IsotropicElasticity.from_young(2.0 * ELAST.E_Y, ELAST.nu_P)
        K = fem.assemble_stiffness(mesh, stiff)
        assert np.array_equal(K.data, 2.0 * fem.assemble_stiffness(mesh, ELAST).data)
        own = self.coupled(fem.subdomain_factor(mesh, K), mesh, case)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        rhs = self.load(mesh)
        x = borrowed.solve(rhs)
        fallen = len(substituted)
        assert borrowed.fallback is None and borrowed.factor is not base.factor
        assert np.array_equal(borrowed.factor.lu.lower, own.factor.lu.lower)
        assert x.tobytes() == own.solve(rhs).tobytes()
        # one substitution and REFINE_CAP steps on the base's L, then what an
        # own solve makes
        assert fallen - (1 + fem.REFINE_CAP) == len(substituted) - fallen
        assert borrowed.solve(2.0 * rhs).tobytes() == own.solve(2.0 * rhs).tobytes()
        assert made == [borrowed.factor]

    @pytest.mark.parametrize("case", list(BORROW_CASES))
    def test_start_at_the_base_solution_agrees_with_a_cold_solve(self, monkeypatch, case):
        # a probe that refines from its base's solution, not from a first
        # substitution, saves that substitution; both meet the eps test, so
        # their difference, folded onto the merge's kept rows, is a few eps
        base, mesh, K = self.probe_pair(case)
        rhs = self.load(mesh)
        start = base.solve(rhs)
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        warm = borrowed.solve(rhs, start)
        steps = len(substituted)
        cold = borrowed.solve(rhs)
        assert made == [] and len(substituted) == 2 * steps + 1 and steps >= 1
        assert borrowed.factor is base.factor
        mu = np.zeros(0 if borrowed.c is None else len(borrowed.c))
        r, b = borrowed._apply(warm - cold, mu), rhs.copy()
        if borrowed.coupling is not None:
            plus, minus, _ = borrowed.coupling
            p, m = plus[borrowed.shut], minus[borrowed.shut]
            assert np.array_equal(warm[p], warm[m])
            for v in (r, b):
                v[p] += v[m]
                v[m] = 0.0
        eps = np.finfo(float).eps
        assert fem.norm(r) <= 3.0 * eps * (fem.norm(b) + borrowed.max_abs * fem.norm(cold))

    @pytest.mark.parametrize("case", list(BORROW_CASES))
    def test_start_that_reaches_the_cap_falls_back_bitwise(self, monkeypatch, case):
        # B = 2 B_base, as in the far-block test: from the base's solution
        # the steps never contract either; at REFINE_CAP the system factors
        # B and solves cold, as a system made from B's band does
        mesh = build_mesh(*MESHES["perturbed"])
        base = self.coupled(fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST)),
                            mesh, case)
        K = fem.assemble_stiffness(mesh, IsotropicElasticity.from_young(2.0 * ELAST.E_Y,
                                                                        ELAST.nu_P))
        own = self.coupled(fem.subdomain_factor(mesh, K), mesh, case)
        rhs = self.load(mesh)
        start = base.solve(rhs)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        x = borrowed.solve(rhs, start)
        fallen = len(substituted)
        assert borrowed.fallback is None and borrowed.factor is not base.factor
        assert np.array_equal(borrowed.factor.lu.lower, own.factor.lu.lower)
        assert x.tobytes() == own.solve(rhs).tobytes()
        # REFINE_CAP steps from the start, none before them, then a cold solve
        assert fallen - fem.REFINE_CAP == len(substituted) - fallen
        assert made == [borrowed.factor]

    @pytest.mark.parametrize("case", list(BORROW_CASES))
    def test_own_factor_steps_only_above_eps(self, monkeypatch, case):
        # an own system refines while its residual is above roundoff, as a
        # borrower does, and an uncoupled solve takes no step: the merge's
        # fold, one substitution, the tie of the shut pairs, and one step
        # only where |r| > eps (|b| + max|A| |x|); on the contact load the
        # coupled cases leave about 3 eps, and one step is enough
        mesh = build_mesh(*MESHES["perturbed"])
        system = self.coupled(fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST)),
                              mesh, case)
        rhs = self.load(mesh)
        b, p, m = rhs.copy(), slice(0), slice(0)
        if system.coupling is not None:
            plus, minus, _ = system.coupling
            p, m = plus[system.shut], minus[system.shut]
            b[p] += b[m]
            b[m] = 0.0

        def above_eps(x, mu):
            return fem.norm(system._apply(x, mu) - b) > np.finfo(float).eps * (
                fem.norm(b) + system.max_abs * fem.norm(x))

        x, mu = system.factor.solve(b, system.y, system.c)
        x[m] = x[p]
        steps = int(system.coupling is not None and above_eps(x, mu))
        if steps:
            dx, dmu = system.factor.solve(system._apply(x, mu) - b, system.y, system.c)
            x, mu = x - dx, mu - dmu
            x[m] = x[p]
            assert not above_eps(x, mu)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        assert system.solve(rhs).tobytes() == x.tobytes()
        assert made == [] and len(substituted) == 1 + steps
        assert steps == {"uncoupled": 0, "penalty": 1, "penalty-and-sticking": 1}[case]

    def test_uncoupled_own_solve_refines_from_a_start(self, monkeypatch):
        # a start meets the eps test on an uncoupled own factor too: one
        # about 1e-11 off the solution is refined, not handed back as it is
        mesh = build_mesh(*MESHES["flat"])
        system = fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST))
        rhs = self.load(mesh)
        cold = system.solve(rhs)
        start = cold * (1.0 + 1e-11 * np.cos(np.arange(cold.size)))
        eps = np.finfo(float).eps

        def backward_error(x):
            return fem.norm(system.matrix @ x - rhs) / (
                fem.norm(rhs) + system.max_abs * fem.norm(x))

        assert backward_error(start) > 1e3 * eps
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        x = system.solve(rhs, start)
        assert system.coupling is None and system.fallback is None
        assert len(substituted) >= 1 and backward_error(x) <= eps

    def test_unrefined_coupled_solve_ties_the_shut_pairs(self, monkeypatch):
        # the tie follows the first substitution, so a coupled solve that
        # takes no step returns x[minus] = x[plus] on every shut pair, bitwise
        mesh = build_mesh(*MESHES["flat"])
        interior = np.flatnonzero(mesh.interface_interior())
        system = couple(fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST)),
                        mesh, interior[:0], [], interior[::2])
        plus, minus, _ = system.coupling
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        x = system.solve(self.load(mesh))
        assert len(substituted) == 1 and system.shut.size == plus.size > 0
        assert x[minus].tobytes() == x[plus].tobytes()

    def test_contact_identify_substitutes_once_a_solve(self, monkeypatch, coarse_measurement):
        # every state and adjoint solve of a contact identify meets eps on its
        # first substitution here: 12 substitutions for 12 solves, where one
        # refinement step a coupled solve made 24
        config = ExperimentConfig(h_measure=0.05, n_max=3)
        meas = driver.read_measurement(coarse_measurement)
        solves = oracles.record_calls(monkeypatch, fem.CoupledSystem, "solve")
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        driver.identify(config, meas)
        assert len(solves) == 12 and all(s.coupling is not None for s in solves)
        assert len(made) == 4 and len(substituted) == 12

    @pytest.mark.parametrize("kw,measure,check,stick,steps,pattern", [
        pytest.param({}, 18, 55, 0, 44, [3, 2, 0, 0], id="default"),
        pytest.param({"h_measure": 0.05, "F_b": 1e3}, 8, 70, 14, 42, [3, 2, 1, 1],
                     id="h0.05-sticking")])
    def test_gradient_check_probes_start_interpolated(
            self, monkeypatch, kw, measure, check, stick, steps, pattern):
        # each probe's one Newton step refines on the base's L from the
        # interpolant of its hat's states solved so far, the base state first:
        # 3, 2, 0 and 0 substitutions at +-coarse, +-fine, where a start at the
        # base state made them 3, 3, 2 and 2. The benchmark's round (its
        # measurement and the check) makes 73, where it made 118, with 2
        # factorisations and 44 Newton steps; with F_b = 1e3 the check makes
        # 70, not 97, its probes merging shut the base's sticking pairs from
        # a start with no reaction on them, so a fine probe takes one step
        config = ExperimentConfig(**kw)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        systems = oracles.record_calls(monkeypatch, fem.CoupledSystem, "__init__")
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        # each system solve, with the substitutions made up to its return
        solves = oracles.record_calls(monkeypatch, fem.CoupledSystem, "solve",
                                      lambda system, *args: (system, len(substituted)))
        meas = driver.synthesize_measurement(config)[0]
        assert len(substituted) == measure
        reports = oracles.record_calls(monkeypatch, solvers.SolveReport, "__init__")
        h = config.h_identify
        cli.gradient_check(config, meas, (1e-3 * h, 1e-4 * h))
        assert len(substituted) - measure == check and len(made) == 2
        assert len(reports) == 37 and sum(r.iterations for r in reports) == steps
        per_system = {}
        for (system, after), (_, before) in zip(solves, [(None, 0)] + solves):
            per_system[system] = per_system.get(system, 0) + after - before
        borrowers = [s for s in systems if s.fallback is not None]
        assert np.array_equal(np.reshape([per_system[b] for b in borrowers], (9, 4)),
                              np.broadcast_to(pattern, (9, 4)))
        assert all(b.shut.size == stick for b in borrowers)

    @pytest.mark.parametrize("load_case,substitutions", [("contact", 34), ("stretch", 29)])
    def test_identify_round_substitutions(self, monkeypatch, load_case, substitutions):
        # the benchmark's identify round, 10 iterations at h_measure 0.01 on
        # a measurement made before it, borrows no factor: no start reaches it.
        # With its measurement it makes 12 factorisations, and 23 (contact)
        # or 18 (stretch) Newton steps
        config = ExperimentConfig(load_case=load_case, n_max=10)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        meas = driver.synthesize_measurement(config)[0]
        substituted = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "solve")
        log = driver.identify(config, meas)
        assert log.aborted is None and len(log.rows) == 11
        assert len(substituted) == substitutions and len(made) == 12
        steps = sum(row["penalty_iters"] for row in log.rows)
        assert steps == {"contact": 23, "stretch": 18}[load_case]

    @staticmethod
    def probe_pair(case="penalty"):
        """The identify mesh's system coupled on ``case``'s rows, and a probe
        mesh with its stiffness: one coarse node moved by 1e-3 h."""
        cfg = ExperimentConfig()
        psi, h = cfg.initial_graph(), cfg.h_identify
        base_mesh = build_mesh(psi, h)
        mesh = build_mesh(psi.with_psi(psi.psi + 1e-3 * h * np.eye(psi.s.size)[4]), h)
        base = fem.subdomain_factor(base_mesh, fem.assemble_stiffness(base_mesh, ELAST))
        return TestBorrowedFactor.coupled(base, base_mesh, case), mesh, \
            fem.assemble_stiffness(mesh, ELAST)

    @pytest.mark.parametrize("case", ["penalty", "penalty-and-sticking"])
    def test_borrower_on_the_base_rows_takes_the_base_y(self, monkeypatch, case):
        # Y = L^-1 U and Y^T Y depend on L and the coupled rows alone: on the
        # rows of the factor's last Y a borrower takes both, read-only, and
        # solves bit for bit as a borrower that formed its own Y on them
        base, mesh, K = self.probe_pair(case)
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        assert formed == []
        assert borrowed.y is base.y and base.factor._kept[2] is base.y
        assert not base.y.flags.writeable
        assert not np.array_equal(borrowed.coupling[2], base.coupling[2])   # D moves
        base_y = base.y
        other = {"penalty": "penalty-and-sticking", "penalty-and-sticking": "penalty"}[case]
        self.coupled(base, mesh, other)   # the factor's last Y is on other rows now
        own_y = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        assert formed == [base.factor] * 2 and own_y.y is not base_y
        assert own_y.y.tobytes() == base_y.tobytes()
        rhs = self.load(mesh)
        assert borrowed.solve(rhs).tobytes() == own_y.solve(rhs).tobytes()

    def test_borrower_on_other_rows_forms_its_own_y(self, monkeypatch):
        base, mesh, K = self.probe_pair("penalty")
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh,
                                "penalty-and-sticking")
        assert formed == [base.factor] and borrowed.y is not base.y
        assert borrowed.y.shape[1] > base.y.shape[1]

    def test_recoupling_the_base_leaves_the_borrower(self):
        base, mesh, K = self.probe_pair("penalty")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, "penalty")
        y, rhs = borrowed.y, self.load(mesh)
        x = borrowed.solve(rhs)
        self.coupled(base, mesh, "penalty-and-sticking")   # the rows are the topology's
        assert base.y is not y and borrowed.y is y
        assert borrowed.solve(rhs).tobytes() == x.tobytes()

    def test_borrower_back_on_the_base_rows_forms_their_y_again(self, monkeypatch):
        # the factor keeps the last Y it formed, not the base's current one:
        # a borrower that couples on other rows and then on the base's again
        # forms the base's Y once more, bit for bit, and the factor keeps it
        # beside the base's own until it forms the next
        base, mesh, K = self.probe_pair("penalty")
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, "penalty")
        assert borrowed.y is base.y
        rhs = self.load(mesh)
        x = borrowed.solve(rhs)
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        self.coupled(borrowed, mesh, "penalty-and-sticking")
        self.coupled(borrowed, mesh, "penalty")
        assert formed == [base.factor] * 2 and borrowed.y is not base.y
        assert borrowed.y.tobytes() == base.y.tobytes()
        assert base.factor._kept[2] is borrowed.y
        assert borrowed.solve(rhs).tobytes() == x.tobytes()

    def test_fallen_back_borrower_recouples_on_its_own_l(self, monkeypatch):
        # B = 2 B_base never converges on the base's L (as in the far-block
        # test): the system swaps in a factor of its own B and forms its Y
        # there once; coupling again on the same rows takes that Y
        mesh = build_mesh(*MESHES["perturbed"])
        base = self.coupled(fem.subdomain_factor(mesh, fem.assemble_stiffness(mesh, ELAST)),
                            mesh, "penalty")
        K = fem.assemble_stiffness(mesh, IsotropicElasticity.from_young(2.0 * ELAST.E_Y,
                                                                        ELAST.nu_P))
        borrowed = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, "penalty")
        assert borrowed.y is base.y
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        rhs = self.load(mesh)
        x = borrowed.solve(rhs)
        assert borrowed.fallback is None and borrowed.factor is not base.factor
        assert formed == [borrowed.factor] and borrowed.y is not base.y
        borrowed.couple(*borrowed.coupling)
        assert formed == [borrowed.factor] and borrowed.factor._kept[2] is borrowed.y
        own = self.coupled(fem.subdomain_factor(mesh, K), mesh, "penalty")
        assert borrowed.y.tobytes() == own.y.tobytes()
        assert x.tobytes() == own.solve(rhs).tobytes()

    @pytest.mark.parametrize("case", ["penalty", "penalty-and-sticking"])
    def test_fallback_leaves_the_base_factor_alone(self, monkeypatch, case):
        # a borrower that reaches REFINE_CAP (B = 2 B_base, as in the
        # far-block test) swaps in its own factor: the base's L keeps its
        # bits and its kept Y, which the next borrower on its rows takes
        base, mesh, K = self.probe_pair(case)
        lower, y = base.factor.lu.lower.tobytes(), base.y
        rhs = self.load(mesh)
        x = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case).solve(rhs)
        far = fem.assemble_stiffness(mesh, IsotropicElasticity.from_young(2.0 * ELAST.E_Y,
                                                                          ELAST.nu_P))
        fallen = self.coupled(fem.subdomain_factor(mesh, far, base.factor), mesh, case)
        fallen.solve(rhs)
        assert fallen.fallback is None and fallen.factor is not base.factor
        assert base.factor.lu.lower.tobytes() == lower and base.factor._kept[2] is y
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        after = self.coupled(fem.subdomain_factor(mesh, K, base.factor), mesh, case)
        assert formed == [] and after.y is y
        assert after.solve(rhs).tobytes() == x.tobytes()

    @staticmethod
    def y_formed(monkeypatch, config):
        """``cli.gradient_check``'s rows; the probes' nonempty couplings and
        the Y they formed (``_trailing_solves`` calls); and the same for
        the other systems' couplings."""
        meas = driver.synthesize_measurement(config)[0]
        systems = oracles.record_calls(monkeypatch, fem.CoupledSystem, "__init__")
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        # each coupling, with the Y formed up to its return
        coupled = oracles.record_calls(
            monkeypatch, fem.CoupledSystem, "couple",
            lambda system, plus, minus, weights: (system, len(weights), len(formed)))
        h = config.h_identify
        rows = cli.gradient_check(config, meas, (1e-3 * h, 1e-4 * h))
        probes = [s for s in systems if s.fallback is not None]
        assert len(rows) == 9 and len(probes) == 36
        count = {True: [0, 0], False: [0, 0]}   # by a probe: [couplings, Y formed]
        for (s, rank, after), (_, _, before) in zip(coupled, [(None, 0, 0)] + coupled):
            if rank:
                tally = count[any(s is p for p in probes)]
                tally[0] += 1
                tally[1] += after - before
        assert count[True][1] + count[False][1] == len(formed)
        return rows, count[True], count[False]

    @pytest.mark.parametrize("h_measure,formed", [(0.05, 3), (0.01, 8)])
    def test_gradient_check_forms_y_for_the_base_state_alone(self, monkeypatch,
                                                             h_measure, formed):
        # the 36 probes couple on the base state's converged rows, the rows
        # of the factor's last Y, so every Y of a round is formed by the base
        # state's own couplings: 8 at the benchmark's configuration
        # (h_measure 0.01), where the probes formed 36 more; each probe
        # couples once, and the base's adjoint, and at h_measure 0.05 a step
        # that repeats the previous step's sets, take the kept Y
        _, by_probes, by_base = self.y_formed(monkeypatch,
                                              ExperimentConfig(h_measure=h_measure))
        couplings = {0.05: 5, 0.01: 9}[h_measure]
        assert by_probes == [36, 0] and by_base == [couplings, formed]

    def test_sticking_probes_share_one_y_bitwise(self, monkeypatch):
        # with F_b = 1e3 the base's adjoint couples on other rows than its
        # state's last step, so the first probe forms the Y of the state's
        # rows and the other 35 take it from the factor; forming a Y for
        # every coupling, as each probe once did, gives the same rows. One
        # of the base's 7 couplings repeats the previous step's sets
        config = ExperimentConfig(h_measure=0.05, F_b=1e3)
        rows, by_probes, by_base = self.y_formed(monkeypatch, config)
        assert by_probes == [36, 1] and by_base == [7, 6]
        monkeypatch.undo()
        products = fem.FactorizedSPD.products

        def fresh(factor, plus, minus):
            factor._kept = None
            return products(factor, plus, minus)

        monkeypatch.setattr(fem.FactorizedSPD, "products", fresh)
        fresh_rows, by_probes, by_base = self.y_formed(monkeypatch, config)
        assert by_probes == [36, 36] and by_base == [7, 7]
        for row, fresh_row in zip(rows, fresh_rows):
            assert row[:2] == fresh_row[:2] and np.array_equal(row[2], fresh_row[2])


class TestBandOrder:
    def test_half_bandwidth_on_the_identify_mesh(self, monkeypatch):
        # the one band of the mesh, each subdomain block in block order; the
        # all-contact, all-sticking coupling of a first PDAS step adds none
        cfg = ExperimentConfig()
        mesh = coupling_mesh("identify")
        K = fem.assemble_stiffness(mesh, ELAST)
        factored = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__",
                                        lambda factor, band, block_end: band.shape[0] - 1)
        interior = np.flatnonzero(mesh.interface_interior())
        system = fem.subdomain_factor(mesh, K)
        couple(system, mesh, interior, np.full(interior.size, np.inf), interior)
        system.solve(np.ones(mesh.free_dofs.size))
        per_column = mesh.n_vertices // (oracles.column_count(mesh) + 1)
        assert len(factored) == 1
        # a block column holds half the vertices of a mesh column
        assert factored[0] <= per_column + 3, factored


class TestPatchAndKorn:
    def test_patch_test_linear_field(self):
        """Linear displacement reproduced to 1e-8 when the interface jump is
        penalised shut and compatible boundary data is applied."""
        mesh = small_mesh(0.0625)
        A = np.array([[3.0e-4, 1.2e-4], [0.5e-4, -2.0e-4]])
        u_exact = (mesh.vertices @ A.T).reshape(-1)
        eps_c = 0.5 * (A + A.T)
        sig = ELAST.stress(eps_c[None])[0]

        def g(x, y):
            n = np.where(y > 0.25, 1.0, -1.0)  # outer normal (0, +-1)
            return sig[0, 1] * n, sig[1, 1] * n

        K = fem.assemble_stiffness(mesh, ELAST)
        # weight sits in the window where both penalty compliance and
        # factorisation roundoff stay below the 1e-8 reproduction target
        W = 1e13
        Kp = K + oracles.assemble_interface_linear(mesh, W, component="normal") \
               + oracles.assemble_interface_linear(mesh, W, component="tangent")
        f = fem.assemble_traction(mesh, g)
        free = mesh.free_row >= 0
        rhs, lift = oracles.dirichlet_lift(Kp, f, free, u_exact)
        x, _ = free_solve(Kp, rhs, oracles.column_order(mesh))
        x = x + lift
        scale = np.abs(u_exact).max()
        assert np.max(np.abs(x - u_exact)) < 1e-8 * scale

    def test_discrete_korn_poincare(self):
        # Dirichlet-reduced stiffness is positive definite
        mesh = tiny_mesh()
        K = fem.assemble_stiffness(mesh, ELAST)
        _, factor = free_solve(K, np.zeros(mesh.n_dofs), mesh.free_dofs)
        w = np.linalg.eigvalsh(factor.matrix.toarray())
        assert w.min() > 0.0


class TestHelpers:
    def test_field_gradients_linear_exact(self):
        mesh = small_mesh()
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        vals = (mesh.vertices @ A.T).reshape(-1)
        G = fem.field_gradients(mesh, vals)
        assert np.allclose(G, A, atol=1e-12)

    def test_h1_seminorm_linear_field(self):
        mesh = small_mesh()
        A = np.array([[1.0, 0.0], [0.0, -1.0]])
        vals = (mesh.vertices @ A.T).reshape(-1)
        # |grad u|^2 = 2 over area 0.5
        assert oracles.h1_seminorm(mesh, vals) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_misfit_quadratic(self):
        mesh = small_mesh()
        rng = np.random.default_rng(5)
        z = rng.standard_normal(mesh.n_dofs)
        m1 = fem.boundary_misfit(mesh, 2.0 * z, z)
        m2 = fem.boundary_misfit(mesh, 3.0 * z, z)
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)
