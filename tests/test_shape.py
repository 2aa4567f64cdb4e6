"""Boundary gradient, descent velocity, interface update and the
volumetric directional derivative against finite-difference oracles."""

import numpy as np
import pytest

from crackid import driver, fem, shape, solvers
from crackid.geometry import InterfaceGraph, build_mesh

import oracles
from oracles import constant_graph

CFG = driver.ExperimentConfig()
LAWS = CFG.cohesive()
ELAST = CFG.elasticity()
EPS = CFG.eps


def zero_fields(mesh):
    z = np.zeros(mesh.n_dofs)
    return fem.DofField(z), fem.DofField(z.copy())


# flat, perturbed and kinked lines
LINES = [
    constant_graph(0.25),
    InterfaceGraph(np.linspace(0.0, 1.0, 11),
                   0.25 + 0.03 * np.sin(2 * np.pi * np.linspace(0.0, 1.0, 11))),
    InterfaceGraph(np.array([0.0, 0.6, 1.0]), np.array([0.1, 0.3, 0.3])),
]
LINE_IDS = ["flat", "perturbed", "kinked"]


class TestPairTriangles:
    """The boundary gradient reads the pair triangles only; it must equal
    the computation on every triangle of the mesh bit for bit."""

    @pytest.mark.parametrize("psi", LINES, ids=LINE_IDS)
    def test_matches_the_full_mesh_computation(self, monkeypatch, psi):
        mesh = build_mesh(psi, 0.02)
        rng = np.random.default_rng(4)
        u, v = (fem.DofField(1e-3 * rng.standard_normal(mesh.n_dofs))
                for _ in range(2))
        args = (mesh, u, v, LAWS, ELAST, EPS)
        for fast, full in zip(shape._pair_densities(*args),
                              oracles.full_mesh_pair_densities(*args)):
            assert np.array_equal(fast, full)
        grad = shape.boundary_gradient(mesh, psi, u, v, LAWS, ELAST, EPS)
        monkeypatch.setattr(shape, "_pair_densities", oracles.full_mesh_pair_densities)
        ref = shape.boundary_gradient(mesh, psi, u, v, LAWS, ELAST, EPS)
        assert np.array_equal(grad.d3, ref.d3)
        assert (grad.d1_left, grad.d1_right) == (ref.d1_left, ref.d1_right)

    def test_matches_on_the_contact_state(self, contact_state):
        st = contact_state
        args = (st["mesh"], st["u"], st["v"], st["laws"], st["elast"], st["cfg"].eps)
        for fast, full in zip(shape._pair_densities(*args),
                              oracles.full_mesh_pair_densities(*args)):
            assert np.array_equal(fast, full)


class TestAggregate:
    """The coarse averages build the hat weights once for all fields; each
    must equal the per-node rebuild bit for bit."""

    # five columns put edge midpoints on the nodes of an 11-node line,
    # where a hat's rising and falling sides meet
    @pytest.mark.parametrize("psi,n_cols", [(psi, None) for psi in LINES]
                             + [(psi, 5) for psi in LINES[:2]],
                             ids=LINE_IDS + ["flat-midpoints-on-nodes",
                                             "perturbed-midpoints-on-nodes"])
    def test_matches_the_per_node_hats(self, psi, n_cols):
        mesh = build_mesh(psi, 0.02, n_cols=n_cols)
        xm = 0.5 * (mesh.interface_x[:-1] + mesh.interface_x[1:])
        assert np.isin(xm, psi.s).any() == (n_cols == 5)
        rng = np.random.default_rng(6)
        fields = [rng.standard_normal(mesh.pair_lengths.size) for _ in range(3)]
        got = shape._aggregate(mesh, psi.s, *fields)
        assert len(got) == 3
        for avg, field in zip(got, fields):
            assert np.array_equal(avg, oracles.loop_aggregate(mesh, psi.s, field))


class TestBoundaryGradient:
    def test_zero_fields_flat_interface(self):
        psi = constant_graph(0.25)
        mesh = build_mesh(psi, 0.05)
        u, v = zero_fields(mesh)
        grad = shape.boundary_gradient(mesh, psi, u, v, LAWS, ELAST, EPS)
        # u = v = 0 leaves only kappa*rho; a flat graph has zero curvature
        assert np.allclose(grad.d3, 0.0)
        assert grad.d1_left == 0.0 and grad.d1_right == 0.0

    def test_zero_fields_curved_interface(self):
        s = np.linspace(0.0, 1.0, 11)
        psi = InterfaceGraph(s, 0.25 + 0.03 * np.sin(2 * np.pi * s))
        mesh = build_mesh(psi, 0.02)
        u, v = zero_fields(mesh)
        grad = shape.boundary_gradient(mesh, psi, u, v, LAWS, ELAST, EPS)
        from crackid.geometry import coarse_curvature
        assert np.allclose(grad.d3, coarse_curvature(psi) * ELAST.rho_reg)

    def test_continuous_field_has_zero_energy_jump(self):
        psi = constant_graph(0.25)
        mesh = build_mesh(psi, 0.05)
        # globally affine field (interface glued): element gradients agree
        # on both sides of every pair, so all jump quantities vanish, and a
        # flat line has no curvature term
        A = np.array([[2.0e-3, -1.0e-3], [4.0e-4, 3.0e-3]])
        u = fem.DofField((mesh.vertices @ A.T).reshape(-1))
        grad = shape.boundary_gradient(mesh, psi, u, u, LAWS, ELAST, EPS)
        # the energy density itself is of order E |A|^2 ~ 1
        gu = fem.field_gradients(mesh, u.values)
        su = ELAST.stress(fem.strain_from_grad(gu))
        e = np.einsum("eab,eab->e", su, fem.strain_from_grad(gu))
        assert np.min(np.abs(e)) > 0.1
        assert np.allclose(grad.d3, 0.0, atol=1e-9)
        assert abs(grad.d1_left) < 1e-9 and abs(grad.d1_right) < 1e-9

    def test_d3_sign_agrees_with_fd(self, contact_state, contact_gradient_check):
        st = contact_state
        grad = shape.boundary_gradient(st["mesh"], st["psi"], st["u"], st["v"],
                                       st["laws"], st["elast"], st["cfg"].eps)
        # D3 is the density of the gradient against (nu . Lambda); the
        # difference quotient at the step 1e-4 h
        assert ([np.sign(d3) for d3 in grad.d3[1:-1]]
                == [np.sign(fds[-1]) for _, _, fds in contact_gradient_check])


class TestDescentVelocity:
    def _grad(self, d3, d1l=0.0, d1r=0.0):
        return shape.BoundaryGradient(d3=d3, d1_left=d1l, d1_right=d1r)

    def test_uniform_positive_d3_moves_down(self):
        g = self._grad(np.full(11, 2.0))
        lam2 = shape.descent_velocity(g, 0.01)
        assert np.allclose(lam2[1:-1], -0.001)
        assert lam2[0] == 0.0 and lam2[-1] == 0.0

    def test_zero_gradient_flag(self):
        # the loop stops at a zero velocity, which only a zero gradient gives
        g = self._grad(np.zeros(11))
        assert not shape.descent_velocity(g, 0.01).any()
        for d3, d1l in ((np.full(11, 1e-29), 0.0), (np.zeros(11), 1e-29)):
            lam2 = shape.descent_velocity(self._grad(d3, d1l), 0.01)
            assert lam2.any()

    def test_sup_norm_is_point_one_h(self, contact_state):
        st = contact_state
        grad = shape.boundary_gradient(st["mesh"], st["psi"], st["u"], st["v"],
                                       st["laws"], st["elast"], st["cfg"].eps)
        lam2 = shape.descent_velocity(grad, st["h"])
        assert np.max(np.abs(lam2)) == pytest.approx(0.1 * st["h"], rel=1e-12)

    def test_velocity_extension_vanishes_on_outer_boundary(self):
        psi = constant_graph(0.25)
        lam2 = np.full(11, 0.001)
        pts = np.array([[0.3, 0.0], [0.7, 0.5], [0.0, 0.2], [1.0, 0.4]])
        ext = shape.velocity_extension(pts, psi, lam2)
        assert np.allclose(ext[:2], 0.0)       # top/bottom: w = 0
        assert np.allclose(ext[:, 0], 0.0)     # horizontal component always 0
        on_iface = shape.velocity_extension(np.array([[0.5, 0.25]]), psi, lam2)
        assert on_iface[0, 1] == pytest.approx(0.001)


class TestUpdateInterface:
    def test_zero_velocity_identity(self):
        psi = constant_graph(0.25)
        new, clamped = shape.update_interface(psi, np.zeros(11), 0.01)
        assert np.array_equal(new.psi, psi.psi)
        assert clamped == 0

    def test_uniform_step(self):
        psi = constant_graph(0.25)
        new, clamped = shape.update_interface(psi, np.full(11, -1e-3), 0.01)
        assert np.allclose(new.psi, 0.249)
        assert clamped == 0

    def test_clamping(self):
        psi = constant_graph(0.021)
        new, clamped = shape.update_interface(psi, np.full(11, -1e-2), 0.01)
        assert np.allclose(new.psi, 0.02)
        assert clamped == 11


class TestOnePassVolumetric:
    """One call forms the state's fields once and each velocity's volume
    integrand on its support only; every derivative must equal the
    whole-mesh, one-velocity computation bit for bit."""

    @pytest.fixture(scope="class", params=["contact", "stretch"])
    def measurement(self, request, contact_measurement, stretch_measurement):
        return {"contact": contact_measurement,
                "stretch": stretch_measurement}[request.param]["meas"]

    @pytest.mark.parametrize("h", [0.05, 1.0 / 35.0, CFG.h_identify],
                             ids=["h0.05", "h1/35", "h-identify"])
    @pytest.mark.parametrize("psi", LINES, ids=LINE_IDS)
    def test_matches_the_whole_mesh_oracle(self, measurement, psi, h):
        mesh = build_mesh(psi, h)
        u, _, op = solvers.solve_penalty_state(
            mesh, LAWS, ELAST, CFG.traction(measurement.load_case), EPS)
        v = solvers.solve_adjoint(op, u, driver.interp_measurement(mesh, measurement))
        # every interior hat, a smooth field that is nonzero on every
        # triangle, and the zero field, nonzero on none
        vels = list(np.eye(psi.s.size)[1:-1])
        vels += [1.0 + 0.5 * np.sin(2.0 * np.pi * psi.s), np.zeros(psi.s.size)]
        nodal = shape.velocity_extension(mesh.vertices, psi, vels[-2])
        assert np.all(np.any(nodal[mesh.triangles, 1] != 0.0, axis=1))
        args = (mesh, psi, u, v, LAWS, ELAST, EPS)
        got = shape.directional_derivative_volumetric(*args, vels)
        ref = [oracles.whole_mesh_volumetric_derivative(*args, lam2) for lam2 in vels]
        assert len(got) == len(vels)
        assert np.array_equal(got, ref)
        assert got[-1] == 0.0 and np.all(np.array(got[:-1]) != 0.0)


class TestVolumetricDerivative:
    def test_zero_velocity(self, contact_state):
        st = contact_state
        d = shape.directional_derivative_volumetric(
            st["mesh"], st["psi"], st["u"], st["v"], st["laws"], st["elast"],
            st["cfg"].eps, [np.zeros(11)])
        assert d == [0.0]

    def test_flat_translation_perimeter_invariance(self):
        psi = constant_graph(0.25)
        mesh = build_mesh(psi, 0.05)
        u, v = zero_fields(mesh)
        (d,) = shape.directional_derivative_volumetric(mesh, psi, u, v, LAWS,
                                                       ELAST, EPS, [np.full(11, 1.0)])
        assert d == pytest.approx(0.0, abs=1e-14)

    def test_matches_central_fd(self, contact_gradient_check):
        """The decisive check: analytic derivative vs re-meshed re-solved FD
        at the step 1e-4 h, for every interior node."""
        rels = [abs(ana - fds[-1]) / max(abs(ana), abs(fds[-1]))
                for _, ana, fds in contact_gradient_check]
        assert len(rels) == 9 and max(rels) <= 0.05

    def test_linearity_in_velocity(self, contact_state):
        st = contact_state
        args = (st["mesh"], st["psi"], st["u"], st["v"], st["laws"], st["elast"],
                st["cfg"].eps)
        h1 = np.zeros(11)
        h1[2] = 1.0
        h2 = np.zeros(11)
        h2[6] = 1.0
        d1, d2, d12 = shape.directional_derivative_volumetric(
            *args, [h1, h2, 2.0 * h1 + 3.0 * h2])
        assert d12 == pytest.approx(2.0 * d1 + 3.0 * d2, rel=1e-9)

    def test_consistency_of_forms_gap_shrinks(self, contact_measurement):
        """Volumetric vs coarse Hadamard form within 10%, gap shrinking with
        refinement, for hat velocities away from the active-set transition."""
        meas = contact_measurement["meas"]
        cfg = CFG
        psi = cfg.initial_graph()
        gaps = {}
        for h in (1.0 / 50.0, 1.0 / 100.0):
            mesh = build_mesh(psi, h)
            u, _, op = solvers.solve_penalty_state(mesh, LAWS, ELAST,
                                                   cfg.traction(), EPS)
            zv = driver.interp_measurement(mesh, meas)
            v = solvers.solve_adjoint(op, u, zv)
            grad = shape.boundary_gradient(mesh, psi, u, v, LAWS, ELAST, EPS)
            # contact/penetration sits right of x = 0.8; probe the open part
            rels = []
            hats = np.eye(11)[2:6]
            anas = shape.directional_derivative_volumetric(
                mesh, psi, u, v, LAWS, ELAST, EPS, hats)
            for hat, ana in zip(hats, anas):
                est = oracles.hadamard_estimate(psi.s, grad, hat)
                rels.append(abs(ana - est) / max(abs(ana), abs(est)))
            gaps[h] = max(rels)
            assert gaps[h] <= 0.10
        assert gaps[1.0 / 100.0] < gaps[1.0 / 50.0]

    def test_descent_property_over_run(self, contact_run):
        """J decreases across >= 90% of the first 50 identification steps."""
        J = contact_run.column("J")[:51]
        frac = np.mean(np.diff(J) < 0.0)
        assert frac >= 0.9


def normwise_gap(psi, h, load, meas):
    """max_k |H D3_k - dJ_vol(hat_k)| / max_k |dJ_vol(hat_k)| over the
    interior hats of ``psi``, on its mesh of size ``h`` under ``load``:
    the loop's boundary gradient against the volumetric derivative that
    criterion 5 ties to finite differences, in magnitude."""
    mesh = build_mesh(psi, h)
    u, _, op = solvers.solve_penalty_state(mesh, LAWS, ELAST, CFG.traction(load), EPS)
    v = solvers.solve_adjoint(op, u, driver.interp_measurement(mesh, meas))
    grad = shape.boundary_gradient(mesh, psi, u, v, LAWS, ELAST, EPS)
    hats = np.eye(psi.s.size)[1:-1]
    vol = np.array(shape.directional_derivative_volumetric(
        mesh, psi, u, v, LAWS, ELAST, EPS, hats))
    est = np.array([oracles.hadamard_estimate(psi.s, grad, hat) for hat in hats])
    return np.max(np.abs(est - vol)) / np.max(np.abs(vol))


class TestGradientMagnitude:
    """The boundary gradient the loop descends along agrees with the
    volumetric derivative in magnitude over all nine interior hats, not
    only in sign: within 10% on the flat start, the gap shrinking with h,
    and on the iterates of the reference runs."""

    @pytest.mark.parametrize("load", ["contact", "stretch"])
    def test_flat_start_gap_shrinks_with_h(self, request, load):
        meas = request.getfixturevalue(load + "_measurement")["meas"]
        gaps = [normwise_gap(CFG.initial_graph(), h, load, meas)
                for h in (0.05, 0.02, CFG.h_identify, 0.008)]
        assert max(gaps) <= 0.10, gaps
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("load", ["contact", "stretch"])
    def test_iterate_gap_within_ten_percent(self, request, load, n):
        run = request.getfixturevalue(load + "_run")
        meas = request.getfixturevalue(load + "_measurement")["meas"]
        gap = normwise_gap(run.snapshots[n], CFG.h_identify, load, meas)
        assert gap <= 0.10, gap
