"""PDAS, penalty state and adjoint solvers against dense oracles and the
complementarity/consistency properties."""

import numpy as np
import pytest
import scipy.sparse as sp

from crackid import driver, fem, solvers
from crackid.geometry import HEIGHT, build_mesh, uniform_graph

import oracles
from oracles import constant_graph

CFG = driver.ExperimentConfig()
LAWS = CFG.cohesive()
ELAST = CFG.elasticity()
G_CONTACT = CFG.traction("contact")
G_STRETCH = CFG.traction("stretch")
ZERO_LOAD = lambda x, y: (0.0 * x, 0.0 * x)  # noqa: E731


def tiny_mesh():
    return build_mesh(constant_graph(0.25, n_nodes=3), 0.125,
                      n_cols=2, n_rows_below=1, n_rows_above=1)


def l2_interface(mesh, nodal):
    w = mesh.interface_nodal_weights()
    return float(np.sqrt(np.sum(w * np.asarray(nodal) ** 2)))


class TestPdas:
    def test_zero_load(self):
        mesh = build_mesh(constant_graph(0.25), 0.05)
        z, aset, rep = solvers.solve_vi_pdas(mesh, LAWS, ELAST, ZERO_LOAD)
        assert np.max(np.abs(z.values)) == 0.0
        assert rep.iterations == 1
        # at zero load the closed faces carry the cohesive traction, so the
        # contact multiplier balances it at -K_c/kappa on interior nodes
        interior = mesh.interface_interior()
        assert np.allclose(aset.lam[interior], -LAWS.K_c / LAWS.kappa, rtol=1e-9)
        assert np.all(aset.lam <= 0.0)

    def test_contact_case(self, contact_measurement):
        aset = contact_measurement["aset"]
        rep = contact_measurement["report"]
        mesh = contact_measurement["mesh"]
        z = contact_measurement["z"]
        assert rep.iterations <= 10
        jump2 = mesh.jump(z.values, 1)
        # complementarity and feasibility at exit
        assert np.max(np.abs(aset.lam * jump2)) <= 1e-8 * ELAST.mu_L
        assert np.min(jump2) >= -1e-12 * mesh.h
        assert np.all(aset.lam <= 0.0)
        # stationarity on the inactive set
        assert rep.residual <= 1e-9
        # contact confined to the right part, open region on the left
        x = mesh.interface_x
        assert np.any(aset.active)
        assert np.min(x[aset.active]) > 0.5
        left = (x > 0.05) & (x < 0.4)
        assert np.all(jump2[left] > 0.0)

    def test_stretch_case_fully_open(self, stretch_measurement):
        aset = stretch_measurement["aset"]
        assert not np.any(aset.active)
        assert np.all(aset.lam == 0.0)

    def test_deterministic(self):
        mesh = build_mesh(constant_graph(0.25), 0.05)
        out1 = solvers.solve_vi_pdas(mesh, LAWS, ELAST, G_CONTACT)
        out2 = solvers.solve_vi_pdas(mesh, LAWS, ELAST, G_CONTACT)
        assert np.array_equal(out1[0].values, out2[0].values)
        assert np.array_equal(out1[1].lam, out2[1].lam)
        assert out1[2].iterations == out2[2].iterations
        assert out1[2].active_sizes == out2[2].active_sizes


def random_line(rng, h, rough):
    """An admissible coarse line: a smooth one of 2-5 nodes within 0.1 of
    mid-height, or a rough one with H down to 2h and heights anywhere in
    the 2h margin."""
    if rough:
        return uniform_graph(rng.uniform(2.0 * h, HEIGHT - 2.0 * h,
                                         rng.integers(5, int(0.5 / h) + 2)))
    return uniform_graph(0.25 + rng.uniform(-0.1, 0.1, rng.integers(2, 6)))


class TestPdasRandomLines:
    """Both normal laws converge on seeded random lines: every PDAS state
    meets criterion 1's checks, and the penalty state at eps = 1e-8
    penetrates on the PDAS contact set, by eps max|lambda| to within
    criterion 4's eps E / h."""

    @pytest.mark.parametrize("seed,h,rough", [(101, 0.05, False), (102, 0.05, True),
                                              (103, 1.0 / 35.0, False),
                                              (104, 1.0 / 35.0, True)])
    def test_random_lines_meet_the_complementarity_checks(self, seed, h, rough):
        rng = np.random.default_rng(seed)
        eps = 1e-8
        for _ in range(10):
            mesh = build_mesh(random_line(rng, h, rough), h)
            for g in (G_CONTACT, G_STRETCH):
                z, aset, _ = solvers.solve_vi_pdas(mesh, LAWS, ELAST, g)
                jump2 = mesh.jump(z.values, 1)
                assert np.all(aset.lam <= 0.0)
                assert np.min(jump2) >= -1e-12 * h
                assert np.max(np.abs(aset.lam * jump2)) <= 1e-8 * ELAST.mu_L
                u, _, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, g, eps)
                pen = mesh.jump(u.values, 1)
                assert np.array_equal(pen < 0.0, aset.active)
                if np.any(aset.active):
                    ratio = -np.min(pen) / (eps * np.max(np.abs(aset.lam)))
                    assert abs(ratio - 1.0) <= eps * ELAST.E_Y / h

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_clamped_rough_line_under_stretch_converges(self, seed):
        # residuals of 1.7e-10 to 2.5e-10 of the load: above a bound
        # relative to the load alone, at a backward error of roundoff
        h = 0.02
        rng = np.random.default_rng(seed)
        psi = np.clip(0.25 + 0.45 * rng.uniform(-1.0, 1.0, 51), 2.0 * h, HEIGHT - 2.0 * h)
        mesh = build_mesh(uniform_graph(psi), h)
        u, rep, op = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_STRETCH, 1e-8)
        assert rep.residual > 1e-10
        backward = rep.residual * op.Fnorm / (
            op.Fnorm + op.system.max_abs * np.linalg.norm(u.values))
        assert backward <= np.finfo(float).eps
        assert np.min(mesh.jump(u.values, 1)) >= 0.0


class TestPenaltyState:
    def test_zero_load(self):
        mesh = build_mesh(constant_graph(0.25), 0.05)
        u, rep, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, ZERO_LOAD, 1e-8)
        # cohesive closing traction produces a tiny closing state; the
        # contact-free solution at zero external load is zero displacement
        # up to the penalty compliance of the cohesive pull
        assert np.max(np.abs(u.values)) < 1e-5
        assert rep.residual <= 1e-10

    def test_large_eps_matches_dense_fixed_point(self):
        mesh = tiny_mesh()
        eps = 1e3
        u, rep, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, eps)
        u_ref = oracles.dense_penalty_solve(mesh, LAWS, ELAST, G_CONTACT, eps)
        scale = np.max(np.abs(u_ref))
        assert np.max(np.abs(u.values - u_ref)) < 1e-8 * scale

    def test_small_eps_matches_dense_fixed_point(self):
        mesh = tiny_mesh()
        eps = 1e-8
        u, _, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, eps)
        u_ref = oracles.dense_penalty_solve(mesh, LAWS, ELAST, G_CONTACT, eps)
        assert np.max(np.abs(u.values - u_ref)) < 1e-8 * np.max(np.abs(u_ref))

    def test_apriori_penetration_estimate(self):
        # || [[[u]]_2]^- || <= K sqrt(eps), K measured at eps = 1e-4
        mesh = build_mesh(CFG.true_graph(), 1.0 / 25.0)
        u4, _, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-4)
        K = l2_interface(mesh, np.minimum(0.0, mesh.jump(u4.values, 1))) / np.sqrt(1e-4)
        u8, _, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        pen8 = l2_interface(mesh, np.minimum(0.0, mesh.jump(u8.values, 1)))
        assert pen8 <= K * np.sqrt(1e-8)

    def test_penalty_consistency_monotone(self, penalty_sweep):
        dh1 = [r["dist_h1"] for r in penalty_sweep]
        assert all(a >= b - 1e-14 for a, b in zip(dh1, dh1[1:]))

    def test_residual_is_true_nonlinear_residual(self):
        mesh = build_mesh(constant_graph(0.25), 0.05)
        u, rep, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        K = fem.assemble_stiffness(mesh, ELAST)
        F = fem.assemble_traction(mesh, G_CONTACT)
        r = K @ u.values + oracles.interface_traction_vector(mesh, LAWS, u.values,
                                                             eps=1e-8) - F
        free = oracles.free_dofs(mesh)
        rel = np.linalg.norm(r[free]) / np.linalg.norm(F[free])
        assert rel <= 1e-10
        assert rep.residual == pytest.approx(rel, rel=1e-6)

    def test_deterministic(self):
        mesh = build_mesh(constant_graph(0.25), 0.05)
        u1, r1, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        u2, r2, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        assert np.array_equal(u1.values, u2.values)
        assert r1.residual == r2.residual and r1.iterations == r2.iterations


def jump_newton_matrix(st):
    """K plus the w/eps jump mass on the contact state's penetration set."""
    closed = st["report"].configuration[0]
    return st["op"].K + oracles.interface_nodal_jump_matrix(
        st["mesh"], st["op"].w / st["cfg"].eps, np.flatnonzero(closed))


def rank(system, plus, minus, weights):
    """What ``oracles.record_calls`` lists of a ``CoupledSystem.couple``
    call: the rank of the coupling, the empty one of a new system included."""
    return len(weights)


class TestSolvePath:
    def test_empty_merge_is_the_dirichlet_selection(self):
        # with nothing coupled, the operator solves the plain free-dof
        # selection K[free][:, free], zero on the Dirichlet dofs
        mesh = build_mesh(constant_graph(0.25), 0.05)
        op = solvers._InterfaceOperator(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        none = np.zeros(op.interior.size, dtype=bool)
        x = op.solve(op.F, none, none)
        free = mesh.free_dofs
        ref = oracles.full_band_solve(op.K[free][:, free], op.F[free])
        assert np.linalg.norm(x[free] - ref) <= 1e-12 * np.linalg.norm(ref)
        clamped = oracles.dirichlet_vertices(mesh)
        assert not x[2 * clamped].any()
        assert not x[2 * clamped + 1].any()
        assert op.system.coupling is None

    def test_unmerged_residual_reads_k_alone(self, contact_state):
        # an unmerged penalty step forms r = f - K u, not f - (K + J) u: the
        # loop reads r only on x1 rows, where J has no entry
        st = contact_state
        assert st["report"].configuration[0].any()
        u = st["u"].values
        with_jump = jump_newton_matrix(st) @ u
        assert np.array_equal((st["op"].K @ u)[0::2], with_jump[0::2])
        assert not np.array_equal((st["op"].K @ u)[1::2], with_jump[1::2])

    def test_unmerged_steps_build_no_sparse_newton_matrix(self, monkeypatch,
                                                          contact_state):
        # seeded with its converged sets, the state solve is one step; it
        # factors K once, couples the closed pairs on that factor without
        # adding a sparse J to K, and the adjoint couples them again, on the
        # Y the factor kept
        st = contact_state

        def refuse(*args):
            raise AssertionError("sparse K + J built")

        monkeypatch.setattr(sp.csr_matrix, "__add__", refuse)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        ranks = oracles.record_calls(monkeypatch, fem.CoupledSystem, "couple", rank)
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        u, rep, op = solvers.solve_penalty_state(
            st["mesh"], st["laws"], st["elast"], st["g"], st["cfg"].eps,
            start=st["report"].configuration)
        assert rep.iterations == 1 and np.array_equal(u.values, st["u"].values)
        solvers.solve_adjoint(op, u, st["z_vec"])
        closed = int(np.count_nonzero(st["report"].configuration[0]))
        assert len(made) == 1 and ranks == [0, closed, closed] and closed > 0
        assert formed == [op.system.factor]

    def test_cold_contact_state_and_adjoint_factor_once(self, monkeypatch,
                                                        contact_state):
        # every Newton step of the cold contact state, the stick-merged
        # first ones included, and its adjoint couple onto one band factor
        st = contact_state
        factored = oracles.record_calls(monkeypatch, fem, "cholesky_banded",
                                        lambda band, **kwargs: band.shape)
        ranks = oracles.record_calls(monkeypatch, fem.CoupledSystem, "couple", rank)
        u, rep, op = solvers.solve_penalty_state(
            st["mesh"], st["laws"], st["elast"], st["g"], st["cfg"].eps)
        v = solvers.solve_adjoint(op, u, st["z_vec"])
        assert len(factored) == 1
        assert rep.iterations > 2 and len(ranks) > 2
        assert np.array_equal(u.values, st["u"].values)
        assert np.array_equal(v.values, st["v"].values)

    def test_adjoint_reuses_state_factor_bitwise(self, monkeypatch, contact_state):
        # the adjoint couples on the state's factor and takes the Y of the
        # state's last step; on a fresh operator's factor it forms its own
        st = contact_state
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        ranks = oracles.record_calls(monkeypatch, fem.CoupledSystem, "couple", rank)
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        u, _, op = solvers.solve_penalty_state(
            st["mesh"], st["laws"], st["elast"], st["g"], st["cfg"].eps,
            start=st["report"].configuration)
        fresh_op = solvers._InterfaceOperator(st["mesh"], st["laws"],
                                              st["elast"], st["g"], st["cfg"].eps)
        assert len(made) == 2 and len(ranks) == 3 and len(formed) == 1
        reused = solvers.solve_adjoint(op, u, st["z_vec"])
        assert len(made) == 2 and len(ranks) == 4 and len(formed) == 1
        fresh = solvers.solve_adjoint(fresh_op, u, st["z_vec"])
        assert len(made) == 2 and len(ranks) == 5 and formed[1] is fresh_op.system.factor
        assert np.array_equal(reused.values, fresh.values)

    def test_sticking_state_returns_no_factor(self, monkeypatch):
        # at zero load the interior nodes away from the clamped ends stick,
        # so the final Newton matrix merges their x1 pairs: the adjoint's
        # unmerged matrix is another coupling on the same band factor
        mesh = build_mesh(constant_graph(0.25), 0.05)
        u, _, op = solvers.solve_penalty_state(mesh, LAWS, ELAST, ZERO_LOAD, 1e-8)
        slip = mesh.jump(u.values, 0)[mesh.interface_interior()]
        assert np.count_nonzero(slip == 0.0) > slip.size // 2
        assert np.isinf(op.system.coupling[2]).sum() == np.count_nonzero(slip == 0.0)
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        ranks = oracles.record_calls(monkeypatch, fem.CoupledSystem, "couple", rank)
        solvers.solve_adjoint(op, u, np.zeros(mesh.n_dofs))
        assert made == [] and len(ranks) == 1


@pytest.fixture(scope="module")
def coarse_problems():
    """Config and measurement per load case on the coarse h = 0.04 mesh,
    for six identification iterations."""
    out = {}
    for load_case in ("contact", "stretch"):
        cfg = driver.ExperimentConfig(h_measure=0.04, n_max=6, load_case=load_case)
        out[load_case] = (cfg, driver.synthesize_measurement(cfg)[0])
    return out


class TestFactorReuse:
    """Each mesh is factored once, and every Newton step and adjoint
    couples onto it; a coupling on the rows of the factor's last Y (a step
    whose (closed, stick) sets repeat the previous step's) takes that Y."""

    @pytest.mark.parametrize("load_case,couplings", [("contact", 18), ("stretch", 1)])
    def test_one_factorisation_per_mesh(self, monkeypatch, coarse_problems,
                                        load_case, couplings):
        # 12 Newton steps on 7 meshes each. Contact couples pairs 18 times
        # (each step's closed pairs, the 21 sticking pairs of the first step,
        # and each adjoint's closed pairs) on 10 distinct rows, so it forms
        # 10 Y; stretch couples only the first step's sticking pairs
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        ranks = oracles.record_calls(monkeypatch, fem.CoupledSystem, "couple", rank)
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        log = driver.identify(*coarse_problems[load_case])
        steps = sum(row["penalty_iters"] for row in log.rows)
        assert log.aborted is None and steps == 12
        assert len(made) == len(log.rows) == 7
        assert np.count_nonzero(ranks) == couplings
        assert len(formed) == {"contact": 10, "stretch": 1}[load_case]

    @pytest.mark.parametrize("load_case,taken", [("contact", 8), ("stretch", 0)])
    def test_kept_factor_solves_as_a_fresh_one(self, monkeypatch, coarse_problems,
                                               load_case, taken):
        # a coupling that takes the factor's kept Y solves bit for bit as one
        # that forms its own Y on the same rows. Contact takes it 8 times (of
        # 18 couplings); stretch couples pairs only once, so it takes none
        cfg, meas = coarse_problems[load_case]
        asked = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "products")
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        plain = driver.identify(cfg, meas)
        assert len(asked) - len(formed) == taken
        monkeypatch.undo()
        products = fem.FactorizedSPD.products

        def fresh(factor, plus, minus):
            factor._kept = None
            return products(factor, plus, minus)

        monkeypatch.setattr(fem.FactorizedSPD, "products", fresh)
        asked = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "products")
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")
        fresh_log = driver.identify(cfg, meas)
        assert len(formed) == len(asked) > 0
        for name in driver.IterationLog.CSV_COLUMNS:
            assert np.array_equal(fresh_log.column(name), plain.column(name)), name
        last = max(plain.snapshots)
        assert np.array_equal(fresh_log.snapshots[last].psi, plain.snapshots[last].psi)


class TestWarmStart:
    """A state solve seeded with a converged configuration ends on the
    matrix a cold solve ends on, so it returns the very same values."""

    def _base(self):
        psi = constant_graph(0.25)
        mesh = build_mesh(psi, 0.05)
        u, rep, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        closed, sgn, _ = rep.configuration
        # a seed worth the name: nodes penetrate and slip
        assert closed.any() and np.any(sgn != 0.0)
        return psi, mesh, u, rep

    def test_own_configuration_is_one_step(self):
        _, mesh, u, rep = self._base()
        u2, rep2, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT,
                                                  1e-8, start=rep.configuration)
        assert rep2.iterations == 1 < rep.iterations
        assert np.array_equal(u2.values, u.values)
        assert rep2.residual == rep.residual
        for a, b in zip(rep2.configuration, rep.configuration):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k,sign", [(2, 1.0), (5, -1.0), (8, 1.0)])
    def test_perturbed_interface_matches_cold(self, k, sign):
        psi, mesh, _, rep = self._base()
        hat = np.zeros(psi.s.size)
        hat[k] = sign * 1e-4 * mesh.h
        moved = build_mesh(psi.with_psi(psi.psi + hat), mesh.h)
        cold, rep_c, _ = solvers.solve_penalty_state(moved, LAWS, ELAST,
                                                     G_CONTACT, 1e-8)
        warm, rep_w, _ = solvers.solve_penalty_state(moved, LAWS, ELAST,
                                                     G_CONTACT, 1e-8,
                                                     start=rep.configuration)
        assert np.array_equal(warm.values, cold.values)
        assert rep_w.residual == rep_c.residual
        assert rep_w.iterations < rep_c.iterations


@pytest.fixture(scope="module")
def penalty_sweep(contact_measurement):
    """Penalty states over eps in {1e-2, 1e-4, 1e-6, 1e-8} on a 1/25 mesh,
    with the PDAS reference on the same mesh."""
    mesh = build_mesh(CFG.true_graph(), 1.0 / 25.0)
    z, aset, _ = solvers.solve_vi_pdas(mesh, LAWS, ELAST, G_CONTACT)
    rows = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        u, rep, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, eps)
        pen = l2_interface(mesh, np.minimum(0.0, mesh.jump(u.values, 1)))
        rows.append(dict(eps=eps, u=u, pen=pen,
                         dist_h1=oracles.h1_seminorm(mesh, u.values - z.values)))
    return rows


class TestAdjoint:
    def test_zero_misfit_gives_zero(self, contact_state):
        st = contact_state
        z_eq_u = st["u"].values.copy()
        v = solvers.solve_adjoint(st["op"], st["u"], z_eq_u)
        assert np.max(np.abs(v.values)) == 0.0

    def test_dense_oracle(self):
        mesh = tiny_mesh()
        eps = 1e-8
        u, _, op = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, eps)
        rng = np.random.default_rng(2)
        z = np.zeros(mesh.n_dofs)
        obs = mesh.observation_vertices
        z[2 * obs] = 0.01 * rng.standard_normal(obs.size)
        z[2 * obs + 1] = 0.01 * rng.standard_normal(obs.size)
        v = solvers.solve_adjoint(op, u, z)
        v_ref = oracles.dense_adjoint_solve(mesh, LAWS, ELAST, u.values, z, eps)
        assert np.max(np.abs(v.values - v_ref)) < 1e-10 * max(np.max(np.abs(v_ref)), 1e-30)

    def test_system_symmetry(self, contact_state):
        st = contact_state
        A = jump_newton_matrix(st)
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()

    def test_linearity_in_misfit(self, contact_state):
        st = contact_state
        v1 = solvers.solve_adjoint(st["op"], st["u"], st["z_vec"])
        # scale the misfit: z' = u - 3 (u - z)  =>  v' = 3 v
        z_scaled = st["u"].values - 3.0 * (st["u"].values - st["z_vec"])
        v3 = solvers.solve_adjoint(st["op"], st["u"], z_scaled)
        assert np.allclose(v3.values, 3.0 * v1.values, rtol=1e-9, atol=1e-14)


class TestMultiplierRecovery:
    def test_pointwise_formula(self):
        mesh = tiny_mesh()
        eps = 1e-6
        vals = np.zeros(mesh.n_dofs)
        vals[2 * mesh.iface_plus[1] + 1] = 0.5       # open node
        u = fem.DofField(vals)
        lam = oracles.recover_multiplier(mesh, u, eps)
        assert lam[1] == 0.0
        vals[2 * mesh.iface_plus[1] + 1] = -eps * 4.0  # penetrating node
        lam = oracles.recover_multiplier(mesh, fem.DofField(vals), eps)
        assert lam[1] == pytest.approx(-4.0)
        assert np.all(lam <= 0.0)

    def test_matches_pdas_multiplier(self, contact_measurement):
        mesh = contact_measurement["mesh"]
        aset = contact_measurement["aset"]
        u, _, _ = solvers.solve_penalty_state(mesh, LAWS, ELAST, G_CONTACT, 1e-8)
        lam_est = oracles.recover_multiplier(mesh, u, 1e-8)
        num = l2_interface(mesh, lam_est - aset.lam)
        den = l2_interface(mesh, aset.lam)
        assert num <= 0.10 * den
