"""Acceptance criteria for the identification artifact.

One test per criterion; each prints a PASS/FAIL line (echoed again in the
terminal summary) with the measured quantities, then asserts the stated
tolerances. Criterion 4 checks the penalty convergence law the discrete
problem attains. The penetration saturates at the unconstrained elastic
overlap while eps >~ 1e-4 and the penalty mass w/eps is weak next to the
elastic stiffness. As eps -> 0 it becomes eps times the contact multiplier,
a first-order law. The test docstring derives both tolerances.
"""

import time

import numpy as np

from conftest import record_acceptance

from crackid import cli, driver, fem, laws as laws_mod, solvers
from crackid.geometry import build_mesh

import oracles
from oracles import constant_graph


def test_criterion_1_measurement_solve(contact_config, contact_measurement, tmp_path):
    """Contact-case PDAS at h = 1e-2: iteration budget, complementarity,
    and the open-left / contact-right interface picture."""
    t0 = time.time()
    mesh = contact_measurement["mesh"]
    z = contact_measurement["z"]
    aset = contact_measurement["aset"]
    report = contact_measurement["report"]

    jump2 = mesh.jump(z.values, 1)
    comp = float(np.max(np.abs(aset.lam * jump2)))
    mu = driver.ExperimentConfig().elasticity().mu_L
    x = mesh.interface_x
    left_open = bool(np.all(jump2[(x > 0.05) & (x < 0.4)] > 0.0))
    right_closed = bool(np.any(aset.active) and np.min(x[aset.active]) > 0.5)

    from crackid import svgplot
    svg = tmp_path / "deformed.svg"
    svgplot.deformed_configuration(str(svg), mesh, z, aset.active, contact_config.kappa)
    import xml.etree.ElementTree as ET
    ET.parse(str(svg))
    wall = time.time() - t0

    ok = (report.iterations <= 10 and comp <= 1e-8 * mu
          and left_open and right_closed and wall <= 60.0)
    record_acceptance(
        "criterion-1", ok,
        "PDAS iters=%d, max|lam*jump|=%.2e (tol %.2e), open-left=%s, "
        "contact-right=%s" % (report.iterations, comp, 1e-8 * mu,
                              left_open, right_closed))
    assert report.iterations <= 10
    assert comp <= 1e-8 * mu
    assert left_open and right_closed
    assert wall <= 60.0


def test_criterion_2_identification_contact(contact_run):
    """Contact identification: min J ratio <= 2%, min shape-error <= 60%."""
    minJ = contact_run.min_ratio("J_ratio")
    minE = contact_run.min_ratio("shape_error_ratio")
    ok = minJ <= 0.02 and minE <= 0.60 and contact_run.aborted is None
    record_acceptance("criterion-2", ok,
                      "min J ratio %.3f%% (<= 2%%), min shape-error ratio "
                      "%.1f%% (<= 60%%)" % (100 * minJ, 100 * minE))
    assert contact_run.aborted is None
    assert minJ <= 0.02
    assert minE <= 0.60


def test_criterion_3_identification_stretch(stretch_run):
    """Stretch identification: min J ratio <= 1%, min shape-error <= 35%."""
    minJ = stretch_run.min_ratio("J_ratio")
    minE = stretch_run.min_ratio("shape_error_ratio")
    ok = minJ <= 0.01 and minE <= 0.35 and stretch_run.aborted is None
    record_acceptance("criterion-3", ok,
                      "min J ratio %.3f%% (<= 1%%), min shape-error ratio "
                      "%.1f%% (<= 35%%)" % (100 * minJ, 100 * minE))
    assert stretch_run.aborted is None
    assert minJ <= 0.01
    assert minE <= 0.35


def test_criterion_4_penalty_convergence_law():
    """Penalty convergence law on the h = 1/25 true-interface mesh.

    The penalty term puts the nodal jump mass w/eps on the penetration set,
    so a converged state has nodal penetration exactly eps * lambda_eps,
    with lambda_eps = recover_multiplier(mesh, u_eps, eps). The penetration
    norm pen(eps) = sqrt(sum w min(0, [[u]]_2)^2) passes through two regimes:

    * eps >~ 1e-4: w/eps is weak next to the elastic stiffness (of order E)
      and pen saturates at the unconstrained overlap (about 1e-2);
    * eps -> 0: lambda_eps -> lambda_PDAS and pen = eps ||lambda_PDAS||_w,
      a first-order law. The theory's sqrt(eps) rate is only an upper
      bound, asserted by test_apriori_penetration_estimate.

    To first order the penalty spring w/eps in series with the interface
    jump stiffness (of order E) changes the contact force by the relative
    amount delta(eps) = eps E / w (w the smallest interior nodal weight),
    about 2% at eps = 1e-8 here. The asserted law, in the penalty-dominated
    regime eps in {1e-8, 1e-9, 1e-10} where w/eps >= 50 E:

    (a) the fitted log-log slope of pen obeys |slope - 1| <= delta(1e-8).
        The slope error is the spread of ln(1 - delta) over the fit range,
        at most about delta(1e-8), divided by the range's width ln(100) > 1;
    (b) the ratio pen / (eps ||lambda_PDAS||_w) at eps = 1e-10 obeys
        |ratio - 1| <= delta(1e-10). This catches a penalty scaled wrongly
        by a constant factor (a missing w, say), which (a) alone would pass.

    The H1 distance to the PDAS reference must decrease monotonically over
    the whole eps list, and the whole check must finish within 300 s.
    """
    t0 = time.time()
    cfg = driver.ExperimentConfig()
    laws, elast, g = cfg.cohesive(), cfg.elasticity(), cfg.traction()
    mesh = build_mesh(cfg.true_graph(), 1.0 / 25.0)
    z, aset, _ = solvers.solve_vi_pdas(mesh, laws, elast, g)
    w = mesh.interface_nodal_weights()
    lam_norm = float(np.sqrt(np.sum(w * aset.lam ** 2)))

    eps_list = (1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10)
    asym = eps_list[3:]
    pens, dists = [], []
    for eps in eps_list:
        u, _, _ = solvers.solve_penalty_state(mesh, laws, elast, g, eps)
        pens.append(float(np.sqrt(np.sum(
            w * np.minimum(0.0, mesh.jump(u.values, 1)) ** 2))))
        dists.append(oracles.h1_seminorm(mesh, u.values - z.values))
    slope = float(np.polyfit(np.log(asym), np.log(pens[3:]), 1)[0])
    ratio = pens[-1] / (asym[-1] * lam_norm)
    delta = np.array(asym) * elast.E_Y / w[mesh.interface_interior()].min()
    slope_tol, ratio_tol = float(delta[0]), float(delta[-1])
    monotone = bool(np.all(np.diff(dists) <= 1e-14))
    wall = time.time() - t0

    ok = (abs(slope - 1.0) <= slope_tol and abs(ratio - 1.0) <= ratio_tol
          and monotone and wall <= 300.0)
    record_acceptance("criterion-4", ok,
                      "asymptotic slope %.4f (|slope-1| <= %.1e), "
                      "pen/(eps*|lam|) %.6f at eps=1e-10 (|ratio-1| <= %.1e), "
                      "distances monotone=%s"
                      % (slope, slope_tol, ratio, ratio_tol, monotone))
    assert monotone
    assert wall <= 300.0
    assert abs(slope - 1.0) <= slope_tol
    assert abs(ratio - 1.0) <= ratio_tol


def test_criterion_5_gradient_check(contact_config, contact_measurement):
    """Volumetric shape derivative vs central finite differences at step
    1e-4*h for every interior coarse node of the contact configuration,
    by the check the CLI runs (``cli.gradient_check``)."""
    t0 = time.time()
    step = 1e-4 * contact_config.h_identify
    rels = [abs(ana - fd) / max(abs(ana), abs(fd), 1e-30)
            for _, ana, (fd,) in cli.gradient_check(
                contact_config, contact_measurement["meas"], (step,))]
    wall = time.time() - t0

    ok = max(rels) <= 0.05 and wall <= 600.0
    record_acceptance("criterion-5", ok,
                      "max rel err %.2e over %d interior nodes (<= 5%%)"
                      % (max(rels), len(rels)))
    assert max(rels) <= 0.05
    assert wall <= 600.0


def test_criterion_6_property_suites(contact_measurement):
    """Law bounds, stiffness structure, patch test, dense-oracle agreement
    and multiplier recovery, all within the 60 s budget."""
    t0 = time.time()
    cfg = driver.ExperimentConfig()
    laws, elast = cfg.cohesive(), cfg.elasticity()
    g = cfg.traction()

    # law bounds on 1e4 samples
    # the check raises BoundViolated on the first failing sample
    laws_mod.smooth_law_bounds_check(laws, cfg.eps)
    bounds_ok = True

    # stiffness symmetry / SPD after reduction / rigid-mode kernel
    tiny = build_mesh(constant_graph(0.25, n_nodes=3), 0.125,
                      n_cols=2, n_rows_below=1, n_rows_above=1)
    K = fem.assemble_stiffness(tiny, elast)
    sym_ok = abs(K - K.T).max() < 1e-12 * abs(K).max()
    wk = np.linalg.eigvalsh(K.toarray())
    kernel_ok = int(np.count_nonzero(wk < 1e-9 * wk.max())) == 6
    red = fem.subdomain_factor(tiny, K)
    spd_ok = np.linalg.eigvalsh(red.matrix.toarray()).min() > 0.0

    # patch test
    mesh = build_mesh(constant_graph(0.25), 0.0625)
    A = np.array([[3.0e-4, 1.2e-4], [0.5e-4, -2.0e-4]])
    u_exact = (mesh.vertices @ A.T).reshape(-1)
    sig = elast.stress((0.5 * (A + A.T))[None])[0]

    def g_patch(x, y):
        n = np.where(y > 0.25, 1.0, -1.0)
        return sig[0, 1] * n, sig[1, 1] * n

    W = 1e13
    Kp = fem.assemble_stiffness(mesh, elast) \
        + oracles.assemble_interface_linear(mesh, W, component="normal") \
        + oracles.assemble_interface_linear(mesh, W, component="tangent")
    free = mesh.free_row >= 0
    rhs, lift = oracles.dirichlet_lift(Kp, fem.assemble_traction(mesh, g_patch),
                                       free, u_exact)
    # the jump mass joins the blocks: band Kp in column order
    col = oracles.column_order(mesh)
    x = np.zeros(mesh.n_dofs)
    B = Kp[col][:, col]
    band = oracles.tril_band(B)
    system = fem.CoupledSystem(B, np.abs(band).max(),
                               fem.FactorizedSPD(band, [col.size]))
    x[col] = system.solve(rhs[col])
    patch_err = float(np.max(np.abs(x + lift - u_exact)) / np.abs(u_exact).max())
    patch_ok = patch_err < 1e-8

    # dense-oracle equivalence on the 2-column mesh
    u_small, _, _ = solvers.solve_penalty_state(tiny, laws, elast, g, 1e-8)
    u_ref = oracles.dense_penalty_solve(tiny, laws, elast, g, 1e-8)
    dense_err = float(np.max(np.abs(u_small.values - u_ref))
                      / np.max(np.abs(u_ref)))
    dense_ok = dense_err < 1e-10

    # multiplier recovery against the PDAS multiplier at eps = 1e-8
    mesh_m = contact_measurement["mesh"]
    aset = contact_measurement["aset"]
    u8, _, _ = solvers.solve_penalty_state(mesh_m, laws, elast, g, 1e-8)
    lam_est = oracles.recover_multiplier(mesh_m, u8, 1e-8)
    wq = mesh_m.interface_nodal_weights()
    rec_err = float(np.sqrt(np.sum(wq * (lam_est - aset.lam) ** 2))
                    / np.sqrt(np.sum(wq * aset.lam ** 2)))
    rec_ok = rec_err <= 0.10

    wall = time.time() - t0
    ok = all([bounds_ok, sym_ok, kernel_ok, spd_ok, patch_ok, dense_ok,
              rec_ok, wall < 60.0])
    record_acceptance(
        "criterion-6", ok,
        "bounds=%s sym=%s kernel6=%s spd=%s patch=%.1e dense=%.1e "
        "recovery=%.3f wall=%.1fs" % (bounds_ok, sym_ok, kernel_ok, spd_ok,
                                      patch_err, dense_err, rec_err, wall))
    assert bounds_ok and sym_ok and kernel_ok and spd_ok
    assert patch_ok and dense_ok and rec_ok
    assert wall < 60.0


def test_criterion_7_eps_sensitivity(eps_sensitivity_run):
    """The eps = 1e-5 run climbs back above its minimum by > 10%."""
    J = eps_sensitivity_run.column("J_ratio")
    k = int(np.argmin(J))
    post = float(np.max(J[k:]))
    rise = (post - J[k]) / J[k]
    ok = k < J.size - 1 and rise > 0.10
    record_acceptance("criterion-7", ok,
                      "min J ratio %.4f at n=%d, post-minimum rise %.1f%% "
                      "(> 10%%)" % (J[k], k, 100 * rise))
    assert k < J.size - 1
    assert rise > 0.10
