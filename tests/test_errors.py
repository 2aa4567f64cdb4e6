"""Error paths of the solvers and assembly guards."""

import numpy as np
import pytest

from crackid import driver, fem, geometry, shape, solvers
from crackid.errors import (DegenerateElement, MissingAdjacentTriangle,
                            NoConvergence)
from crackid.geometry import build_mesh, constant_graph

CFG = driver.ExperimentConfig()


def test_pdas_no_convergence_on_tiny_budget():
    mesh = build_mesh(CFG.true_graph(), 0.05)
    with pytest.raises(NoConvergence):
        solvers.solve_vi_pdas(mesh, CFG.cohesive(), CFG.elasticity(),
                              CFG.traction(), max_outer=2)


def test_penalty_no_convergence_on_tiny_budget():
    mesh = build_mesh(CFG.true_graph(), 0.05)
    with pytest.raises(NoConvergence):
        solvers.solve_penalty_state(mesh, CFG.cohesive(), CFG.elasticity(),
                                    CFG.traction(), 1e-8, max_outer=1)


@pytest.fixture
def scaled_solves(monkeypatch):
    """Every interface solve returns its solution scaled by 1 + 1e-6: the
    active sets still repeat, at a residual of 1e-6 of the load."""
    solve = solvers._InterfaceOperator.solve
    monkeypatch.setattr(solvers._InterfaceOperator, "solve",
                        lambda self, *args: solve(self, *args) * (1.0 + 1e-6))


@pytest.mark.parametrize("law", ["contact", "penalty"])
def test_repeat_above_the_backward_bound_is_no_convergence(scaled_solves, law):
    mesh = build_mesh(CFG.true_graph(), 0.05)
    args = (mesh, CFG.cohesive(), CFG.elasticity(), CFG.traction())
    with pytest.raises(NoConvergence,
                       match=r"residual 1\.000e-06, backward error \d\.\d{3}e-\d\d$"):
        if law == "contact":
            solvers.solve_vi_pdas(*args)
        else:
            solvers.solve_penalty_state(*args, 1e-8)


def test_identify_at_eps_1e_20_converges():
    # the w/eps jump mass puts the residual far above 1e-10 of the load,
    # while its backward error stays at roundoff
    cfg = driver.ExperimentConfig(h_measure=0.05, n_max=5, eps=1e-20)
    log = driver.identify(cfg, driver.synthesize_measurement(cfg)[0])
    assert log.aborted is None
    assert len(log.rows) == 6


def test_degenerate_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    tris = np.array([[0, 1, 2]])
    with pytest.raises(DegenerateElement):
        geometry.triangle_geometry(verts, tris)


def test_missing_adjacent_triangle():
    mesh = build_mesh(constant_graph(0.25), 0.1)
    mesh.pair_tri_plus = mesh.pair_tri_plus.copy()
    mesh.pair_tri_plus[0] = -1
    zero = fem.DofField(mesh, np.zeros(mesh.n_dofs))
    with pytest.raises(MissingAdjacentTriangle):
        shape.boundary_gradient(mesh, constant_graph(0.25), zero, zero,
                                CFG.cohesive(), CFG.elasticity(), CFG.eps)


def test_identify_aborts_with_partial_log(contact_measurement):
    # a one-iteration solver budget cannot converge: the loop must stop
    # and hand back whatever it logged (here: nothing but the abort note)
    cfg = driver.ExperimentConfig(n_max=5, max_outer=1)
    log = driver.identify(cfg, contact_measurement["meas"])
    assert log.aborted is not None
    assert "iteration 0" in log.aborted


def test_cli_identify_exit_3_on_solver_failure(tmp_path):
    from crackid import cli
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[geometry]\nh_measure = 0.05\n"
        "[algorithm]\nload_case = contact\nn_max = 2\nmax_outer = 50\n")
    mout = str(tmp_path / "m")
    assert cli.main(["measure", "--config", str(cfg), "--out", mout]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[geometry]\nh_measure = 0.05\n"
        "[algorithm]\nload_case = contact\nn_max = 2\nmax_outer = 1\n")
    rc = cli.main(["identify", "--config", str(bad),
                   "--measurement", mout + "/measurement.txt",
                   "--out", str(tmp_path / "i")])
    assert rc == 3
