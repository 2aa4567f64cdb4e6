"""Error paths of the solvers and assembly guards."""

import dataclasses
import json

import numpy as np
import pytest

from crackid import driver, fem, geometry, shape, solvers
from crackid.errors import (DegenerateElement, MissingAdjacentTriangle,
                            NoConvergence)
from crackid.geometry import build_mesh

from oracles import constant_graph

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


def identify_stderr(tmp_path, capsys, setting, *extra):
    """Measure, then identify (with the arguments ``extra``), at h_measure =
    0.05 with ``setting`` on top; the identify run must exit 3 in one
    stderr line, which is returned."""
    from crackid import cli
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(setting + "[geometry]\nh_measure = 0.05\n"
                   "[algorithm]\nload_case = contact\nn_max = 2\n")
    mout = str(tmp_path / "m")
    assert cli.main(["measure", "--config", str(cfg), "--out", mout]) == 0
    capsys.readouterr()
    rc = cli.main(["identify", "--config", str(cfg),
                   "--measurement", mout + "/measurement.txt",
                   "--out", str(tmp_path / "i"), *extra])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1, err
    return err


def test_cli_identify_at_eps_near_the_floor_exit_3(tmp_path, capsys):
    # eps = 2e-22 passes the config floor of 1.74e-22, but the penalty's
    # active sets cycle on the first iterate: named at their first repeat.
    # The cycle is driven by roundoff, so its period and start follow the
    # solve's last bits
    err = identify_stderr(tmp_path, capsys, "[penalty]\neps = 2e-22\n")
    assert "penalty solver cycles with period 4 from step 8: " in err, err


def test_cli_identify_at_young_0_5_exit_3(tmp_path, capsys):
    # a valid, soft material, every other key at its default: the active
    # sets cycle with period 6, named after 11 steps and not 50
    err = identify_stderr(tmp_path, capsys, "[material]\nyoung = 0.5\n")
    assert "penalty solver cycles with period 6 from step 5: " in err, err


def test_cli_identify_aborted_at_iteration_0_writes_empty_tables(tmp_path, capsys):
    # no iterate is logged: iterations.csv and gradients.csv hold their
    # header line alone, and the manifest lists both
    identify_stderr(tmp_path, capsys, "[material]\nyoung = 0.5\n", "--dump-gradients")
    out = tmp_path / "i"
    assert (out / "iterations.csv").read_text() \
        == "n,J,J_ratio,shape_error_ratio,pdas_na,penalty_iters,clamped\n"
    assert (out / "gradients.csv").read_text() == "n,s_H,D3,Lambda2\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["iterations.csv", "gradients.csv"]


def test_degenerate_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    tris = np.array([[0, 1, 2]])
    with pytest.raises(DegenerateElement):
        geometry.triangle_geometry(verts, tris)


def test_missing_adjacent_triangle():
    mesh = build_mesh(constant_graph(0.25), 0.1)
    # the tables are the shared topology's: corrupt a copy of it
    bad = mesh.pair_tri_plus.copy()
    bad[0] = -1
    mesh.topology = dataclasses.replace(mesh.topology, pair_tri_plus=bad)
    zero = fem.DofField(np.zeros(mesh.n_dofs))
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
