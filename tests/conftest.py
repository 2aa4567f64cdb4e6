"""Shared fixtures. The expensive identification runs are session-scoped and
reused by the driver, shape and acceptance tests; acceptance pass/fail lines
are collected and echoed in the terminal summary."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import configuration

from crackid import cli, driver, solvers
from crackid.geometry import build_mesh

ACCEPTANCE_LINES = []


def record_acceptance(name, ok, detail):
    line = "ACCEPTANCE %-14s %s  (%s)" % (name, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_configure(config):
    # hypothesis caches the constants of the tested modules, at collection,
    # under its home directory, ./.hypothesis by default: keep it out of the tree
    configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "crackid-hypothesis")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def contact_config():
    return driver.ExperimentConfig(load_case="contact")


@pytest.fixture(scope="session")
def stretch_config():
    return driver.ExperimentConfig(load_case="stretch")


@pytest.fixture(scope="session")
def contact_measurement(contact_config):
    """PDAS measurement of the contact case at h = 1e-2 (reference setup)."""
    meas, z, aset, report, mesh = driver.synthesize_measurement(contact_config)
    return dict(meas=meas, z=z, aset=aset, report=report, mesh=mesh)


@pytest.fixture(scope="session")
def stretch_measurement(stretch_config):
    meas, z, aset, report, mesh = driver.synthesize_measurement(stretch_config)
    return dict(meas=meas, z=z, aset=aset, report=report, mesh=mesh)


@pytest.fixture(scope="session")
def coarse_measurement(tmp_path_factory):
    """Path of the measurement.txt that ``measure`` writes at h_measure = 0.05."""
    out = tmp_path_factory.mktemp("coarse")
    cfg = out / "measure.cfg"
    cfg.write_text("[geometry]\nh_measure = 0.05\n")
    assert cli.main(["measure", "--config", str(cfg), "--out", str(out / "m")]) == 0
    return str(out / "m" / "measurement.txt")


@pytest.fixture(scope="session")
def coarse_identify(tmp_path_factory, coarse_measurement):
    """``identify --dump-gradients`` of 3 iterations on the coarse
    measurement, a snapshot at each: its output directory and the log of
    ``driver.identify`` on the same inputs."""
    out = tmp_path_factory.mktemp("coarse_identify")
    cfg = out / "identify.cfg"
    cfg.write_text("[geometry]\nh_measure = 0.05\n"
                   "[algorithm]\nn_max = 3\nsnapshot_every = 1\n")
    assert cli.main(["identify", "--config", str(cfg), "--measurement", coarse_measurement,
                     "--out", str(out / "i"), "--dump-gradients"]) == 0
    log = driver.identify(cli.load_config(str(cfg)),
                          driver.read_measurement(coarse_measurement))
    return dict(out=out / "i", log=log)


@pytest.fixture(scope="session")
def contact_state(contact_config, contact_measurement):
    """Penalty state + adjoint at the flat initial interface (contact case)."""
    cfg = contact_config
    laws, elast = cfg.cohesive(), cfg.elasticity()
    g = cfg.traction()
    h = cfg.h_identify
    psi = cfg.initial_graph()
    mesh = build_mesh(psi, h)
    u, rep, op = solvers.solve_penalty_state(mesh, laws, elast, g, cfg.eps)
    z_vec = driver.interp_measurement(mesh, contact_measurement["meas"])
    v = solvers.solve_adjoint(op, u, z_vec)
    return dict(cfg=cfg, laws=laws, elast=elast, g=g, h=h, psi=psi, mesh=mesh,
                u=u, v=v, z_vec=z_vec, report=rep, op=op)


@pytest.fixture(scope="session")
def contact_gradient_check(contact_config, contact_measurement):
    """``cli.gradient_check`` of the contact case at the CLI's steps 1e-3 h
    and 1e-4 h: one (s, analytic, [fd per step]) row per interior node."""
    h = contact_config.h_identify
    return cli.gradient_check(contact_config, contact_measurement["meas"],
                              (1e-3 * h, 1e-4 * h))


@pytest.fixture(scope="session")
def contact_run(contact_config, contact_measurement):
    """Full 200-iteration contact identification (reference experiment)."""
    return driver.identify(contact_config, contact_measurement["meas"])


@pytest.fixture(scope="session")
def stretch_run(stretch_config, stretch_measurement):
    return driver.identify(stretch_config, stretch_measurement["meas"])


@pytest.fixture(scope="session")
def eps_sensitivity_run(contact_measurement):
    """Contact identification at the insufficiently small eps = 1e-5.

    Runs on the 1/50-column mesh with a longer horizon: the compliance-
    limited plateau (where the ratio curves start climbing again) is only
    reached after the default budget at the default mesh.
    """
    cfg = driver.ExperimentConfig(load_case="contact", eps=1e-5,
                                  h_identify=1.0 / 50.0, n_max=600)
    return driver.identify(cfg, contact_measurement["meas"])
