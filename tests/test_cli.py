"""CLI subcommands: files, exit codes, determinism and XML validity."""

import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crackid import cli
from crackid.driver import ExperimentConfig
from crackid.errors import NoConvergence

import oracles

CONFIG_SMALL = """
[material]
young = 73000
poisson = 0.34
rho = auto

[laws]
friction_bound = 1e-5
friction_delta = 1e-3
toughness = 1e-3
cohesion_length = 1e-2

[penalty]
eps = 1e-8

[geometry]
h_measure = 0.05
h_identify = auto
coarse_spacing = 0.1
true_interface = kinked
psi0 = 0.25

[algorithm]
load_case = contact
n_max = {n_max}
snapshot_every = 10
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_SMALL.format(n_max=3))
    return str(path)


def run(args):
    return cli.main(args)


def listed_outputs(out):
    """The manifest's output list, checked against ``out``: every file there
    but the manifest, each once, in the order they were written."""
    listed = json.load(open(os.path.join(out, "manifest.json")))["outputs"]
    assert sorted(listed) == sorted(set(os.listdir(out)) - {"manifest.json"})
    times = [os.stat(os.path.join(out, name)).st_mtime_ns for name in listed]
    assert times == sorted(times)
    return listed


def interface_edges(svg, status):
    """Interface segments drawn in the colour of ``status`` (the legend's
    swatches are polylines of another width)."""
    from crackid.svgplot import STATUS_COLORS
    return svg.count('stroke="%s" stroke-width="2.00"' % STATUS_COLORS[status])


class TestMeasure:
    def test_outputs_exist(self, config_path, tmp_path):
        out = str(tmp_path / "m")
        assert run(["measure", "--config", config_path, "--out", out]) == 0
        assert os.path.isfile(os.path.join(out, "measurement.txt"))
        assert os.path.isfile(os.path.join(out, "deformed.svg"))
        ET.parse(os.path.join(out, "deformed.svg"))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["subcommand"] == "measure"
        assert manifest["parameters"]["E_Y"] == 73000.0
        assert "total" in manifest["timings_s"]
        assert listed_outputs(out) == ["measurement.txt", "deformed.svg"]
        # the contact measurement holds contact, cohesive and open nodes
        svg = open(os.path.join(out, "deformed.svg")).read()
        assert all(interface_edges(svg, st) > 0 for st in ("contact", "cohesive", "open"))

    def test_interface_edge_takes_the_first_status_of_its_nodes(self, tmp_path):
        # nodes contact, open (jump above kappa), cohesive (jump below it):
        # on each face the contact-open edge is red, the open-cohesive one orange
        from crackid import fem, svgplot
        from crackid.geometry import build_mesh, uniform_graph
        mesh = build_mesh(uniform_graph(np.full(3, 0.25)), 0.125,
                          n_cols=2, n_rows_below=1, n_rows_above=1)
        assert mesh.iface_plus.size == 3
        values = np.zeros(mesh.n_dofs)
        values[2 * mesh.iface_plus + 1] = [0.0, 2e-2, 5e-3]
        path = tmp_path / "d.svg"
        svgplot.deformed_configuration(str(path), mesh, fem.DofField(values),
                                       np.array([True, False, False]), 1e-2)
        svg = path.read_text()
        assert [interface_edges(svg, st) for st in ("contact", "cohesive", "open")] \
            == [2, 2, 0]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        rc = run(["measure", "--config", str(tmp_path / "nope.cfg"), "--out", out])
        assert rc == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_stretch_case_interface_fully_open(self, config_path, tmp_path):
        out = str(tmp_path / "ms")
        assert run(["measure", "--config", config_path, "--out", out,
                    "--load-case", "stretch"]) == 0
        svg = open(os.path.join(out, "deformed.svg")).read()
        # no contact-coloured interface segments in the separated band;
        # the legend (swatch + label) accounts for exactly two occurrences
        from crackid.svgplot import STATUS_COLORS
        assert svg.count(STATUS_COLORS["contact"]) == 2
        assert svg.count(STATUS_COLORS["open"]) > 2


class TestIdentify:
    def _measure(self, config_path, tmp_path):
        mout = str(tmp_path / "m")
        assert run(["measure", "--config", config_path, "--out", mout]) == 0
        return os.path.join(mout, "measurement.txt")

    def test_n_max_zero_single_row(self, tmp_path):
        cfg = tmp_path / "exp0.cfg"
        cfg.write_text(CONFIG_SMALL.format(n_max=0))
        mpath = self._measure(str(cfg), tmp_path)
        out = str(tmp_path / "i0")
        assert run(["identify", "--config", str(cfg), "--measurement", mpath,
                    "--out", out]) == 0
        lines = open(os.path.join(out, "iterations.csv")).read().strip().split("\n")
        assert len(lines) == 2  # header + single data row

    def test_outputs_and_determinism(self, config_path, tmp_path):
        mpath = self._measure(config_path, tmp_path)
        out1 = str(tmp_path / "i1")
        out2 = str(tmp_path / "i2")
        for out in (out1, out2):
            assert run(["identify", "--config", config_path, "--measurement",
                        mpath, "--out", out, "--dump-gradients"]) == 0
        csv1 = open(os.path.join(out1, "iterations.csv"), "rb").read()
        csv2 = open(os.path.join(out2, "iterations.csv"), "rb").read()
        assert csv1 == csv2
        g1 = open(os.path.join(out1, "gradients.csv"), "rb").read()
        assert g1 == open(os.path.join(out2, "gradients.csv"), "rb").read()
        assert g1.decode().startswith("n,s_H,D3,Lambda2")
        for name in ("ratios.svg", "interfaces.svg", "interface_n000.txt"):
            assert os.path.isfile(os.path.join(out1, name))
            if name.endswith(".svg"):
                ET.parse(os.path.join(out1, name))
        assert listed_outputs(out1) == ["iterations.csv", "interface_n000.txt",
                                        "interface_n003.txt", "ratios.svg",
                                        "interfaces.svg", "gradients.csv"]

    def test_interface_overlay_curve_count(self, tmp_path):
        # with snapshots at 0,10,20,40,100,200 the overlay holds 6 curves
        from crackid import driver, svgplot
        from crackid.geometry import uniform_graph
        snaps = {n: uniform_graph(np.full(11, 0.25 - 1e-4 * n))
                 for n in (0, 10, 20, 40, 100, 200)}
        path = str(tmp_path / "o.svg")
        shown = svgplot.interface_overlay(
            path, snaps, driver.ExperimentConfig().true_graph())
        assert shown == 6
        ET.parse(path)

    def _stretch_measurement(self, tmp_path):
        # a config that names no load case: the default is contact
        cfg = tmp_path / "noload.cfg"
        cfg.write_text("[geometry]\nh_measure = 0.05\n[algorithm]\nn_max = 0\n")
        mout = str(tmp_path / "ms")
        assert run(["measure", "--config", str(cfg), "--out", mout,
                    "--load-case", "stretch"]) == 0
        return str(cfg), os.path.join(mout, "measurement.txt")

    def test_manifest_records_the_measurement_load_case(self, tmp_path):
        cfg, mpath = self._stretch_measurement(tmp_path)
        out = str(tmp_path / "i")
        assert run(["identify", "--config", cfg, "--measurement", mpath,
                    "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["parameters"]["load_case"] == "stretch"

    def test_load_case_other_than_the_measurement_exit_2(self, tmp_path, capsys):
        cfg, mpath = self._stretch_measurement(tmp_path)
        capsys.readouterr()
        out = str(tmp_path / "i")
        rc = run(["identify", "--config", cfg, "--measurement", mpath,
                  "--out", out, "--load-case", "contact"])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and "contact" in err[0] and "stretch" in err[0]
        assert not os.path.exists(out)

    def test_manifest_records_the_resolved_h_identify_and_rho(self, tmp_path,
                                                              coarse_measurement):
        # the defaults: h_identify = h_measure 8/7 and rho = 1/mu_L
        cfg = tmp_path / "n0.cfg"
        cfg.write_text("[algorithm]\nn_max = 0\n")
        out = str(tmp_path / "i")
        assert run(["identify", "--config", str(cfg), "--measurement",
                    coarse_measurement, "--out", out]) == 0
        parameters = json.load(open(os.path.join(out, "manifest.json")))["parameters"]
        assert parameters["h_identify"] == 0.011428571428571429
        assert parameters["rho_reg"] == 3.671232876712329e-05

    def test_missing_measurement_exit_2(self, config_path, tmp_path):
        out = str(tmp_path / "ix")
        rc = run(["identify", "--config", config_path, "--measurement",
                  str(tmp_path / "missing.txt"), "--out", out])
        assert rc == 2


class TestGradientCheck:
    def test_pass_and_negative_control(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_SMALL.format(n_max=0))
        out = str(tmp_path / "g")
        rc = run(["gradient-check", "--config", str(cfg), "--out", out])
        assert rc == 0
        table = open(os.path.join(out, "gradient_check.csv")).read().strip().split("\n")
        assert table[0] == "s_H,analytic,fd_coarse,fd_fine,rel_err"
        assert len(table) == 10  # 9 interior nodes
        rels = [float(l.split(",")[-1]) for l in table[1:]]
        assert max(rels) <= 0.05
        assert listed_outputs(out) == ["gradient_check.csv"]
        # corrupted analytic sign must fail with exit code 4
        rc = run(["gradient-check", "--config", str(cfg), "--out",
                  str(tmp_path / "gc"), "--corrupt-sign"])
        assert rc == 4

    def test_each_probe_is_one_mesh_then_one_objective(self, tmp_path, monkeypatch):
        # the benchmark times a probe from its cli.build_mesh call to the
        # return of driver.objective: 2 steps x 2 probes per interior node,
        # no objective of the base state and no probe meshed elsewhere
        from crackid import driver
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_SMALL.format(n_max=0))
        events = []
        oracles.record_calls(monkeypatch, cli, "build_mesh", lambda *a, **k: "mesh", events)
        oracles.record_calls(monkeypatch, driver, "objective",
                             lambda *a, **k: "objective", events)
        assert run(["gradient-check", "--config", str(cfg),
                    "--out", str(tmp_path / "g")]) == 0
        interior = cli.load_config(str(cfg)).initial_graph().s.size - 2
        probes = [i for i, e in enumerate(events) if e == "objective"]
        assert interior == 9 and len(probes) == 4 * interior
        assert all(events[i - 1] == "mesh" for i in probes)

    def test_probes_solve_on_the_base_factor(self, config_path, monkeypatch):
        # the base state factors its mesh once; the 36 probe meshes share
        # its topology, so each probe solves on that factor and makes none
        from crackid import driver, fem
        config = cli.load_config(config_path)
        meas = driver.synthesize_measurement(config)[0]
        made = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "__init__")
        h = config.h_identify
        rows = cli.gradient_check(config, meas, (1e-3 * h, 1e-4 * h))
        assert len(rows) == 9 and len(made) == 1

    def test_a_probe_guess_reaches_its_first_solve_alone(self, monkeypatch):
        # the guess is an argument of the probe's first solve, not state
        # that the operator keeps: each of the 36 borrowing systems is given
        # a start on its first solve and none on the later ones (its other
        # Newton steps, the fallback's cold solve); the base's solves get none
        from crackid import driver, fem
        config = ExperimentConfig()
        meas = driver.synthesize_measurement(config)[0]
        borrowers = oracles.record_calls(
            monkeypatch, fem.CoupledSystem, "__init__",
            lambda system, *args: system if system.fallback else None)
        solves = oracles.record_calls(monkeypatch, fem.CoupledSystem, "solve",
                                      lambda system, rhs, start=None: (system, start))
        h = config.h_identify
        cli.gradient_check(config, meas, (1e-3 * h, 1e-4 * h))
        borrowers = [b for b in borrowers if b is not None]
        assert len(borrowers) == 36
        starts = {}
        for system, start in solves:
            starts.setdefault(system, []).append(start is not None)
        for system, given in starts.items():
            first = any(system is b for b in borrowers)
            assert given == [first] + [False] * (len(given) - 1)
        assert all(b in starts for b in borrowers)

    @pytest.mark.parametrize("kw", [{}, {"h_measure": 0.05, "F_b": 1e3}],
                             ids=["default", "h0.05-sticking"])
    def test_interpolated_start_moves_no_answer(self, monkeypatch, kw):
        # a probe starts from the interpolant of its hat's solved states and
        # accepts by the same tests as one that starts from the base state:
        # each hat's first probe starts from the base state's own array, so
        # its J is the oracle's bit for bit; the others move by roundoff,
        # within compare_outputs' 1e-5 on the differences. With F_b = 1e3
        # the probes merge 14 sticking pairs shut, and every start ties them
        from crackid import driver, fem
        config = ExperimentConfig(**kw)
        meas = driver.synthesize_measurement(config)[0]
        h = config.h_identify
        steps = (1e-3 * h, 1e-4 * h)
        ref_rows, ref_js = oracles.gradient_check_from_the_base_state(config, meas, steps)
        js = oracles.record_calls(monkeypatch, driver, "objective", driver.objective)
        ties = oracles.record_calls(
            monkeypatch, fem.CoupledSystem, "solve",
            lambda system, rhs, start=None: start is None or system.coupling is None or
            np.array_equal(start[system.coupling[1][system.shut]],
                           start[system.coupling[0][system.shut]]))
        rows = cli.gradient_check(config, meas, steps)
        assert len(js) == len(ref_js) == 36 and all(ties)
        assert np.array_equal(js[::4], ref_js[::4])
        for (s, ana, fds), (s_ref, ana_ref, fds_ref) in zip(rows, ref_rows, strict=True):
            assert s == s_ref and ana == ana_ref
            assert np.all(np.abs(np.subtract(fds, fds_ref)) <= 1e-5 * np.abs(fds_ref))

    @pytest.mark.parametrize("h_measure", [0.05, None], ids=["h0.05", "h-default"])
    def test_sticking_base_state_passes_on_its_last_newton_matrix(self, tmp_path,
                                                                  monkeypatch, h_measure):
        # ROADMAP item 15. With friction_bound = 1e3 the base state's last
        # Newton step merges sticking pairs shut; the adjoint couples exactly
        # that step's rows and weights and takes the Y the factor kept, so
        # the check passes: largest error 4.18e-07 at h_measure = 0.05 and
        # 7.81e-07 at the default h, where an adjoint that left the sticking
        # pairs free read 1.14 and 1.27
        from crackid import fem, solvers
        adjoint, seen = solvers.solve_adjoint, []
        formed = oracles.record_calls(monkeypatch, fem.FactorizedSPD, "_trailing_solves")

        def recorded(op, u, z, configuration):
            before, count = op.system.coupling, len(formed)
            v = adjoint(op, u, z, configuration)
            seen.append((before, op.system.coupling, len(formed) - count))
            return v

        monkeypatch.setattr(solvers, "solve_adjoint", recorded)
        cfg = tmp_path / "stick.cfg"
        cfg.write_text("[laws]\nfriction_bound = 1e3\n" + (
            "" if h_measure is None else "[geometry]\nh_measure = %r\n" % h_measure))
        out = tmp_path / "g"
        assert run(["gradient-check", "--config", str(cfg), "--out", str(out)]) == 0
        rel = np.loadtxt(out / "gradient_check.csv", delimiter=",", skiprows=1)[:, -1]
        assert rel.size == 9 and rel.max() < 1e-6
        [(before, after, new_y)] = seen
        assert np.isinf(before[2]).any() and new_y == 0
        for last_step, adjoint_rows in zip(before, after, strict=True):
            assert np.array_equal(last_step, adjoint_rows)

    @pytest.mark.parametrize("edge", ["bottom", "top"])
    def test_psi0_at_the_edge_exit_2_before_any_solve(self, tmp_path, capsys,
                                                      monkeypatch, edge):
        # psi0 = 2h (or 0.5 - 2h) passes the config check, but the probes
        # move it by 1e-3 h past build_mesh's bound
        from crackid import driver
        two_h = 2.0 * ExperimentConfig(h_measure=0.05).h_identify
        psi0 = two_h if edge == "bottom" else 0.5 - two_h
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_SMALL.format(n_max=0).replace(
            "psi0 = 0.25", "psi0 = %r" % psi0))
        calls = []
        monkeypatch.setattr(driver, "synthesize_measurement",
                            lambda *a, **k: calls.append(a))
        rc = run(["gradient-check", "--config", str(cfg), "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("config error: psi0 = ")
        assert "Traceback" not in err
        assert calls == []

    def test_identify_at_psi0_2h_runs(self, tmp_path):
        # identify makes no probe: psi0 = 2h is a valid start for it
        two_h = 2.0 * ExperimentConfig(h_measure=0.05).h_identify
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(CONFIG_SMALL.format(n_max=1).replace(
            "psi0 = 0.25", "psi0 = %r" % two_h))
        m = str(tmp_path / "m")
        assert run(["measure", "--config", str(cfg), "--out", m]) == 0
        assert run(["identify", "--config", str(cfg), "--out", str(tmp_path / "i"),
                    "--measurement", os.path.join(m, "measurement.txt")]) == 0


def exponent(lo, hi):
    """10^x for x in [lo, hi], in hundredths: hypothesis's floats favour an
    interval's ends and round values, which leave most of a decade unseen."""
    return st.integers(100 * lo, 100 * hi).map(lambda k: 10.0 ** (k / 100))


# two draws of an earlier sweep, kept as examples: the state solve of the
# first cycles in its friction set (item 16); the CLI's fine step 1e-4 h on
# the second moves a probe across a change of the active sets at s = 0.2,
# 0.3 and 0.4, an error of 8.6e-02 that steps 100 times smaller read 2.3e-07
CYCLING = dict(F_b=10.0 ** 2.48, K_c=1.0, kappa=0.1, eps=1e-5, load_case="contact")
STRADDLING = dict(F_b=10.0 ** 2.23, K_c=1.0, kappa=10.0 ** -2.28, eps=1e-5,
                  load_case="contact")


def test_gradient_check_holds_over_the_law_parameters(monkeypatch):
    # ROADMAP item 17: F_b, K_c, kappa and eps over the decades the laws'
    # regimes span, under either load. Every node's error is within the
    # CLI's 5%, unless the state solve cycles (item 16) or the CLI's fine
    # step straddles a change of the active sets, where the differences are
    # not a derivative and the check at steps 100 times smaller holds. Both
    # kinds of draw are listed; some base states stick pairs, so an adjoint
    # without the stick merge (item 15) fails here
    from crackid import driver, solvers
    adjoint, sticking = solvers.solve_adjoint, []

    def recorded(op, u, z, configuration):
        sticking.append(int(np.count_nonzero(op.interior & (configuration[1] == 0.0))))
        return adjoint(op, u, z, configuration)

    monkeypatch.setattr(solvers, "solve_adjoint", recorded)
    draws, cycles, straddles = [], [], []

    def errors(config, meas, scale):
        h = config.h_identify
        rows = cli.gradient_check(config, meas, (1e-3 * scale * h, 1e-4 * scale * h))
        return max(abs(a - f[-1]) / max(abs(a), abs(f[-1]), 1e-30) for _, a, f in rows)

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(F_b=exponent(-6, 4), K_c=exponent(-5, 0), kappa=exponent(-3, -1),
           eps=exponent(-10, -5), load_case=st.sampled_from(["contact", "stretch"]))
    @example(**CYCLING)
    @example(**STRADDLING)
    def draw(**laws):
        config = ExperimentConfig(h_measure=0.05, **laws)
        draws.append(laws)
        try:
            meas = driver.synthesize_measurement(config)[0]
            worst = errors(config, meas, 1.0)
        except NoConvergence as exc:
            assert "cycles with period" in str(exc), (laws, exc)
            cycles.append(laws)
            return
        if worst > 0.05:
            finer = errors(config, meas, 1e-2)
            assert finer <= 0.05, (laws, worst, finer)
            straddles.append(laws)

    draw()
    print("cycling draws:", *cycles, "straddling draws:", *straddles, sep="\n")
    assert len(draws) == 52 and sum(n > 0 for n in sticking) >= 3, sticking
    assert CYCLING in cycles and STRADDLING in straddles
    assert len(cycles) + len(straddles) <= len(draws) // 5, (cycles, straddles)


class TestLawsCheck:
    def test_pass(self, config_path, tmp_path):
        assert run(["laws-check", "--config", config_path,
                    "--out", str(tmp_path / "l")]) == 0
        assert listed_outputs(str(tmp_path / "l")) == []

    def test_eps_override_in_manifest(self, config_path, tmp_path):
        out = str(tmp_path / "l2")
        assert run(["laws-check", "--config", config_path, "--out", out,
                    "--eps", "1e-6"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["parameters"]["eps"] == 1e-6

    @pytest.mark.parametrize("passes", [True, False], ids=["pass", "fail"])
    def test_both_paths_time_the_check_on_a_monotonic_clock(self, config_path, tmp_path,
                                                           monkeypatch, passes):
        # the FAIL path, exit 4, records its check phase as the PASS path
        # does; a wall clock that steps back an hour at every reading moves
        # no timing, so none is negative
        import time
        from crackid import laws
        if not passes:
            monkeypatch.setattr(laws, "beta_smooth",
                                lambda s, eps: -2.0 * np.maximum(0.0, -np.asarray(s)) / eps)
        clock = iter(range(0, -3600 * 100, -3600))
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        out = str(tmp_path / "l")
        assert run(["laws-check", "--config", config_path, "--out", out]) == (0 if passes
                                                                              else 4)
        timings = json.load(open(os.path.join(out, "manifest.json")))["timings_s"]
        assert sorted(timings) == ["check", "total"]
        assert all(t >= 0.0 for t in timings.values())


def measurement_text(h="0.05", load_case="contact",
                     rows="0 0 0 0\n1 0 0 0\n0 0.5 0 0\n1 0.5 0 0\n"):
    return "# measurement v1\n# h = %s\n# load_case = %s\n%s" % (h, load_case, rows)


COUPLING_OVERFLOWS = ("[penalty]\neps = 1e300\n[material]\nyoung = 1e-308\nrho = 1\n"
                      "[geometry]\nh_measure = 0.05\n")

INVALID_CONFIGS = [
    # (id, config text, extra CLI arguments, measurement text or None);
    # a row with a measurement runs identify on it, the others measure
    ("eps-negative", "[penalty]\neps = -1\n", [], None),
    ("eps-zero", "[penalty]\neps = 0\n", [], None),
    ("eps-nan", "[penalty]\neps = nan\n", [], None),
    ("eps-inf", "[penalty]\neps = inf\n", [], None),
    ("eps-override-negative", "", ["--eps", "-1"], None),
    ("snapshot-every-zero", "[algorithm]\nsnapshot_every = 0\n", [], None),
    ("snapshot-every-negative", "[algorithm]\nsnapshot_every = -3\n", [], None),
    ("psi0-above-half", "[geometry]\npsi0 = 0.6\n", [], None),
    ("psi0-zero", "[geometry]\npsi0 = 0\n", [], None),
    ("psi0-negative", "[geometry]\npsi0 = -0.1\n", [], None),
    ("psi0-within-2h-of-top", "[geometry]\npsi0 = 0.499\n", [], None),
    ("young-negative", "[material]\nyoung = -5\n", [], None),
    ("young-zero", "[material]\nyoung = 0\n", [], None),
    ("poisson-above-half", "[material]\npoisson = 0.7\n", [], None),
    ("h-measure-negative", "[geometry]\nh_measure = -0.01\n", [], None),
    ("h-measure-nan", "[geometry]\nh_measure = nan\n", [], None),
    ("coarse-spacing-not-1-over-integer", "[geometry]\ncoarse_spacing = 0.3\n", [], None),
    ("coarse-spacing-subnormal", "[geometry]\ncoarse_spacing = 1e-320\n", [], None),
    ("coarse-spacing-one", "[geometry]\ncoarse_spacing = 1.0\n", [], None),
    # a coarse grid finer than the identify columns (1e-9 would allocate
    # 8 GB for the coarse graph alone)
    ("coarse-spacing-below-h-identify", "[geometry]\ncoarse_spacing = 0.005\n", [], None),
    ("coarse-spacing-tiny", "[geometry]\ncoarse_spacing = 1e-9\n", [], None),
    ("friction-bound-inf", "[laws]\nfriction_bound = inf\n", [], None),
    ("n-max-not-integer", "[algorithm]\nn_max = 2.5\n", [], None),
    ("young-not-a-number", "[material]\nyoung = abc\n", [], None),
    ("young-percent-sign", "[material]\nyoung = 5%\n", [], None),
    ("rho-nan", "[material]\nrho = nan\n", [], None),
    # rho = auto is 1/mu_L, which overflows, or divides by a mu_L of 0
    ("rho-auto-overflows", "[penalty]\neps = 1e300\n[material]\nyoung = 1e-308\n", [], None),
    ("rho-auto-mu-underflows", "[penalty]\neps = 1e308\n[material]\nyoung = 5e-324\n",
     [], None),
    ("max-outer-zero", "[algorithm]\nmax_outer = 0\n", [], None),
    ("cohesion-length-negative", "[laws]\ncohesion_length = -1\n", [], None),
    ("cohesion-length-nan", "[laws]\ncohesion_length = nan\n", [], None),
    ("friction-delta-zero", "[laws]\nfriction_delta = 0\n", [], None),
    ("friction-bound-negative", "[laws]\nfriction_bound = -1\n", [], None),
    # the key is gone: no law read the cohesion exponent
    ("removed-cohesion-exponent", "[laws]\ncohesion_exponent = 1\n", [], None),
    ("measurement-3-columns", "", [], measurement_text(rows="0 0 0\n1 0.5 0\n")),
    ("measurement-nan", "", [],
     measurement_text(rows="0 0 0 0\n1 0 nan 0\n0 0.5 0 0\n1 0.5 0 0\n")),
    ("measurement-unknown-load-case", "", [], measurement_text(load_case="shear")),
    ("measurement-h-negative", "", [], measurement_text(h="-0.01")),
    ("measurement-h-nan", "", [], measurement_text(h="nan")),
    ("measurement-no-rows", "", [], measurement_text(rows="")),
    ("measurement-missing-top-edge", "", [],
     measurement_text(rows="0 0 0 0\n0.5 0 1e-6 0\n1 0 0 0\n")),
    # a file cut short: interp_measurement would extend x1 = 0.25 flat to 1
    ("measurement-top-edge-truncated", "", [],
     measurement_text(rows="0 0 0 0\n1 0 0 0\n0 0.5 0 0\n0.25 0.5 1e-6 0\n")),
    # a row on neither observation edge, or beyond the body's ends
    ("measurement-row-off-the-edges", "", [],
     measurement_text(rows="0 0 0 0\n1 0 0 0\n0.5 0.25 1e-6 0\n0 0.5 0 0\n1 0.5 0 0\n")),
    ("measurement-x1-outside", "", [],
     measurement_text(rows="0 0 0 0\n1 0 0 0\n0 0.5 0 0\n1.25 0.5 0 0\n")),
    # np.interp needs strictly increasing abscissae on each edge
    ("measurement-repeated-abscissa", "", [], measurement_text(
        rows="0 0 0 0\n0.5 0 1e-6 0\n0.5 0 2e-6 0\n1 0 0 0\n0 0.5 0 0\n1 0.5 0 0\n")),
    # the header's keys are read, not only the values after "="
    ("measurement-header-key", "", [],
     measurement_text().replace("# h =", "# anything =")),
    ("measurement-header-load-case-key", "", [],
     measurement_text().replace("# load_case =", "# whatever =")),
    # inverse-crime guard: data synthesised on the identification grid
    ("measurement-h-is-h-identify", "", [],
     measurement_text(h="%.17g" % ExperimentConfig().h_identify)),
    # problem-size guard: the config check rejects these before any mesh
    ("h-measure-band-over-budget", "[geometry]\nh_measure = 1e-9\n", [], None),
    ("h-identify-band-over-budget", "[geometry]\nh_identify = 0.0005\n", [], None),
    # band 206 x 161196 and Y 161196 x 798 (every interior pair on x1 and x2)
    ("h-measure-coupling-over-budget", "[geometry]\nh_measure = 0.0025\n", [], None),
    ("h-measure-subnormal", "[geometry]\nh_measure = 1e-320\n", [], None),
    # in range, but the load norm overflows: the solver rejects it
    ("young-overflows", "[material]\nyoung = 1e300\n", [], None),
    # the Woodbury capacitance Y^T Y overflows: max |Y| is about 1e154
    ("coupling-overflows", COUPLING_OVERFLOWS, [], None),
    ("coupling-overflows-identify", COUPLING_OVERFLOWS, [], measurement_text()),
    # a config file that is not UTF-8
    ("config-not-utf-8", b"\xff\xfe[material]\n", [], None),
    # an output that cannot be opened: a directory stands in its place
    ("out-measurement-is-a-directory", "", [], None),
    ("out-manifest-is-a-directory", "", [], None),
]

# rows that pass the config check and stop at the solver's own check
SOLVER_ERROR_ROWS = {"young-overflows", "coupling-overflows", "coupling-overflows-identify"}

# rows that run another subcommand, with a directory where it writes a file
BLOCKED_OUTPUT_ROWS = {"out-measurement-is-a-directory": ("measure", "measurement.txt"),
                       "out-manifest-is-a-directory": ("laws-check", "manifest.json")}


@pytest.mark.parametrize("name,text,extra,measurement", INVALID_CONFIGS,
                         ids=[c[0] for c in INVALID_CONFIGS])
def test_invalid_config_exit_2(tmp_path, capsys, name, text, extra, measurement):
    # exit 2 with one "config error" line; 3 and "solver error" for the
    # rows of SOLVER_ERROR_ROWS, or identify's one abort line
    code, prefix = (3, "solver error: ") if name in SOLVER_ERROR_ROWS \
        else (2, "config error: ")
    if code == 3 and measurement is not None:
        prefix = "identify: aborted -- iteration 0: "
    cfg = tmp_path / "bad.cfg"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    if name in BLOCKED_OUTPUT_ROWS:
        command, blocked = BLOCKED_OUTPUT_ROWS[name]
        (tmp_path / "m" / blocked).mkdir(parents=True)
        args = [command]
    elif measurement is None:
        args = ["measure"]
    else:
        mpath = tmp_path / "measurement.txt"
        mpath.write_text(measurement)
        args = ["identify", "--measurement", str(mpath)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a warning would be a second line
        rc = run(args + ["--config", str(cfg), "--out", str(tmp_path / "m")] + extra)
    err = capsys.readouterr().err
    assert rc == code
    assert len(err.splitlines()) == 1 and err.startswith(prefix)
    assert "Traceback" not in err
    if name.startswith("coupling-overflows"):
        assert "coupling Y^T Y overflows double precision (max |Y| " in err


@pytest.mark.parametrize("rows,row", [
    ("0 0 0 0\n1 0 0 0\n0.5 0.25 1e-6 0\n0 0.5 0 0\n1 0.5 0 0\n", 3),
    ("0 0 0 0\n1 0 0 0\n0 0.5 0 0\n1.25 0.5 0 0\n", 4),
    ("-1e-9 0 0 0\n1 0 0 0\n0 0.5 0 0\n1 0.5 0 0\n", 1),
], ids=["x2-between", "x1-beyond-1", "x1-below-0"])
def test_measurement_row_off_the_edges_is_named(tmp_path, capsys, rows, row):
    # the reader names the row; before, interp_measurement dropped it
    mpath = tmp_path / "measurement.txt"
    mpath.write_text(measurement_text(rows=rows))
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    rc = run(["identify", "--measurement", str(mpath), "--config", str(cfg),
              "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "measurement row %d " % row in err


@pytest.mark.parametrize("eps", ["1e-200", "1e-300", "1e-310"])
@pytest.mark.parametrize("command", ["identify", "gradient-check", "laws-check"])
def test_tiny_eps_exit_2(tmp_path, capsys, command, eps):
    # below 2^-52 h_identify / E_Y the penalty mass w/eps swamps the
    # stiffness in double precision; the config check names eps, before any
    # overflow can warn
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[penalty]\neps = %s\n[geometry]\nh_measure = 0.05\n"
                   "[algorithm]\nn_max = 3\n" % eps)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "identify":
        mpath = tmp_path / "measurement.txt"
        mpath.write_text(measurement_text())
        args += ["--measurement", str(mpath)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a warning would be a second line
        rc = run(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: eps = %s " % eps)


def test_out_naming_a_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    rc = run(["measure", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert str(out) in err
    assert out.read_text() == "a file, not a directory\n"


def test_python_m_crackid_runs_the_cli(tmp_path):
    # a checkout without an install runs the CLI as a module of src/
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "crackid", "--help"],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "identify" in proc.stdout
