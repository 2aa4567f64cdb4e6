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

from crackid import cli
from crackid.driver import ExperimentConfig

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
cohesion_exponent = 1

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
        # corrupted analytic sign must fail with exit code 4
        rc = run(["gradient-check", "--config", str(cfg), "--out",
                  str(tmp_path / "gc"), "--corrupt-sign"])
        assert rc == 4


class TestLawsCheck:
    def test_pass(self, config_path, tmp_path):
        assert run(["laws-check", "--config", config_path,
                    "--out", str(tmp_path / "l")]) == 0

    def test_eps_override_in_manifest(self, config_path, tmp_path):
        out = str(tmp_path / "l2")
        assert run(["laws-check", "--config", config_path, "--out", out,
                    "--eps", "1e-6"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["parameters"]["eps"] == 1e-6


def measurement_text(h="0.05", load_case="contact",
                     rows="0 0 0 0\n1 0 0 0\n0 0.5 0 0\n1 0.5 0 0\n"):
    return "# measurement v1\n# h = %s\n# load_case = %s\n%s" % (h, load_case, rows)


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
    ("max-outer-zero", "[algorithm]\nmax_outer = 0\n", [], None),
    ("cohesion-length-negative", "[laws]\ncohesion_length = -1\n", [], None),
    ("cohesion-length-nan", "[laws]\ncohesion_length = nan\n", [], None),
    ("friction-delta-zero", "[laws]\nfriction_delta = 0\n", [], None),
    ("friction-bound-negative", "[laws]\nfriction_bound = -1\n", [], None),
    ("cohesion-exponent-below-1", "[laws]\ncohesion_exponent = 0.5\n", [], None),
    ("measurement-3-columns", "", [], measurement_text(rows="0 0 0\n1 0.5 0\n")),
    ("measurement-nan", "", [],
     measurement_text(rows="0 0 0 0\n1 0 nan 0\n0 0.5 0 0\n1 0.5 0 0\n")),
    ("measurement-unknown-load-case", "", [], measurement_text(load_case="shear")),
    ("measurement-h-negative", "", [], measurement_text(h="-0.01")),
    ("measurement-h-nan", "", [], measurement_text(h="nan")),
    ("measurement-no-rows", "", [], measurement_text(rows="")),
    ("measurement-missing-top-edge", "", [],
     measurement_text(rows="0 0 0 0\n0.5 0 1e-6 0\n1 0 0 0\n")),
    # a row on neither observation edge, or beyond the body's ends
    ("measurement-row-off-the-edges", "", [],
     measurement_text(rows="0 0 0 0\n1 0 0 0\n0.5 0.25 1e-6 0\n0 0.5 0 0\n1 0.5 0 0\n")),
    ("measurement-x1-outside", "", [],
     measurement_text(rows="0 0 0 0\n1 0 0 0\n0 0.5 0 0\n1.25 0.5 0 0\n")),
    # inverse-crime guard: data synthesised on the identification grid
    ("measurement-h-is-h-identify", "", [],
     measurement_text(h="%.17g" % ExperimentConfig().resolved_h_identify())),
    # problem-size guard: the config check rejects these before any mesh
    ("h-measure-band-over-budget", "[geometry]\nh_measure = 1e-9\n", [], None),
    ("h-identify-band-over-budget", "[geometry]\nh_identify = 0.0005\n", [], None),
    # band 206 x 161196 and Y 161196 x 798 (every interior pair on x1 and x2)
    ("h-measure-coupling-over-budget", "[geometry]\nh_measure = 0.0025\n", [], None),
    ("h-measure-subnormal", "[geometry]\nh_measure = 1e-320\n", [], None),
    # in range, but the load norm overflows: the solver rejects it
    ("young-overflows", "[material]\nyoung = 1e300\n", [], None),
    # a config file that is not UTF-8
    ("config-not-utf-8", b"\xff\xfe[material]\n", [], None),
]

# rows that pass the config check and stop at the solver's own check
SOLVER_ERROR_ROWS = {"young-overflows"}


@pytest.mark.parametrize("name,text,extra,measurement", INVALID_CONFIGS,
                         ids=[c[0] for c in INVALID_CONFIGS])
def test_invalid_config_exit_2(tmp_path, capsys, name, text, extra, measurement):
    # exit 2 with one "config error" line; 3 and "solver error" for the
    # rows of SOLVER_ERROR_ROWS
    code, prefix = (3, "solver error: ") if name in SOLVER_ERROR_ROWS \
        else (2, "config error: ")
    cfg = tmp_path / "bad.cfg"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    if measurement is None:
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
