"""tools/compare_outputs.py on two small synthetic output trees, and
tools/roundoff_envelope.py on a small config."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crackid import fem

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "compare_outputs.py"

FILES = {
    "m_contact/measurement.txt":
        "# measurement v1\n# h = 0.01\n# load_case = contact\n"
        "0 0 0 0\n0.5 0 1.25e-05 -3.5e-06\n1 0 0 0\n",
    "i_contact/iterations.csv":
        "n,J,J_ratio,shape_error_ratio,pdas_na,penalty_iters,clamped\n"
        "0,2.5e-09,1,1,9,3,0\n1,1.25e-09,0.5,0.75,9,1,0\n2,1e-09,0.4,0.7,9,1,0\n",
    "i_contact/interface_n000.txt": "# interface v1\n0 0.25\n1 0.25\n",
    "i_contact/gradients.csv": "n,s_H,D3,Lambda2\n0,0.5,3.5,-0.001\n",
    "g/gradient_check.csv":
        "s_H,analytic,fd_coarse,fd_fine,rel_err\n0.5,1.5e-07,1.50001e-07,1.5e-07,1e-09\n",
}


def tree(root, edits=None):
    for rel, text in FILES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for old, new in (edits or {}).get(rel, []):
            assert old in text
            text = text.replace(old, new)
        path.write_text(text)
    return root


def compare(parent, change, *flags):
    proc = subprocess.run([sys.executable, str(TOOL), *flags, str(parent), str(change)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_identical_trees_pass(tmp_path):
    code, out = compare(tree(tmp_path / "p"), tree(tmp_path / "c"))
    assert code == 0, out
    assert "5 files: 5 same" in out


def test_roundoff_within_the_bounds_passes(tmp_path):
    edits = {
        "m_contact/measurement.txt": [("1.25e-05", "1.2500000000001e-05")],
        "i_contact/iterations.csv": [("1.25e-09,", "1.2500000001e-09,")],
        "g/gradient_check.csv": [("1.50001e-07", "1.500011e-07")],
        "i_contact/interface_n000.txt": [("1 0.25", "1 0.2500001")],
    }
    code, out = compare(tree(tmp_path / "p"), tree(tmp_path / "c", edits))
    assert code == 0, out
    assert "3 within" in out and "1 unbound" in out


@pytest.mark.parametrize("rel,old,new", [
    ("i_contact/iterations.csv", "1.25e-09,", "1.2500001e-09,"),        # J 8e-8
    ("i_contact/iterations.csv", "0.5,0.75,9,1", "0.5,0.75,9,2"),       # penalty_iters
    ("m_contact/measurement.txt", "-3.5e-06", "-3.50000001e-06"),       # 8e-10 of max|u|
    ("m_contact/measurement.txt", "0.5 0 ", "0.5000001 0 "),            # a point moved
    ("g/gradient_check.csv", "1.5e-07,1.50001e-07", "1.5000001e-07,1.50001e-07"),
    ("g/gradient_check.csv", "1.50001e-07,1.5e-07", "1.50001e-07,1.5001e-07"),
], ids=["J", "penalty-iters", "displacement", "point", "analytic", "fd-fine"])
def test_a_change_beyond_its_bound_fails(tmp_path, rel, old, new):
    code, out = compare(tree(tmp_path / "p"), tree(tmp_path / "c", {rel: [(old, new)]}))
    assert code == 1, out
    assert "EXCEEDS" in out


def test_the_row_of_the_largest_difference_is_named(tmp_path):
    # a tail-only excursion shows where it is: J moves most at n = 2, the
    # shape error ratio only at n = 1
    edits = {"i_contact/iterations.csv": [
        ("1.25e-09,0.5,0.75", "1.2500000001e-09,0.5,0.7500000001"),
        ("1e-09,0.4", "1.0000000005e-09,0.4")]}
    code, out = compare(tree(tmp_path / "p"), tree(tmp_path / "c", edits))
    assert code == 0, out
    line = next(l for l in out.splitlines() if l.startswith("i_contact/iterations.csv"))
    assert "J 5.00e-10 at n=2 (<= 1e-09)" in line
    assert "shape_error_ratio 1.33e-10 at n=1 (<= 1e-09)" in line


def test_a_missing_file_fails(tmp_path):
    change = tree(tmp_path / "c")
    shutil.rmtree(change / "g")
    code, out = compare(tree(tmp_path / "p"), change)
    assert code == 1
    assert "MISSING" in out


SVG = '<svg><path d="M50.00 60.00L70.25 80.50"/></svg>\n'


def test_plots_are_compared_byte_for_byte(tmp_path):
    # a plot is SAME when its bytes are; one that differs is reported as
    # UNBOUND and passes; one on one side only fails as MISSING
    parent, change = tree(tmp_path / "p"), tree(tmp_path / "c")
    for root in (parent, change):
        (root / "m_contact" / "deformed.svg").write_text(SVG)
        (root / "i_contact" / "ratios.svg").write_text(SVG)
    code, out = compare(parent, change)
    assert code == 0, out
    assert "7 files: 7 same" in out
    (change / "i_contact" / "ratios.svg").write_text(SVG.replace("70.25", "70.26"))
    code, out = compare(parent, change)
    assert code == 0, out
    line = next(l for l in out.splitlines() if l.startswith("i_contact/ratios.svg"))
    assert "UNBOUND" in line
    assert "6 same, 1 unbound" in out
    (change / "m_contact" / "deformed.svg").unlink()
    code, out = compare(parent, change)
    assert code == 1
    assert "MISSING" in out


def test_the_largest_envelope_multiple_is_named(tmp_path):
    # the last line names the largest multiple over every file and column,
    # that of iterations.csv per prefix n' <= n, and where it is; the
    # verdicts and the exit status are those without an envelope
    edits = {
        "m_contact/measurement.txt": [("1.25e-05", "1.2500000000001e-05")],  # 8e-14
        "i_contact/iterations.csv": [("1.25e-09,", "1.2500000001e-09,")],   # J 8e-11 at n=1
        "i_contact/interface_n000.txt": [("1 0.25", "1 0.2500001")],        # 1e-7
    }
    env = {"files": {
        "m_contact/measurement.txt": {"columns": {"2": 1e-12, "3": 1e-12}},
        "i_contact/iterations.csv": {
            "columns": {"J": 1e-10, "shape_error_ratio": 1e-10},
            "rows": {"n": [0, 1, 2], "J": [0.0, 1e-11, 2e-11],
                     "shape_error_ratio": [0.0, 0.0, 0.0]}},
        "i_contact/interface_n000.txt": {"columns": {"*": 1e-6}},
    }}
    path = tmp_path / "envelope.json"
    path.write_text(json.dumps(env))
    parent, change = tree(tmp_path / "p"), tree(tmp_path / "c", edits)
    plain_code, plain = compare(parent, change)
    code, out = compare(parent, change, "--envelope", str(path))
    assert code == plain_code == 0
    lines = out.splitlines()
    assert "J 8.00e-11 at n=1 (<= 1e-09; envelope n<=2 4x)" in out
    assert "; 0.08x envelope 1.00e-12)" in out and "(0.1x envelope 1.00e-06)" in out
    assert lines[:-1][-1] == plain.splitlines()[-1]
    assert lines[-1] == "largest envelope multiple: 4x at i_contact/iterations.csv J n<=2"
    # the largest taken over a whole file names the file alone
    env["files"]["i_contact/interface_n000.txt"]["columns"]["*"] = 1e-8
    path.write_text(json.dumps(env))
    assert compare(parent, change, "--envelope", str(path))[1].splitlines()[-1] == \
        "largest envelope multiple: 10x at i_contact/interface_n000.txt"
    # no difference: no place
    assert compare(parent, parent, "--envelope", str(path))[1].splitlines()[-1] == \
        "largest envelope multiple: 0x"


# a coarse measurement and five iterations: the recipe runs in about a second
SMALL_CONFIG = "[geometry]\nh_measure = 0.05\n[algorithm]\nn_max = 5\n"


@pytest.fixture(scope="module")
def envelope_tool():
    spec = importlib.util.spec_from_file_location(
        "roundoff_envelope", REPO / "tools" / "roundoff_envelope.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def envelope(tool, tmp_path, *flags):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG)
    out = tmp_path / "env"
    assert tool.main([str(REPO), str(out), "--config", str(cfg), *flags]) == 0
    with open(out / "envelope.json") as fh:
        return out, str(cfg), json.load(fh)["files"]


def test_zero_ulps_give_an_all_zero_envelope(tmp_path, envelope_tool):
    _, _, files = envelope(envelope_tool, tmp_path, "--seeds", "1", "--ulps", "0")
    # per load measurement, iterations, gradients and two snapshots; two checks
    assert len(files) == 12
    for rel, entry in files.items():
        assert set(entry["columns"].values()) == {0.0}, rel
        for column, rows in entry.get("rows", {}).items():
            assert column == "n" or set(rows) == {0.0}, (rel, column)
    assert len(files["i_contact/iterations.csv"]["rows"]["J"]) == 6


def test_a_traction_defect_lands_far_outside_the_envelope(tmp_path, envelope_tool,
                                                          monkeypatch):
    out, cfg, files = envelope(envelope_tool, tmp_path, "--seeds", "2")
    assert files["m_contact/measurement.txt"]["columns"]["2"] > 0.0
    # a defect of the size a wrong formula leaves: one seeded term of the
    # boundary load moved by 1e-6 relative
    assemble = fem.assemble_traction

    def defect(mesh, g):
        f = assemble(mesh, g).copy()
        f[np.random.default_rng(7).choice(np.flatnonzero(f))] *= 1.0 + 1e-6
        return f

    monkeypatch.setattr(fem, "assemble_traction", defect)
    envelope_tool.run_recipe(str(tmp_path / "defect"), cfg)
    plain_code, plain = compare(out / "base", tmp_path / "defect")
    code, text = compare(out / "base", tmp_path / "defect",
                         "--envelope", str(out / "envelope.json"))
    # the envelope adds notes and a last line, and changes no verdict
    assert code == plain_code
    assert [l.split()[:2] for l in text.splitlines()[:-1]] == \
        [l.split()[:2] for l in plain.splitlines()]
    assert text.splitlines()[-1].startswith("largest envelope multiple: ")
    lines = {l.split()[0]: l for l in text.splitlines()}
    for rel, column in (("m_contact/measurement.txt", "2"),
                        ("m_stretch/measurement.txt", "3"),
                        ("i_contact/iterations.csv", "J"),
                        ("i_stretch/iterations.csv", "J")):
        note = re.search(r"\b%s \S+ .*?(?:; |\()(?:envelope n<=5 )?(inf|\S+)x" % column,
                         lines[rel])
        assert note, lines[rel]
        assert float(note.group(1)) >= 1e3, lines[rel]


# the last lines perfbench/run.py prints for an untraced and a traced run
UNTRACED_STDOUT = (
    'environment: {"nproc": 2}\n'
    '{"correct": true, "attempted": 72, "failed": 0, "metrics": '
    '{"setup_s": {"value": 0.5, "unit": "s"}, "wall_s": {"value": 0.7, "unit": "s"}, '
    '"step_ms.p50": {"value": 12.0, "unit": "ms"}}}\n')
TRACED_STDOUT = (
    '{"correct": true, "attempted": 36, "failed": 0, "metrics": '
    '{"fem.lu_factor.calls": {"value": 2.0, "unit": "count"}}}\n')
# the record of the untraced run: (raw, scaled) seconds
RECORD = {"workload": "gradient-check", "trace": 0, "environment": {"nproc": 2},
          "imports": [0.3, 0.2], "setups": [[0.4, 0.2], [0.5, 0.3], [0.6, 0.4]],
          "rounds": [[0.8, 0.6], [0.9, 0.7], [1.0, 0.8]],
          "steps": [[0.02, 0.011], [0.02, 0.012], [0.02, 0.013], [0.02, 0.014],
                    [0.02, 0.015]]}


@pytest.fixture(scope="module")
def snapshot_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", REPO / "tools" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_entry_of_a_canned_result_line(snapshot_tool):
    entry = snapshot_tool.workload_entry(snapshot_tool.result_line(UNTRACED_STDOUT),
                                         snapshot_tool.result_line(TRACED_STDOUT), RECORD)
    assert entry["correct"] and (entry["attempted"], entry["failed"]) == (72, 0)
    assert entry["per_layer"] == {"fem.lu_factor.calls": {"value": 2.0, "unit": "count"}}
    # the quartiles of the scaled samples whose median run.py reports
    e2e = entry["end_to_end"]
    for name, median, q1, q3 in (("setup_s", 0.5, 0.45, 0.55), ("wall_s", 0.7, 0.65, 0.75),
                                 ("step_ms.p50", 12.0, 12.0, 14.0)):
        assert e2e[name]["value"] == median
        assert (e2e[name]["q1"], e2e[name]["q3"]) == pytest.approx((q1, q3))


def test_snapshot_writes_bench_json(snapshot_tool, tmp_path, monkeypatch):
    # the writer alone: no benchmark or crackid process is run
    tree = tmp_path / "tree"
    (tree / "src" / "crackid").mkdir(parents=True)
    (tree / "src" / "crackid" / "fem.py").write_text("")
    (tree / "BENCHMARK.json").write_text(
        '{"run_seconds": 4, "workloads": [{"name": "gradient-check"}]}')
    calls = []

    def benchmark(path, workload, seconds, trace):
        calls.append((path, workload, seconds, trace))
        stdout = TRACED_STDOUT if trace else UNTRACED_STDOUT
        return snapshot_tool.result_line(stdout), dict(RECORD, trace=trace)

    monkeypatch.setattr(snapshot_tool, "benchmark", benchmark)
    monkeypatch.setattr(snapshot_tool, "end_to_end_runs",
                        lambda path: {"measure-contact": {"median_s": 0.6}})
    monkeypatch.setattr(snapshot_tool, "reference_kernel_s", lambda path: 0.05)
    monkeypatch.setattr(snapshot_tool, "ROOT", tmp_path)
    assert snapshot_tool.main(["7", "--tree", str(tree)]) == 0
    data = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert calls == [(tree, "gradient-check", 4, 0), (tree, "gradient-check", 4, 1)]
    assert data["n"] == 7 and data["seconds"] == 4 and data["reference_kernel_s"] == 0.05
    assert data["commit"] is None and len(data["src_sha256"]) == 64
    assert data["environment"]["nproc"] == 2
    assert data["runs"] == {"measure-contact": {"median_s": 0.6}}
    assert data["workloads"]["gradient-check"]["end_to_end"]["wall_s"]["q3"] == \
        pytest.approx(0.75)
