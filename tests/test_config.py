"""The config file's schema: ``cli.CONFIG_SECTIONS`` over the fields of
``driver.ExperimentConfig``, the README's example and unknown names; every
key at edge and extreme values; and config and measurement files mutated
by property."""

import contextlib
import dataclasses
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crackid import cli, driver

README = Path(__file__).resolve().parents[1] / "README.md"


def test_sections_map_every_field_once():
    mapped = [f for keys in cli.CONFIG_SECTIONS.values() for f in keys.values()]
    fields = [f.name for f in dataclasses.fields(driver.ExperimentConfig)]
    assert sorted(mapped) == sorted(fields)


def test_readme_example_is_the_default(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(blocks[0])
    assert cli.load_config(str(cfg)) == driver.ExperimentConfig()


UNKNOWN_NAMES = [
    ("unknown-key", "[penalty]\neps = 1e-8\nepsilon = 1e-8\n", "epsilon"),
    ("unknown-section", "[solver]\ntol = 1e-10\n", "[solver]"),
    ("default-section", "[DEFAULT]\neps = 1e-8\n", "[DEFAULT]"),
    ("removed-early-stop", "[algorithm]\nearly_stop = false\n", "early_stop"),
    ("removed-curvature", "[algorithm]\ncurvature = coarse\n", "curvature"),
    ("removed-endpoint-cap", "[algorithm]\nendpoint_cap = true\n", "endpoint_cap"),
    ("removed-single-endpoint-factor",
     "[algorithm]\nsingle_endpoint_factor = false\n", "single_endpoint_factor"),
    ("removed-cohesion-exponent", "[laws]\ncohesion_exponent = 1\n", "cohesion_exponent"),
]


@pytest.mark.parametrize("text,name", [c[1:] for c in UNKNOWN_NAMES],
                         ids=[c[0] for c in UNKNOWN_NAMES])
def test_unknown_name_exit_2(tmp_path, capsys, text, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = cli.main(["measure", "--config", str(cfg), "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert name in err


def write_config(path, settings, section, key, value):
    """Write ``settings`` with ``[section] key = value`` set on top of them."""
    settings = {name: dict(keys) for name, keys in settings.items()}
    settings.setdefault(section, {})[key] = value
    path.write_text("".join("[%s]\n" % name + "".join("%s = %s\n" % kv for kv in keys.items())
                            for name, keys in settings.items()))
    return path


EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "word"]
# keys that no field reads any more: every value of theirs is an unknown key
REMOVED_KEYS = {"laws": ["cohesion_exponent"]}
EDGE_ROWS = [(section, key, value)
             for sections in (cli.CONFIG_SECTIONS, REMOVED_KEYS)
             for section, keys in sections.items()
             for key in keys for value in EDGE_VALUES]


@pytest.mark.parametrize("section,key,value", EDGE_ROWS,
                         ids=["%s=%s" % row[1:] for row in EDGE_ROWS])
def test_every_key_at_every_edge_value(tmp_path, capsys, section, key, value):
    # a rejected value exits 2 in one line; an accepted one runs measure on
    # a coarse mesh and ends in 0, 2 or 3, never in a traceback. The band
    # guard of the config check runs before any mesh is built.
    cfg = write_config(tmp_path / "edge.cfg", {"geometry": {"h_measure": "0.05"}},
                       section, key, value)
    try:
        cli.load_config(str(cfg))
        accepted = True
    except driver.ConfigError:
        accepted = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a warning would be a second line
        rc = cli.main(["measure", "--config", str(cfg), "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if not accepted:
        assert rc == 2
    if key in REMOVED_KEYS.get(section, ()):
        assert not accepted and key in err
    assert rc in (0, 2, 3)
    assert len(err.splitlines()) == (rc != 0), err


# the largest double and the smallest subnormal, and values whose squares
# or products overflow or underflow a double
EXTREME_VALUES = ("1e308", "1e160", "1e-160", "1e-300", "2e-308", "5e-324")
EXTREME_ROWS = [(command, section, key, value)
                for command in ("identify", "gradient-check", "laws-check")
                for section, keys in cli.CONFIG_SECTIONS.items()
                for key in keys for value in EXTREME_VALUES]


@pytest.mark.parametrize("command,section,key,value", EXTREME_ROWS,
                         ids=["%s-%s=%s" % (row[0], *row[2:]) for row in EXTREME_ROWS])
def test_every_key_at_the_double_extremes(tmp_path, capsys, coarse_measurement,
                                          command, section, key, value):
    # each extreme value, through a 3-iteration identify on a coarse
    # measurement, a coarse gradient-check and laws-check: a documented
    # exit code, one line for a config or solver error, no warning and no
    # traceback, and no PASS on a value that is not finite
    cfg = write_config(tmp_path / "extreme.cfg",
                       {"geometry": {"h_measure": "0.05"}, "algorithm": {"n_max": "3"}},
                       section, key, value)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "identify":
        argv += ["--measurement", coarse_measurement]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert rc in (0, 2, 3, 4)
    assert len(err.splitlines()) == (rc in (2, 3)), err
    if "PASS" in out:
        assert not re.search(r"\b(nan|inf)\b", out), out


def test_size_guard_counts_band_and_coupling(tmp_path, capsys, monkeypatch):
    # at h_measure = 0.0025 the band is 206 x 161196 doubles, and Y = L^-1 U
    # of the first PDAS step, which couples all 399 interior pairs on x1 and
    # x2, 161196 x 798: 1235 MiB together, over the budget before any mesh
    built = []
    for module in (cli, driver):
        monkeypatch.setattr(module, "build_mesh", lambda *a, **k: built.append(a))
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("[geometry]\nh_measure = 0.0025\n")
    rc = cli.main(["measure", "--config", str(cfg), "--out", str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert rc == 2 and not built
    size = 8 * 161196 * (206 + 798)
    assert size >> 20 == 1234
    assert err == ("config error: h_measure = 0.0025 needs %.3g bytes for its band "
                   "factor and coupling, above the 1024 MiB budget\n" % size)


VALID_CONFIG = """[material]
young = 73000
poisson = 0.34
[laws]
friction_bound = 1e-5
friction_delta = 1e-3
toughness = 1e-3
cohesion_length = 1e-2
[penalty]
eps = 1e-8
[geometry]
h_measure = 0.05
coarse_spacing = 0.1
psi0 = 0.25
[algorithm]
load_case = contact
n_max = 2
"""
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@st.composite
def mutated_lines(draw, lines):
    """``lines`` with one or two mutations: a number set to nan, inf, the
    smallest subnormal or 1e308, a line cut short, or a line duplicated
    or swapped with another."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["value", "truncate", "duplicate", "swap"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "value":
            spans = [(k, m.span()) for k, line in enumerate(lines)
                     for m in NUMBER.finditer(line)]
            k, (a, b) = draw(st.sampled_from(spans))
            value = draw(st.sampled_from(["nan", "inf", "5e-324", "1e308"]))
            lines[k] = lines[k][:a] + value + lines[k][b:]
        elif kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return lines


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data(), target=st.sampled_from(["config", "measurement"]))
def test_mutated_input_files(coarse_measurement, data, target):
    # identify on a valid config and measurement, one of them mutated: a
    # documented exit code, no traceback and no warning, and exactly one
    # stderr line on a config or solver error
    texts = {"config": VALID_CONFIG, "measurement": Path(coarse_measurement).read_text()}
    lines = data.draw(mutated_lines(texts[target].splitlines()))
    texts[target] = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = Path(tmp) / name
            paths[name].write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = cli.main(["identify", "--config", str(paths["config"]),
                           "--measurement", str(paths["measurement"]),
                           "--out", str(Path(tmp) / "o")])
    err = err.getvalue()
    assert "Traceback" not in err
    assert rc in (0, 2, 3, 4)
    assert len(err.splitlines()) == (rc in (2, 3)), err
