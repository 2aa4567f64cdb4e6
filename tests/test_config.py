"""The config file's schema: ``cli.CONFIG_SECTIONS`` over the fields of
``driver.ExperimentConfig``, the README's example and unknown names."""

import dataclasses
import re
from pathlib import Path

import pytest

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
