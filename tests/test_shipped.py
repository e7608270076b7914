"""The shipped demos and configs run to a clean exit against the library."""

import runpy
from pathlib import Path

import pytest

from peribond.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
def test_config_runs(path, tmp_path, capsys):
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    assert "pass" in capsys.readouterr().out
