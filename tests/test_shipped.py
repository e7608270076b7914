"""The shipped demos and configs run to a clean exit against the library,
everything the library exports has a use outside the tests, and every
benchmark record at the root says what ran, where and how; README's
quick start runs too."""

import ast
import json
import re
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


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert "laminate_upper" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_names_label_env_and_harness(path):
    # a claimed speed-up stands only with its machine and harness beside it
    record = json.loads(path.read_text())
    assert {"label", "env", "harness"} <= record.keys()


def test_every_export_has_a_caller_outside_the_tests():
    # a caller is a whole-word match in the library beyond the name's own
    # def or class line, or anywhere in the demos, bench, configs or README
    pkg = ROOT / "src" / "peribond"
    init = pkg / "__init__.py"
    names = [alias.name for node in ast.parse(init.read_text()).body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    lib = "\n".join(p.read_text() for p in sorted(pkg.glob("*.py")) if p != init)
    shipped = [p.read_text() for d in ("demos", "bench", "configs")
               for p in sorted((ROOT / d).rglob("*")) if p.suffix in (".py", ".json", ".md")]
    shipped.append((ROOT / "README.md").read_text())

    def has_caller(name):
        rest = re.sub(rf"(?m)^\s*(def|class) {name}\b.*$", "", lib)
        return re.search(rf"\b{name}\b", "\n".join([*shipped, rest])) is not None

    assert [name for name in names if not has_caller(name)] == []
