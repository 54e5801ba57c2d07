"""Public names: everything `fermiflow` exports resolves, and every name a
demo imports from `fermiflow` is exported, so removing a name cannot leave
a demo broken. The demos are parsed; the two quick ones that call the
solver and the gap table are also run."""

import ast
import runpy
from pathlib import Path

import pytest

import fermiflow

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_every_exported_name_resolves():
    assert len(set(fermiflow.__all__)) == len(fermiflow.__all__)
    missing = [name for name in fermiflow.__all__ if not hasattr(fermiflow, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_only_exported_names(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "fermiflow"
                for alias in node.names]
    assert imported, f"{demo.name} imports nothing from fermiflow"
    assert sorted(set(imported) - set(fermiflow.__all__)) == []


@pytest.mark.parametrize("name", ["quantum_sandwich.py", "overlap_gap.py"])
def test_quick_demos_run(name, capsys):
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    assert capsys.readouterr().out


def test_demos_are_found():
    assert "sampling_vs_enumeration.py" in [path.name for path in DEMOS]
