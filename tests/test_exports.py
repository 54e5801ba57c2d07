"""Public names: everything `fermiflow` exports resolves, and every name a
demo imports from `fermiflow` is exported, so removing a name cannot leave
a demo broken. The demos are parsed, not run."""

import ast
from pathlib import Path

import pytest

import fermiflow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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


def test_demos_are_found():
    assert "sampling_vs_enumeration.py" in [path.name for path in DEMOS]
