"""The package runs on the standard library alone: every module imports
only `cmsweep` and stdlib names, and the distribution declares no
runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cmsweep").rglob("*.py"))


def _top_level_imports(path):
    """Top-level names of every import in the module, function-level
    imports included; relative imports count as `cmsweep`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("cmsweep" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_cmsweep(path):
    stray = {n for n in _top_level_imports(path)
             if n != "cmsweep" and n not in sys.stdlib_module_names}
    assert not stray


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []
