"""numpy stays the only runtime dependency of nsbound."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import nsbound

PACKAGE = Path(nsbound.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
TESTS = Path(__file__).parent


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, function-level ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_standard_library_and_numpy(path):
    allowed = sys.stdlib_module_names | {"numpy", "nsbound"}
    assert _absolute_imports(path) - allowed == set()


def test_the_walk_reads_function_level_imports_and_skips_relative_ones(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\n\ndef f():\n    from scipy import linalg\n    from . import poly\n")
    assert _absolute_imports(module) == {"os", "scipy"}


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in project["dependencies"]]
    assert names == ["numpy"]


@pytest.mark.parametrize(
    "path", sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_modules_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
