"""README against the package: its Library section, its command line, its exit codes
and its input examples; and the benchmark's imports against the public names."""

from __future__ import annotations

import argparse
import ast
import pkgutil
import re
from pathlib import Path

import nsbound
import nsbound.cli
from nsbound import parse_matrix

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = README.parent / "perfbench"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_block_runs_and_matches_all():
    section = _section("Library")
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "nsbound"
        for alias in node.names
    }
    assert imported and imported <= set(nsbound.__all__)
    for name in nsbound.__all__:
        assert hasattr(nsbound, name), name
        assert re.search(rf"\b{name}\b", section), f"README does not list {name}"


def test_readme_export_list_names_nothing_beyond_all():
    exports = _section("Library").split("no others:\n", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", exports))
    assert listed and listed <= set(nsbound.__all__), listed - set(nsbound.__all__)


def test_benchmark_imports_only_public_names():
    # `from nsbound import x` and `nsbound.x` in perfbench/, submodules aside
    submodules = {m.name for m in pkgutil.iter_modules(nsbound.__path__)}
    used = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "nsbound" and not node.level:
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "nsbound" and not node.attr.startswith("__"):
                    used.add(node.attr)
    used -= submodules
    assert used and used <= set(nsbound.__all__), used - set(nsbound.__all__)


def _exit_codes(text: str) -> set[int]:
    """The codes of the sentence that begins "Exit codes:", each one a
    number that opens the sentence or follows a comma."""
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", " ".join(text.split())).group(1)
    return {int(code) for code in re.findall(r"(?:^|,) (\d+) ", sentence)}


def test_readme_and_cli_docstring_list_the_same_exit_codes():
    readme = _exit_codes(README.read_text(encoding="utf-8"))
    assert readme == _exit_codes(nsbound.cli.__doc__)
    assert readme == {0, 1, 2, 3, 4, 5}


def test_readme_command_line_names_every_long_option():
    parser = nsbound.cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    section = _section("Command line")
    missing = sorted(o for o in options if not re.search(rf"{o}(?![\w-])", section))
    assert len(options) >= 13 and not missing, missing


def test_readme_input_examples_parse_from_a_file_of_any_name(tmp_path):
    blocks = re.findall(r"```\n(.*?)```", _section("Input format"), re.S)
    shapes = set()
    for i, block in enumerate(blocks):
        A = parse_matrix(block)
        f = tmp_path / f"example{i}"
        f.write_text(block, encoding="utf-8")
        assert nsbound.cli._read_matrix(str(f)) == A
        shapes.add((A.rows, A.cols))
    assert (1, 1) in shapes and len(shapes) >= 2, shapes  # a polynomial and a matrix
