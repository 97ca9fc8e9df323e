"""The package has no runtime dependencies: every module it imports is
itself or part of the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "incseq").glob("*.py"))


def _imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "incseq" if node.level else node.module.split(".")[0]


def test_imports_are_stdlib_or_incseq():
    assert len(SOURCES) > 5
    for path in SOURCES:
        for name in _imported_top_levels(path):
            assert name == "incseq" or name in sys.stdlib_module_names, (path.name, name)
