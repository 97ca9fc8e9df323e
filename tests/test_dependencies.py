"""The package has no runtime dependencies: every module it imports is
itself or part of the standard library.  The CLI loads only what every
subcommand runs, and a subcommand's own module when it runs."""

import ast
import json
import os
import subprocess
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


# Run in a fresh interpreter: prints the incseq modules loaded after
# importing the CLI, after hilbert and gb, and after interp.
_STAGES = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "incseq" or m.startswith("incseq."))
stages = []
from incseq import cli
stages.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["hilbert", "--n", "3", "--q", "4"]) == 0
    assert cli.main(["gb", "--n", "3", "--q", "4"]) == 0
    stages.append(loaded())
    assert cli.main(["interp", "--n", "2", "--q", "3", "--point", "1,2"]) == 0
stages.append(loaded())
print(json.dumps(stages))
"""


def test_cli_imports_a_command_module_only_when_the_command_runs():
    src = str(SOURCES[0].parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _STAGES], env=env, capture_output=True, text=True, check=True)
    start, closed_forms, interp = json.loads(run.stdout)
    assert start == ["incseq", "incseq.cli", "incseq.combinatorics", "incseq.field", "incseq.groebner", "incseq.poly"]
    assert closed_forms == start
    assert interp == sorted(start + ["incseq.interpolation"])
