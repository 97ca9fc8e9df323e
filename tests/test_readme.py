"""The README's `## Library` example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, section = readme.partition("\n## Library\n")
    assert found, "README has no `## Library` section"
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True"
