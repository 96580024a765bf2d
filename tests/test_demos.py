"""Every script in demos/, and the Python of README.md, runs to completion against the current API."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# every ```python block of the README, in order, as one program
README_PYTHON = "".join(re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                                   re.MULTILINE | re.DOTALL))


def test_demos_exist():
    assert len(DEMOS) >= 7
    assert README_PYTHON.strip()


@pytest.mark.parametrize("script", DEMOS + ["README.md"], ids=lambda path: getattr(path, "name", path))
def test_demo_exits_cleanly(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["-c", README_PYTHON] if script == "README.md" else [str(script)]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
