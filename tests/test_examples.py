"""Every script under ``examples/`` runs to exit 0.

Each is a self-checking end-to-end scenario (it asserts its own results),
and the README points readers at them first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
assert EXAMPLES, "examples/ is empty: nothing would be collected"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_to_exit_zero(script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
