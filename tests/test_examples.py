"""Every example script runs to completion.

Nothing else executes ``examples/``: an API change that breaks one would
otherwise ship.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: Left out by name: ``usecase_200_connections.py`` allocates and
#: simulates the whole Section VII use case (7 s); ``python -m repro
#: usecase`` and ``tests/test_watchers.py`` cover the same calls.
TOO_SLOW = {"usecase_200_connections.py"}
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py")
                  if path.name not in TOO_SLOW)


def test_every_example_is_accounted_for():
    assert len(EXAMPLES) >= 5
    assert all((ROOT / "examples" / name).exists() for name in TOO_SLOW)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "examples" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
