"""The structure gate runs in tier-1, and its rules bite.

``tools/structure_gate.py`` is the table CI's tier-1 job runs after the
tests; running it here means a deleted twin that grows back fails
locally, not on the runner.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "structure_gate.py"


def _gate(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(GATE), str(root)],
                          capture_output=True, text=True, timeout=60)


def test_the_tree_passes():
    proc = _gate(ROOT)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path, line, message", [
    ("simulation/flitsim.py", "class FlitLevelSimulator:",
     "deleted simulator entry point"),
    ("simulation/compiled.py", "def numpy_available(): return True",
     "deleted simulator entry point"),
    ("simulation/backend.py", "SimResult(raw=None)",
     "deleted simulator entry point"),
    ("simulation/backend.py",
     "t.check_replay(1)\nt.check_replay(2)", "check_replay( has more than"),
    ("usecase/runner.py",
     "from repro.simulation.flitsim import execute", "executor is imported"),
    ("__init__.py", '_X = {"E": "repro.baseline.be_network"}',
     "executor is imported"),
    ("campaign/runner.py", 'if scenario.mode == "serve": pass',
     "mode comparison outside"),
    ("baseline/be_network.py", "# topo.attached_router(ni)",
     "attached_router( must have one call site"),
])
def test_a_regrown_twin_is_refused(tmp_path, path, line, message):
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "repro" / path
    target.write_text(target.read_text() + "\n" + line + "\n")
    proc = _gate(tmp_path)
    assert proc.returncode == 1
    assert message in proc.stderr
