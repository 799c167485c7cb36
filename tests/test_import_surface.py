"""What every interpreter, campaign worker and CLI call pays at start-up.

The control plane imports no graph library (``repro.topology`` owns its
graph) and numpy arrives with the first simulated flit, not with the
package.  Asserted on ``sys.modules`` in a fresh interpreter — exact, so
a re-introduced top-level import fails here instead of moving every
workload's ``setup_s`` by a tenth of a second unnoticed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import repro, repro.service, repro.campaign, repro.design, repro.faults
import repro.telemetry.monitor, repro.experiments.section7
print(sorted({"networkx", "numpy"} & set(sys.modules)))
"""


def test_control_plane_imports_neither_networkx_nor_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
