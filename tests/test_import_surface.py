"""What every interpreter, campaign worker and CLI call pays at start-up.

The control plane imports no graph library (``repro.topology`` owns its
graph) and numpy arrives with the first simulated flit, not with the
package, and a simulating process never imports ``numpy.ma``.  Asserted
on ``sys.modules`` in a fresh interpreter — exact, so a re-introduced
top-level import fails here instead of moving every workload's
``setup_s`` by a tenth of a second unnoticed.

A campaign worker imports numpy with its first simulated flit; it must
do so with its native thread pools pinned to one thread, or on a
multi-core host each worker starts a BLAS pool that competes with every
worker for the cores.  A pool worker serves every later campaign of its
process on that one thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


SIMULATE_SCRIPT = """
import sys
from repro.experiments.section7 import section7_setup
from repro.usecase.runner import run_be, run_gs
_, config = section7_setup()
run_gs(config, n_slots=200)
run_be(config, frequency_hz=config.frequency_hz, n_ticks=100)
print("numpy" in sys.modules, "numpy.ma" in sys.modules)
"""


def test_a_simulating_process_never_imports_numpy_ma():
    """numpy 2's ``unique`` imports ``numpy.ma`` (about 20 ms and 1.3 MB)
    just to ask whether a plain array is masked; one compiled flit run
    and one best-effort run must not pay it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SIMULATE_SCRIPT], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


THREADS_SCRIPT = """
import json, multiprocessing, os, sys
# the wrapped run_kind below reaches the workers by inheritance
multiprocessing.set_start_method("fork")
import repro.campaign.runner as runner
from repro.campaign.presets import demo_campaign

run_kind = runner.run_kind


def counted(run):
    record = run_kind(run)
    import numpy  # noqa: F401
    return dict(record, threads=len(os.listdir("/proc/self/task")))


runner.run_kind = counted
environ = dict(os.environ)
# two campaigns back to back on one pool of workers
results = [runner.CampaignRunner(demo_campaign(n_slots=200, seeds=(1,)),
                                 workers=2).run() for _ in range(2)]
print(json.dumps({
    "threads": [record["threads"] for result in results
                for record in result.records],
    "workers": [sorted(result.meta["worker_table"]) for result in results],
    "parent_numpy": "numpy" in sys.modules,
    "parent_environ_kept": dict(os.environ) == environ}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
def test_campaign_workers_import_numpy_on_one_thread():
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    first, second = seen["workers"]
    assert len(first) == 2 and second == first
    assert seen["threads"] and set(seen["threads"]) == {1}
    assert not seen["parent_numpy"]
    assert seen["parent_environ_kept"]
