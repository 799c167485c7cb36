"""Tier-1 smoke test: the benchmark runs, checks pass, names agree.

Runs ``run.py --smoke`` (tiny sizes, one timed pass per workload) and
holds its output to ``BENCHMARK.json`` and ``metrics.py``.  It checks
the benchmark's plumbing, never a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as registry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def test_smoke_run_matches_the_manifest(tmp_path):
    output = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--output", str(output)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    manifest = registry.load_manifest()
    declared = registry.declared(manifest)
    printed: dict[str, set[str]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            workload = line.split()[1]
            printed[workload] = set()
        elif line.startswith("   ") and not line.lstrip().startswith(
                ("UNSTABLE", "FAILED")):
            name, _, unit = line.split()[:3]
            assert NAME.fullmatch(name), name
            assert name in declared, f"{name} is not in BENCHMARK.json"
            assert unit == declared[name]["unit"]
            printed[workload].add(name)

    assert list(printed) == [w["name"] for w in manifest["workloads"]]
    results = json.loads(output.read_text())["workloads"]
    for workload, names in printed.items():
        for entry in manifest["end_to_end"]:
            assert entry["name"] in names, (workload, entry["name"])
        for name, (_, workloads) in registry.WORKLOAD_METRICS.items():
            assert (name in names) == (workload in workloads), (
                workload, name)
        measured = results[workload]["metrics"]
        assert measured["failure_share"]["value"] == 0, (
            results[workload]["failures"])
        assert measured["bench.phase_sum_frac"]["value"] >= 0.95
        # The service is measured only where a workload enters it.
        assert any(n.startswith("service.") for n in names) == (
            workload in registry.CHURN)


def test_registry_names_are_declared():
    declared = registry.declared(registry.load_manifest())
    assert set(registry.WORKLOAD_METRICS) <= set(declared)
    assert registry.EXACT <= set(declared)
    prefixes = {name.rsplit(".", 1)[0] for name in declared if "." in name}
    assert prefixes == set(registry.MOVES)
