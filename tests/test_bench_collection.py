"""The tier-2 gates under ``benchmarks/`` must at least import and collect.

Plain ``pytest`` never collects ``bench_*.py``, and every ratio gate
skips without ``--tier2`` — so a renamed import in one of them used to
surface only for the next person who opted in.  Collecting them here
(imports and fixtures resolved, nothing run) makes that a tier-1
failure.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_every_bench_file_collects():
    assert BENCH_FILES
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *map(str, BENCH_FILES)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for path in BENCH_FILES:
        assert f"{path.name}::test_" in proc.stdout, path.name


def test_mem_phases_probe_runs_on_the_pipeline():
    """``tools/mem_phases.py`` is how a footprint claim is re-measured:
    it must keep running against the benchmark's own workload code."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mem_phases.py"),
         "pipeline", "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    traced = proc.stdout.split("retained by the cold pass:")[0]
    rows = {line.split()[0]: line.split() for line in
            traced.splitlines()[1:]}
    assert "pass" in rows and "simulation.backend.flit_run" in rows
    before, arrow, after, peak = rows["pass"][1:]
    assert arrow == "->" and float(peak) >= float(after) >= float(before)
    assert "retained by the cold pass:" in proc.stdout


def test_mem_phases_pins_the_benchmark_peak_to_a_span():
    """The untraced table reads ``ru_maxrss`` — the benchmark's
    ``peak_rss_mb`` — at every span exit of a cold and three warm
    passes in a fresh interpreter: it only rises, so each span's row
    ascends from pass to pass and each pass column ends at its pass."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "mem_phases.py"),
         "sec7_static", "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    head, untraced = proc.stdout.split(
        "ru_maxrss MB without tracemalloc (a fresh interpreter): ")
    readings, header, *lines = untraced.splitlines()
    imports, generate = (float(part.split()[1])
                         for part in readings.split(", "))
    assert header.split() == ["span", "cold", "warm1", "warm2", "warm3"]
    rows = {line.split()[0]: [float(value) for value in line.split()[1:]]
            for line in lines}
    assert {"pass", "baseline.be_network.run",
            "simulation.backend.gs_run"} <= set(rows)
    for values in rows.values():
        assert values == sorted(values) and values[0] >= generate
    assert generate >= imports > 0
    for index, column in enumerate(zip(*rows.values())):
        assert max(column) == rows["pass"][index]


def test_profile_pass_prints_the_top_rows():
    """``tools/profile_pass.py`` re-takes the profile that motivated an
    optimisation, against the benchmark's own workload code."""
    for cold in ([], ["--cold"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "profile_pass.py"),
             "churn_varied", "--smoke", "--top", "8", *cold],
            capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        first = proc.stdout.splitlines()[0]
        assert first.startswith("churn_varied seed=2009 "
                                f"{'cold' if cold else 'warm'} pass: ")
        assert "Ordered by: cumulative time" in proc.stdout
        assert "to 8 due to restriction <8>" in proc.stdout
        assert "(admit)" in proc.stdout


def test_profile_pass_counts_the_pool_workers():
    """The campaign pool outlives the profiled pass, so the kernel never
    reaps its workers there: their CPU is read live, not left at 0."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_pass.py"),
         "campaign_grid", "--smoke", "--top", "5"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    live, reaped = proc.stdout.splitlines()[1:3]
    assert live.startswith("live pool workers during the pass (/proc, ")
    assert float(live.split("profile): ")[1].split()[0]) > 0
    assert reaped.startswith("workers the pass reaped (RUSAGE_CHILDREN, ")


def test_profile_pass_profiles_one_phase():
    """``--phase SPAN`` profiles only inside the named phase span, and a
    span the pass never opens is refused with the names it does open."""
    tool = str(ROOT / "tools" / "profile_pass.py")
    proc = subprocess.run(
        [sys.executable, tool, "sec7_static", "--smoke", "--top", "40",
         "--phase", "telemetry.monitor.static_conformance"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0].startswith(
        "sec7_static seed=2009 phase telemetry.monitor.static_conformance "
        "(1 spans) of the warm pass: ")
    assert "(conformance_from_result)" in proc.stdout
    assert "(run_be)" not in proc.stdout
    proc = subprocess.run(
        [sys.executable, tool, "sec7_static", "--smoke", "--phase", "nope"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    assert "the pass has no span 'nope'; its spans: " in proc.stderr
    assert "telemetry.monitor.static_conformance" in proc.stderr
