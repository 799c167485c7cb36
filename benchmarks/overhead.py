"""The on/off overhead harness behind the telemetry and monitor gates.

Runs an admission-churn workload (seeded churn on the Section VII
mesh, warm allocator caches, ``record_events=False``) twice per round —
once plain, once with the feature under test armed — alternating the
order every round, and estimates the feature's cost as
``min(on) / min(off) - 1``.  Three measurement details make a 5% gate
hold on noisy shared hosts:

* the collector is disabled around each timed run (``gc.disable``) —
  collection pauses otherwise dominate sub-second timings;
* the estimator is the ratio of per-mode *minima* over many
  alternating rounds: the minimum converges to the quiet-host time
  for both modes, while medians of sub-second runs carry
  multi-percent scheduler/steal noise.  A genuine hot-path regression
  inflates every round, minima included; and
* rounds are spread over ``PROCESSES`` fresh interpreter processes:
  code-layout luck (ASLR) can bias one mode by several percent for a
  whole process lifetime, so each mode's minimum is taken across
  independently laid-out interpreters.

When even that is not enough — the *off* mode's per-process minima,
which measure identical code, already differ by more than the gate —
the host cannot resolve a 5% bound and the gate reports ``unresolved``
(a skip carrying the numbers), not a regression.

Every round also re-asserts the contract both features share: the
armed run's service report is byte-identical to the plain one, within
each process and across processes.

A *mode* is a source snippet executed inside the worker after the
workload is built (``topology``, ``events``, ``allocator`` in scope).
It defines ``arm()`` (a fresh armed-mode object), ``build(on)`` (the
service for one run; ``on`` is ``None`` for the plain mode),
``observe(service, on)`` (what to keep from an armed run, read outside
the timed section) and ``conclude(observed)`` (mode-specific contracts;
returns extra fields for the worker's JSON line).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest

TABLE_SIZE = 32
FREQUENCY_HZ = 500e6
#: Paired (off, on) rounds measured inside each worker process.
ROUNDS_PER_PROCESS = 5
#: Fresh interpreter processes (independent code layouts) per mode.
PROCESSES = 3
#: Armed-mode wall-clock ceiling, relative to the plain mode.
MAX_OVERHEAD = 0.05


def _worker_source(mode: str) -> str:
    """The measurement body, run in a fresh interpreter per sample so
    that per-process code-layout bias is resampled.  Prints one JSON
    object."""
    return f"""
import gc, hashlib, json, time

from repro.core.allocation import SlotAllocator
from repro.service import ChurnSpec, ChurnWorkload, SessionService
from repro.topology.builders import concentrated_mesh

topology = concentrated_mesh(4, 3, nis_per_router=4)
workload = ChurnWorkload(
    ChurnSpec(n_sessions=2500, arrival_rate_per_s=5000.0),
    topology, seed=42)
events = workload.events()
allocator = SlotAllocator(topology, table_size={TABLE_SIZE},
                          frequency_hz={FREQUENCY_HZ})
{mode}

def churn_run(on):
    service = build(on)
    # Collection pauses land arbitrarily in one mode or the other and
    # are bigger than the effect being measured; park the collector
    # for the timed section.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        report = service.run(events)
        wall = time.perf_counter() - start
        seen = None if on is None else observe(service, on)
    finally:
        gc.enable()
    return report, wall, seen


# Warm passes — one per mode, so the allocator's path/quote caches
# *and* the interpreter's armed-path code are both hot before anything
# is timed.
warm_report, _, _ = churn_run(None)
assert warm_report.invariant["ok"]
assert warm_report.totals["accept_rate"] > 0.9
baseline_json = warm_report.to_json()
churn_run(arm())

off_walls, on_walls, observed = [], [], []
for round_index in range({ROUNDS_PER_PROCESS}):
    # Alternate the mode order so slow drift (thermal, host load)
    # cancels instead of loading one mode.
    for on in ((arm(), None) if round_index % 2 else (None, arm())):
        report, wall, seen = churn_run(on)
        if on is None:
            off_walls.append(wall)
        else:
            on_walls.append(wall)
            observed.append(seen)
        # The headline contract: the armed mode never leaks into the
        # canonical report.
        assert report.to_json() == baseline_json

print(json.dumps({{
    "off_walls": off_walls,
    "on_walls": on_walls,
    "report_sha": hashlib.sha256(
        baseline_json.encode("utf-8")).hexdigest(),
    **conclude(observed),
}}))
"""


class Overhead(NamedTuple):
    """One resolved measurement: per-mode minima plus the raw samples."""

    off_s: float
    on_s: float
    samples: list[dict]

    @property
    def overhead(self) -> float:
        return self.on_s / self.off_s - 1.0

    def assert_below_gate(self, subject: str) -> None:
        assert self.overhead < MAX_OVERHEAD, (
            f"{subject} costs {self.overhead:.1%} on the admission hot "
            f"path (gate: {MAX_OVERHEAD:.0%}; off {self.off_s:.4f}s vs "
            f"on {self.on_s:.4f}s over "
            f"{PROCESSES}x{ROUNDS_PER_PROCESS} interleaved rounds)")


def measure_overhead(mode: str) -> Overhead:
    """Run ``mode`` through the harness; skips when unresolved."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    # Serial on purpose: parallel workers would contend for the CPU
    # and time each other's noise.
    for _ in range(PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-c", _worker_source(mode)],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        samples.append(json.loads(proc.stdout))

    # Cross-process determinism: every interpreter produced the same
    # canonical report.
    assert len({s["report_sha"] for s in samples}) == 1

    off_minima = [min(s["off_walls"]) for s in samples]
    on_minima = [min(s["on_walls"]) for s in samples]
    spread = max(off_minima) / min(off_minima) - 1.0
    if spread > MAX_OVERHEAD:
        pytest.skip(
            f"unresolved: the plain mode's per-process minima spread "
            f"{spread:.1%}, wider than the {MAX_OVERHEAD:.0%} gate "
            f"(off {[round(w, 4) for w in off_minima]}s, on "
            f"{[round(w, 4) for w in on_minima]}s) — this host cannot "
            f"resolve the bound")
    return Overhead(min(off_minima), min(on_minima), samples)
