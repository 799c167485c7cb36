"""Tier-2 benchmark: compiled executor vs the per-flit oracle on epochs.

Opt in with ``--tier2``.  Builds a synthetic reconfiguration
timeline over the Section VII use case (all 200 connections live, then
a long stop/restart churn sequence — two transitions every ten slots)
and executes it both ways through
:meth:`~repro.simulation.flitsim.FlitLevelSimulator.run_timeline`:

* compiled — the vectorised epoch executor
  (:mod:`repro.simulation.compiled`; the production path when numpy
  is importable);
* ``compiled=False`` — the per-flit loop, rebuilding only the schedule
  rows a transition touches (the oracle).

Both paths must produce bit-identical traces and flit counts.  The
benchmark asserts the compiled executor beats the per-flit path by
``TARGET_SPEEDUP_COMPILED`` and (with ``--bench-record``) appends the
measurement to ``benchmarks/records/BENCH_replay_epochs.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.core.timeline import ReconfigurationTimeline, TimelineEvent
from repro.simulation.compiled import numpy_available
from repro.simulation.composability import replay_traffic
from repro.simulation.flitsim import FlitLevelSimulator

#: Stop/restart pairs in the churn sequence (two epochs each).
N_TOGGLES = 300
#: Slots between consecutive transitions.
TRANSITION_SPACING = 5
#: Compiled executor over the per-flit path.
TARGET_SPEEDUP_COMPILED = 10.0


def _section7_timeline(config) -> ReconfigurationTimeline:
    """All channels start at slot 0; then a round-robin stop/restart."""
    allocations = sorted(config.allocation.channels.items())
    events = [TimelineEvent(0, "start", name, (ca,))
              for name, ca in allocations]
    slot = TRANSITION_SPACING
    for index in range(N_TOGGLES):
        name, ca = allocations[index % len(allocations)]
        events.append(TimelineEvent(slot, "stop", name))
        slot += TRANSITION_SPACING
        events.append(TimelineEvent(slot, "start", name, (ca,)))
        slot += TRANSITION_SPACING
    return ReconfigurationTimeline(
        config.topology, events, horizon_slots=slot + TRANSITION_SPACING,
        table_size=config.table_size, frequency_hz=config.frequency_hz,
        fmt=config.fmt)


def test_compiled_replay_speedup(benchmark, tier2, section7,
                                 bench_record):
    _, config = section7
    timeline = _section7_timeline(config)
    # Traffic on a handful of channels keeps the traces meaningful
    # without letting injection work drown the recompilation signal the
    # benchmark isolates.
    names = sorted(config.allocation.channels)[:8]
    traffic = {name: pattern
               for name, pattern in replay_traffic(timeline).items()
               if name in names}
    scalar = FlitLevelSimulator(config, compiled=False)
    production = FlitLevelSimulator(config)

    def run(sim):
        start = time.perf_counter()
        result = sim.run_timeline(timeline, traffic=traffic)
        return result, time.perf_counter() - start

    # Warm pass per path (also the correctness gate: bit-identical
    # traces and flit counts).
    warm_scalar, _ = run(scalar)
    warm_prod, _ = run(production)
    n_epochs = 2 * N_TOGGLES + 1
    assert warm_scalar.n_epochs == warm_prod.n_epochs == n_epochs
    assert warm_prod.flits_by_channel == warm_scalar.flits_by_channel
    for name in names:
        assert warm_prod.trace.trace(name) == warm_scalar.trace.trace(name)
    assert warm_prod.compiled == numpy_available()

    per_flit_s = min(run(scalar)[1] for _ in range(3))
    production_s = min(run(production)[1] for _ in range(3))
    compiled_speedup = per_flit_s / production_s

    result, _ = benchmark.pedantic(lambda: run(production), rounds=3,
                                   iterations=1)
    assert result.n_epochs == n_epochs
    benchmark.extra_info["epochs"] = result.n_epochs
    benchmark.extra_info["per_flit_s"] = round(per_flit_s, 6)
    benchmark.extra_info["compiled_s"] = round(production_s, 6)
    benchmark.extra_info["compiled_speedup"] = round(compiled_speedup, 2)
    if numpy_available():
        assert compiled_speedup >= TARGET_SPEEDUP_COMPILED, (
            f"compiled executor only {compiled_speedup:.2f}x faster "
            f"than the per-flit path "
            f"(target >= {TARGET_SPEEDUP_COMPILED}x)")
    bench_record(
        "replay_epochs",
        wall_s=production_s,
        ops_per_s=timeline.horizon_slots / production_s,
        speedup=compiled_speedup,
        executor="compiled" if warm_prod.compiled else "per-flit",
        n_epochs=n_epochs,
        horizon_slots=timeline.horizon_slots,
        incremental_s=per_flit_s)
