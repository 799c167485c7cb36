"""Tier-2 gate: compiled executor vs the per-flit oracle, two plans.

Opt in with ``--tier2``.  The production flit path is the vectorised
executor (:mod:`repro.simulation.compiled`), which
:class:`~repro.simulation.backend.FlitLevelBackend` runs; the per-flit
oracle it is checked against (:func:`repro.simulation.flitsim.execute`,
called here directly on the same lifetime table) runs one channel
incarnation at a time.  Both run the Section VII use case (200
connections) on two shapes of lifetime table:

* ``churn`` — every connection live at slot 0, then a round-robin
  stop/restart sequence, two transitions every ten slots: 601 short
  epochs and 500 incarnations;
* ``static`` — the table of a plain run: all 200 connections under the
  use case's burst traffic for ``STATIC_SLOTS`` slots, so the per-flit
  work dominates.

On each plan the two executors must agree bit for bit — executor name,
epoch count, per-channel flit counts and traces, the worst latency
margin.  On the static plan the compiled one must also be at least
``TARGET_SPEEDUP`` times faster (about 17x on one Xeon core); the
compiled churn run takes about a millisecond, too short to hold a
ratio to.  The test records nothing; times are reported by
``benchmarks/e2e`` (``pipeline``, ``sec7_static``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.timeline import (ReconfigurationTimeline, TimelineEvent,
                                 lifetime_boundaries, static_lifetimes)
from repro.simulation.backend import FlitLevelBackend, SimRequest
from repro.simulation.composability import replay_traffic
from repro.simulation.flitsim import execute as oracle_execute
from repro.telemetry.hub import NULL_TELEMETRY
from repro.usecase.runner import burst_traffic, fold_requirements

#: Stop/restart pairs in the churn sequence (two epochs each).
N_TOGGLES = 300
#: Slots between consecutive transitions.
TRANSITION_SPACING = 5
#: Horizon of the one-epoch plan.
STATIC_SLOTS = 2500
#: Compiled executor over the per-flit oracle, on the static plan.
TARGET_SPEEDUP = 10.0


def _churn_plan(config) -> SimRequest:
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
    timeline = ReconfigurationTimeline(
        config.topology, events, horizon_slots=slot + TRANSITION_SPACING,
        table_size=config.table_size, frequency_hz=config.frequency_hz,
        fmt=config.fmt)
    # Traffic on a handful of channels keeps the traces meaningful;
    # the plan's weight is its incarnations, not its flits.
    names = sorted(config.allocation.channels)[:8]
    traffic = {name: pattern
               for name, pattern in replay_traffic(timeline).items()
               if name in names}
    return SimRequest(n_slots=timeline.horizon_slots, traffic=traffic,
                      timeline=timeline)


def _static_plan(config) -> SimRequest:
    return SimRequest(n_slots=STATIC_SLOTS, traffic=burst_traffic(config))


#: Plan -> (request builder, epoch count, whether the speedup is gated).
PLANS = {"churn": (_churn_plan, 2 * N_TOGGLES + 1, False),
         "static": (_static_plan, 1, True)}


def _worst_margin_ns(config, stats) -> float:
    worst = {}
    for name in config.allocation.channels:
        observed = stats.service_observation(name).worst_ns
        if observed is not None:
            worst[name] = observed
    return fold_requirements(config.allocation.channels.values(), worst)[2]


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_compiled_speedup(tier2, section7, plan):
    _, config = section7
    build, n_epochs, timed = PLANS[plan]
    request = build(config)

    backend = FlitLevelBackend(config)

    def run_compiled():
        """The backend's run: (stats, meta, seconds)."""
        start = time.perf_counter()
        result = backend.run(request)
        return result.stats, result.meta, time.perf_counter() - start

    def run_oracle():
        """The oracle on the lifetime table the backend would replay,
        built inside the timing as the backend builds it."""
        start = time.perf_counter()
        lifetimes = (static_lifetimes(config.allocation, request.n_slots)
                     if request.timeline is None
                     else request.timeline.channel_intervals())
        stats, meta = oracle_execute(config, lifetimes, request.n_slots,
                                     dict(request.traffic), NULL_TELEMETRY)
        meta["n_epochs"] = len(lifetime_boundaries(lifetimes,
                                                   request.n_slots))
        return stats, meta, time.perf_counter() - start

    # Warm pass per executor doubles as the equivalence gate: the
    # compiled path must reproduce the oracle's run bit for bit.
    fast, fast_meta, _ = run_compiled()
    oracle, oracle_meta, _ = run_oracle()
    assert fast_meta["executor"] == "compiled"
    assert oracle_meta["executor"] == "per-flit"
    assert fast_meta["n_epochs"] == oracle_meta["n_epochs"] == n_epochs
    assert fast_meta["flits_by_channel"] == oracle_meta["flits_by_channel"]
    assert sum(fast_meta["flits_by_channel"].values()) > 0
    fast_trace, oracle_trace = fast.composability_trace(), \
        oracle.composability_trace()
    for name in oracle.channels:
        assert fast_trace.trace(name) == oracle_trace.trace(name), name
    assert _worst_margin_ns(config, fast) == _worst_margin_ns(config, oracle)
    if not timed:
        return

    compiled_s = min(run_compiled()[2] for _ in range(3))
    oracle_s = min(run_oracle()[2] for _ in range(3))
    speedup = oracle_s / compiled_s
    assert speedup >= TARGET_SPEEDUP, (
        f"compiled executor only {speedup:.2f}x faster than the "
        f"per-flit oracle on the {plan} plan "
        f"(target >= {TARGET_SPEEDUP}x)")
