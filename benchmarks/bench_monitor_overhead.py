"""Tier-2 gate: the cost of the armed conformance watchdog.

Opt in with ``--tier2``.  Runs the shared on/off harness
(``overhead.py``: admission churn on the Section VII mesh, alternating
rounds over fresh interpreters, per-mode minima) with ``monitor=None``
against ``monitor=MonitorSpec()``, and gates ``min(on) / min(off) - 1``
below ``MAX_OVERHEAD``.

The gate pins the watchdog's architecture: quoting analytical bounds
inline on every accepted admission would cost ~10% of the admission
loop, so the armed hot path only *retains* each accepted (immutable)
``ChannelAllocation`` — one tuple append — and
``conformance_report()`` computes the bounds at read time, exactly the
deferred-aggregation shape the telemetry capture already uses.  The
timed section covers the armed churn run; the deferred fold runs
outside it (it is a per-report cost, not a per-event one).

Every round also re-asserts the watchdog's own contracts: the
monitored run's service report is byte-identical to the unmonitored
one, and the conformance report is byte-identical across rounds and
across processes.
"""

from __future__ import annotations

from overhead import measure_overhead

_MODE = """
from repro.telemetry.monitor import MonitorSpec

arm = MonitorSpec


def build(monitor):
    return SessionService(topology, allocator=allocator,
                          record_events=False, monitor=monitor)


def observe(service, monitor):
    conformance = service.conformance_report(scenario="bench")
    assert conformance.n_violated == 0, conformance.summary()
    return conformance.to_json()


def conclude(observed):
    # The watchdog's verdict is deterministic across rounds.
    text, = set(observed)
    return {
        "n_monitored": len(json.loads(text)["channels"]),
        "conformance_sha": hashlib.sha256(
            text.encode("utf-8")).hexdigest(),
    }
"""


def test_monitor_overhead_below_gate(tier2):
    measured = measure_overhead(_MODE)
    samples = measured.samples
    # Every interpreter produced the same conformance report.
    assert len({s["conformance_sha"] for s in samples}) == 1
    assert len({s["n_monitored"] for s in samples}) == 1
    measured.assert_below_gate("armed conformance monitoring")
