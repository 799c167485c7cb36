"""Tier-2 gate: the cost of *enabled* telemetry on the hot path.

Opt in with ``--tier2``.  Runs the shared on/off harness
(``overhead.py``: admission churn on the Section VII mesh, alternating
rounds over fresh interpreters, per-mode minima) with the shared
``NULL_TELEMETRY`` default against a live :class:`repro.Telemetry` hub,
and gates ``min(on) / min(off) - 1`` below ``MAX_OVERHEAD``.

The point of the gate is architectural: the hot path pays plain
integer tallies and list appends (folded into the registry lazily,
when the hub is read), so enabling full metrics + span capture must
stay in the noise band of the admission loop.

Every round also re-asserts the observability contract itself — the
telemetry-on report is byte-identical to the telemetry-off report,
within each process and across processes.
"""

from __future__ import annotations

from overhead import measure_overhead

_MODE = """
from repro.telemetry import Telemetry


def arm():
    return Telemetry("overhead-bench")


def build(hub):
    # The allocator is shared across runs for warm caches; rebind its
    # instruments explicitly so an enabled run never leaks its hub
    # into the next disabled one.
    allocator.set_telemetry(hub)
    return SessionService(topology, allocator=allocator,
                          record_events=False, telemetry=hub)


def observe(service, hub):
    return hub.value("admission.decisions", outcome="accept")


def conclude(accepts):
    # ... and the instrumented runs actually measured the hot path.
    assert accepts[-1] and accepts[-1] > 0
    return {"accepts": accepts[-1]}
"""


def test_telemetry_overhead_below_gate(tier2):
    measured = measure_overhead(_MODE)
    # Every interpreter counted the same accepts.
    assert len({s["accepts"] for s in measured.samples}) == 1
    measured.assert_below_gate("enabled telemetry")
