"""The run-twice check every demo shares.

A checked demo executes its flow twice over identical inputs and
compares the canonical serialisations byte for byte.  Only the first
pass is instrumented and monitored, so the one verdict proves two
things: the flow is deterministic, and neither the telemetry hub nor
the conformance watchdog leaks into the canonical report.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.telemetry.hub import coalesce

__all__ = ["run_twice"]

T = TypeVar("T")


def run_twice(one_run: Callable[..., T], dump: Callable[[T], str], *,
              phases: tuple[str, str], telemetry=None,
              monitor=None) -> tuple[T, str, bool]:
    """Run ``one_run`` twice; return ``(first, canonical, identical)``.

    ``one_run(telemetry, monitor)`` is called with the caller's hub and
    monitor for the first pass and with ``(None, None)`` for the
    second; ``dump`` renders a pass's canonical serialisation.
    ``phases`` names the wall-clock phases the two passes are timed
    under on the caller's hub.
    """
    tel = coalesce(telemetry)
    with tel.phase(phases[0]):
        first = one_run(telemetry, monitor)
    with tel.phase(phases[1]):
        canonical = dump(first)
        identical = canonical == dump(one_run(None, None))
    return first, canonical, identical
