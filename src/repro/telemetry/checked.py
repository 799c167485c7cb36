"""The run-twice check every demo shares.

A checked demo executes its flow twice over identical inputs and
compares the canonical serialisations byte for byte.  Only the first
pass is instrumented and monitored, so the one verdict proves two
things: the flow is deterministic, and neither the telemetry hub nor
the conformance watchdog leaks into the canonical report.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import Callable, TypeVar

from repro.telemetry.hub import coalesce

__all__ = ["canonical_json", "run_twice"]

T = TypeVar("T")


def canonical_json(record: dict[str, object]) -> str:
    """The byte-deterministic form of a demo record.

    Keys starting with ``_`` carry non-canonical artifacts for the
    caller (``_conformance``: the first pass's watchdog report) and
    never enter the serialisation.

    >>> canonical_json({"b": 1, "a": 2, "_conformance": object()})
    '{\\n  "a": 2,\\n  "b": 1\\n}'
    """
    return json.dumps({key: value for key, value in record.items()
                       if not key.startswith("_")},
                      indent=2, sort_keys=True)


def run_twice(one_run: Callable[..., T],
              dump: Callable[[T], str] = canonical_json, *,
              phases: tuple[str | None, str],
              telemetry=None, monitor=None) -> tuple[T, str, bool]:
    """Run ``one_run`` twice; return ``(first, canonical, identical)``.

    ``one_run(telemetry, monitor)`` is called with the caller's hub and
    monitor for the first pass and with ``(None, None)`` for the
    second; ``dump`` renders a pass's canonical serialisation.
    ``phases`` names the wall-clock phases the two passes are timed
    under on the caller's hub (``None`` for a first pass that times its
    own stages).
    """
    tel = coalesce(telemetry)
    with tel.phase(phases[0]) if phases[0] else nullcontext():
        first = one_run(telemetry, monitor)
    with tel.phase(phases[1]):
        canonical = dump(first)
        identical = canonical == dump(one_run(None, None))
    return first, canonical, identical
