"""Render a telemetry capture: JSONL, Chrome trace.

Two targets, one source of truth (the hub's registry + span list):

* :func:`to_jsonl` — one canonical JSON object per line: all metrics in
  registry-sorted order, then all sim-time spans in emission order, then
  a single trailing ``{"kind": "meta", ...}`` line holding everything
  wall-clock (phase timers, wall metrics/spans).  Strip that one line
  and the stream is byte-deterministic across repeated runs.
* :func:`chrome_trace` — Chrome trace-event JSON, loadable in Perfetto
  (https://ui.perfetto.dev) for epoch/session/campaign timelines.  Each
  span track becomes a named thread; wall-clock tracks live in their own
  process so simulated and measured time never share an axis.
"""

from __future__ import annotations

import json

from repro.telemetry.spans import SPAN_UNITS, Span

__all__ = ["to_jsonl", "chrome_trace"]

_CANONICAL = {"sort_keys": True, "separators": (",", ":")}


def _dumps(obj: dict) -> str:
    return json.dumps(obj, **_CANONICAL)


def to_jsonl(tel) -> str:
    """The JSONL rendering of a :class:`~repro.telemetry.Telemetry`.

    Deterministic lines first, the wall-clock ``meta`` line last.
    """
    lines = [_dumps({"kind": "header", "name": tel.name, "version": 1})]
    wall_metrics = []
    for metric in tel.registry.metrics():
        if metric.wall:
            wall_metrics.append(metric.to_record())
        else:
            lines.append(_dumps(metric.to_record()))
    wall_spans = []
    for span in tel.spans:
        if span.wall:
            wall_spans.append(span.to_record())
        else:
            lines.append(_dumps(span.to_record()))
    lines.extend(_dumps(counter.to_record())
                 for counter in getattr(tel, "counter_tracks", ()))
    meta = {"kind": "meta", **tel.meta}
    if wall_metrics:
        meta["wall_metrics"] = wall_metrics
    if wall_spans:
        meta["wall_spans"] = wall_spans
    lines.append(_dumps(meta))
    return "\n".join(lines) + "\n"


def chrome_trace(tel) -> dict:
    """Chrome trace-event JSON for the capture, as a plain dict.

    Simulated tracks share pid 1 (process ``tel.name``); wall-clock
    tracks get pid 2 (process ``<name> [wall]``).  Track-to-thread ids
    are assigned in first-appearance order, so the layout is as
    deterministic as the span stream itself.
    """
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}
    for pid, label in ((1, tel.name), (2, f"{tel.name} [wall]")):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    for span in tel.spans:
        pid = 2 if span.wall else 1
        key = (pid, span.track)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == pid]) + 1
            tids[key] = tid
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid,
                           "args": {"name": f"{span.track} "
                                            f"[{span.unit}]"}})
        scale = SPAN_UNITS[span.unit]
        ts = round(span.start * scale, 3)
        dur = round(span.duration * scale, 3)
        event = {"name": span.name, "cat": span.track, "pid": pid,
                 "tid": tid, "ts": ts, "args": dict(span.args)}
        if dur > 0:
            event.update(ph="X", dur=dur)
        else:
            event.update(ph="i", s="t")
        events.append(event)
    for counter in getattr(tel, "counter_tracks", ()):
        scale = SPAN_UNITS[counter.unit]
        for ts, value in counter.points:
            events.append({"ph": "C", "name": counter.name,
                           "cat": counter.track, "pid": 1, "tid": 0,
                           "ts": round(ts * scale, 3),
                           "args": {counter.name: value}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
