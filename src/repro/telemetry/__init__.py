"""Deterministic observability: metrics, sim-time tracing, profiling.

The paper's headline claim is *predictability*; this package makes the
reproduction's own machinery predictable to observe.  One
:class:`Telemetry` hub is threaded through the four hot layers —
admission (:mod:`repro.service.admission`), allocation
(:mod:`repro.core.allocation`), the compiled executor
(:mod:`repro.simulation.compiled`), and campaigns
(:mod:`repro.campaign.runner`) — and captures:

* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms keyed by name + label tuples;
* :mod:`repro.telemetry.spans` — spans whose timestamps are *simulated*
  slots/cycles/milliseconds, never wall clock, so traces inherit the
  repo's byte-determinism; wall-clock data is quarantined in ``meta``;
* :mod:`repro.telemetry.export` — JSONL and Perfetto-loadable Chrome
  trace-event JSON;
* :mod:`repro.telemetry.monitor` — the analysis tier: the
  guarantee-conformance watchdog (observed latency/throughput vs the
  quoted analytical bounds, classified ``within_bounds`` / ``tight`` /
  ``violated``) and fabric utilisation rollups;
* :mod:`repro.telemetry.profiling` — the CLI ``--profile`` wrapper.

Disabled is the default: every instrumented constructor takes
``telemetry=None`` and normalises it to :data:`NULL_TELEMETRY`, whose
instruments are shared no-ops — the overhead gate
(``benchmarks/bench_telemetry_overhead.py``) holds enabled-mode capture
under 5% on the admission hot path and disabled mode within noise.
"""

from repro.telemetry.export import chrome_trace, to_jsonl
from repro.telemetry.hub import (NULL_TELEMETRY, NullTelemetry, Telemetry,
                                 coalesce)
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricRegistry)
from repro.telemetry.monitor import (ChannelConformance,
                                     ConformanceReport, FabricRollup,
                                     MonitorSpec, conformance_from_result,
                                     quote_conformance,
                                     timeline_conformance)
from repro.telemetry.profiling import run_profiled
from repro.telemetry.spans import CounterTrack, Span

__all__ = [
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "coalesce",
    "Counter", "Gauge", "Histogram", "MetricRegistry", "Span",
    "CounterTrack",
    "to_jsonl", "chrome_trace", "run_profiled",
    "MonitorSpec", "ChannelConformance", "ConformanceReport",
    "conformance_from_result", "timeline_conformance",
    "quote_conformance", "FabricRollup",
]
