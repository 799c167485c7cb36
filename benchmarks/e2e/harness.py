"""One workload in one fresh interpreter: the measured side of the benchmark.

``run.py`` starts this file three times per workload, one after the
other, and pools the passes: a run then samples three interpreter
layouts and a longer stretch of the host's drift than one block of
passes would.  The protocol of each:

    calibration -> imports -> input generation from the seed -> cold pass
    (= set-up) -> gc.freeze -> timed passes, tracing off, gc parked,
    calibration after each -> (first interpreter only) one traced pass

and prints one JSON object.  Host times are reported on a calibrated
clock (see :func:`calibration_s`): each pass's durations are scaled by
reference / measured time of the calibration loop run around it.

Every layer is measured from outside: phase spans around the driver's
own calls, and — in the traced pass only — timing wrappers on the
public methods the service reaches through its public attributes,
restored in ``finally``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import metrics as registry


# -- spans ------------------------------------------------------------------

class Tracer:
    """In-memory spans ``[name, start, end, parent index]``.

    :meth:`span` is always on (a pass has about a dozen phases);
    :meth:`wrap` installs per-call wrappers and is only used when
    ``detailed`` — the traced pass.
    """

    def __init__(self, detailed: bool = False):
        self.detailed = detailed
        self.spans: list[list] = []
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, name: str):
        spans, open_ = self.spans, self._open
        entry = [name, time.perf_counter(), 0.0,
                 open_[-1] if open_ else None]
        open_.append(len(spans))
        spans.append(entry)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            open_.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is an instance (the wrapper shadows the method on the
        instance) or a class (the attribute is replaced and put back).
        """
        original = getattr(owner, attr)
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def timed(*args, **kwargs):
            entry = [name, clock(), 0.0, open_[-1] if open_ else None]
            open_.append(len(spans))
            spans.append(entry)
            try:
                return original(*args, **kwargs)
            finally:
                entry[2] = clock()
                open_.pop()

        self._wrapped.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._wrapped:
            owner, attr, original, own = self._wrapped.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def duration(self, name: str) -> float:
        """Summed host seconds of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, the convention ``ServiceMetrics`` uses."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, straight from its spans.

    Every span name ``x`` yields ``x_s`` (summed host seconds); a
    layer's self time is its span minus its direct children.  Names the
    manifest does not declare are dropped by the caller.
    """
    spans = tracer.spans
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    for index, (name, start, end, _) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child_time[index]
        durations.setdefault(name, []).append(end - start)
    out = {f"{name}_s": sum(values) for name, values in durations.items()}
    if "service.controller.run" in own:
        out["service.controller.self_s"] = (
            own["service.controller.run"]
            + own.get("service.controller.process", 0.0))
    if "simulation.composability.verify" in own:
        # verify_timeline minus the backend runs it makes: the comparison.
        out["simulation.composability.compare_s"] = own[
            "simulation.composability.verify"]
    for name, metric, q in (
            ("service.controller.process",
             "service.controller.event_p50_us", 0.50),
            ("service.controller.process",
             "service.controller.event_p99_us", 0.99),
            ("service.admission.admit",
             "service.admission.admit_p50_us", 0.50),
            ("service.invariants.check",
             "service.invariants.check_p99_us", 0.99)):
        if name in durations:
            out[metric] = 1e6 * percentile(durations[name], q)
    if "core.allocation.route_quotes" in durations:
        out["core.allocation.route_quotes_calls"] = len(
            durations["core.allocation.route_quotes"])
    phases = sum(end - start for _, start, end, parent in spans
                 if parent == 0)
    out["bench.phase_sum_frac"] = phases / (spans[0][2] - spans[0][1])
    return out


# -- calibration ------------------------------------------------------------

#: What :func:`calibration_s` takes on this container when the host is
#: quiet.  It only anchors the unit of the calibrated clock.
REFERENCE_S = 0.040


def calibration_s() -> float:
    """Host seconds of a fixed pure-Python loop (about 40 ms).

    Run before and after every pass.  This host's speed moves by a
    factor of up to two for minutes at a time (a neighbour, not this
    process: CPU time moves with wall time), which no statistic over a
    ten-second run removes; the loop measures that factor where the
    pass ran.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def calibrated(values: dict[str, float], scale: float,
               units: dict[str, str]) -> dict[str, float]:
    """Host times on the calibrated clock: durations x ``scale``, rates
    / ``scale``; counts and ratios are left alone."""
    out = {}
    for name, value in values.items():
        unit = units.get(name, "")
        if unit in ("s", "us"):
            value *= scale
        elif unit.endswith("/s"):
            value /= scale
        out[name] = value
    return out


# -- passes -----------------------------------------------------------------

def summarise(values: list[float]) -> dict[str, float]:
    """Median with quartiles and n, as every timing is reported."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Checks:
    """The denominator and numerator of ``failure_share``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def run_pass(workload, checks: Checks, *, detailed: bool = False):
    """One pass with gc parked; returns (tracer, wall, digest, values)."""
    tracer = Tracer(detailed)
    gc.collect()
    gc.disable()
    try:
        with tracer.span("pass"):
            text, values = workload.one_pass(tracer, checks)
            with tracer.span("bench.digest"):
                digest = hashlib.sha256(text.encode()).hexdigest()
    finally:
        tracer.restore()
        gc.enable()
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    return tracer, wall, digest, values


def measure(args) -> dict:
    """The protocol for one workload in this interpreter.

    Returns per-pass samples on the calibrated clock; ``run.py`` pools
    them over its fresh interpreters and takes the medians.
    """
    units = {name: entry["unit"] for name, entry in
             registry.declared(registry.load_manifest()).items()}
    calibrations = [calibration_s()]

    def scale() -> float:
        """Reference over measured loop time around the last pass."""
        calibrations.append(calibration_s())
        return 2 * REFERENCE_S / (calibrations[-2] + calibrations[-1])

    start = time.perf_counter()
    sys.path.insert(0, str(registry.ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - start
    checks = Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    setup_tracer = Tracer()
    with setup_tracer.span("generate"):
        workload.generate(setup_tracer)
    generate_s = setup_tracer.spans[0][2] - setup_tracer.spans[0][1]
    cold_tracer, cold_s, digest, _ = run_pass(workload, checks)
    setup_scale = scale()

    gc.collect()
    gc.freeze()
    samples: dict[str, list[float]] = {}
    deadline = time.perf_counter() + args.seconds
    while (len(samples.get("wall_s", ())) < args.min_passes
           or time.perf_counter() < deadline):
        _, wall, pass_digest, values = run_pass(workload, checks)
        checks.check("digest repeats", pass_digest == digest)
        sample = {"wall_s": wall, **workload.end_to_end(values, wall)}
        for name, value in calibrated(sample, scale(), units).items():
            samples.setdefault(name, []).append(value)

    layers: dict[str, float] = {}
    if args.traced:
        tracer, traced_wall, pass_digest, values = run_pass(
            workload, checks, detailed=True)
        checks.check("digest repeats (traced)", pass_digest == digest)
        traced_scale = scale()
        # The pass's own end-to-end samples stay the untraced medians.
        values = {name: value for name, value in values.items()
                  if name not in samples}
        layers = calibrated({**layer_metrics(tracer), **values},
                            traced_scale, units)
        setup = {"bench.import_s": import_s,
                 "service.controller.cold_run_s":
                     cold_tracer.duration("service.controller.run"),
                 "service.churn.generate_s":
                     setup_tracer.duration("service.churn.generate"),
                 "faults.model.schedule_s":
                     setup_tracer.duration("faults.model.schedule")}
        layers.update(calibrated(
            {name: value for name, value in setup.items() if value},
            setup_scale, units))
        layers["bench.trace_overhead_frac"] = (
            traced_wall * traced_scale
            / statistics.median(samples["wall_s"]) - 1.0)
        checks.check("phases cover the traced pass",
                     layers["bench.phase_sum_frac"] >= 0.95)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(
                [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p in tracer.spans]))
    return {
        "setup_s": (import_s + generate_s + cold_s) * setup_scale,
        "samples": samples, "layers": layers, "digest": digest,
        "attempted": checks.attempted, "failures": checks.failures,
        "calibrations": calibrations,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
