#!/usr/bin/env python3
"""Traced memory per phase of one warm benchmark pass: where a footprint is.

    python3 tools/mem_phases.py WORKLOAD [--seed N] [--smoke]

Two tables under ``tracemalloc`` (numpy's buffers included):

* per phase of one warm pass (after the cold pass and ``gc.freeze``):
  live MB before -> after and the peak inside each phase span and its
  direct children;
* *retained by the cold pass* — the ``RETAINED_TOP`` allocation sites,
  by source line, whose live memory grew across the cold pass: what the
  caches a cold pass fills (routes, quotes, paths) keep for every later
  pass, which the warm table cannot show;

and one without it, the benchmark's own number: ``ru_maxrss`` — what
``peak_rss_mb`` reports — after the imports and the input generation
and at the exit of every span of the cold pass and of ``WARM_PASSES``
warm passes, read in a fresh interpreter that never starts
``tracemalloc`` (its bookkeeping would raise the high-water mark).  A
``peak_rss_mb`` move is then pinned to the span that set it.

``benchmarks/e2e`` is only imported.
"""
import argparse
import concurrent.futures
import gc
import multiprocessing
import resource
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]
import harness  # noqa: E402
import workloads  # noqa: E402

#: Sites the retained table lists.
RETAINED_TOP = 12
#: Warm passes the ``ru_maxrss`` table runs after the cold one.
WARM_PASSES = 3


class MemTracer(harness.Tracer):
    """Spans that also read ``tracemalloc`` on the way in and out."""

    def __init__(self):
        super().__init__()
        self.rows = []   # [depth, name, live before, live after, peak]
        self.peaks = []  # running peak of every open span

    def mark(self) -> int:
        """Live bytes; the peak since the last mark reaches all open spans."""
        live, peak = tracemalloc.get_traced_memory()
        self.peaks[:] = [max(p, peak) for p in self.peaks]
        tracemalloc.reset_peak()
        return live

    @contextmanager
    def span(self, name: str):
        row = [len(self.peaks), name, self.mark(), 0, 0]
        self.rows.append(row)
        self.peaks.append(row[2])
        try:
            with super().span(name):
                yield
        finally:
            row[3], row[4] = self.mark(), self.peaks.pop()


def maxrss_mb() -> float:
    """This process's resident high-water mark, as ``peak_rss_mb``."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssTracer(harness.Tracer):
    """Spans that read ``ru_maxrss`` on the way out."""

    def __init__(self):
        super().__init__()
        self.rows = []  # [depth, name, ru_maxrss MB at exit]
        self.depth = 0

    @contextmanager
    def span(self, name: str):
        row = [self.depth, name, 0.0]
        self.rows.append(row)
        self.depth += 1
        try:
            with super().span(name):
                yield
        finally:
            self.depth -= 1
            row[2] = maxrss_mb()


def rss_passes(name: str, seed: int, smoke: bool):
    """The benchmark's protocol in this interpreter, untraced: the
    ``ru_maxrss`` after the imports and the input generation, and the
    rows of the cold pass and of each warm pass (gc parked in a pass,
    frozen after the cold one)."""
    readings = {"imports": maxrss_mb()}
    workload = workloads.WORKLOADS[name](seed, smoke)
    workload.generate(harness.Tracer())
    readings["generate"] = maxrss_mb()
    passes = []
    for index in range(1 + WARM_PASSES):
        tracer = RssTracer()
        gc.collect()
        gc.disable()
        try:
            with tracer.span("pass"):
                workload.one_pass(tracer, harness.Checks())
        finally:
            tracer.restore()
            gc.enable()
        if not index:
            gc.collect()
            gc.freeze()
        passes.append(tracer.rows)
    return readings, passes


def rss_table(readings, passes) -> list[str]:
    """``ru_maxrss`` at each span's exit, one column per pass: the
    high-water mark only rises, so the span where a column first steps
    up is the one that set it."""
    lines = ["ru_maxrss MB without tracemalloc (a fresh interpreter): "
             + ", ".join(f"{key} {value:.1f}"
                         for key, value in readings.items()),
             f"{'span':<52}{'cold':>8}" + "".join(
                 f"{f'warm{index}':>8}" for index in range(1, len(passes)))]
    for index, (depth, name, _) in enumerate(passes[0]):
        if depth <= 2:
            lines.append(f"{'  ' * depth + name:<52}" + "".join(
                f"{rows[index][2]:>8.1f}" for rows in passes))
    return lines


def retained_table(before, after) -> list[str]:
    """The ``RETAINED_TOP`` source lines whose live traced memory grew
    most from snapshot ``before`` to ``after``, with the growth in MB and
    blocks."""
    own = (tracemalloc.Filter(False, tracemalloc.__file__),)
    grown = [stat for stat in after.filter_traces(own).compare_to(
        before.filter_traces(own), "lineno") if stat.size_diff > 0]
    total = sum(stat.size_diff for stat in grown)
    lines = [f"retained by the cold pass: {total / 1e6:.1f} MB over "
             f"{len(grown)} lines that grew; top {RETAINED_TOP}",
             f"{'site':<60}{'MB':>8}{'blocks':>10}"]
    for stat in grown[:RETAINED_TOP]:
        frame = stat.traceback[0]
        name = Path(frame.filename)
        if name.is_relative_to(ROOT):
            name = name.relative_to(ROOT)
        lines.append(f"{f'{name}:{frame.lineno}':<60}"
                     f"{stat.size_diff / 1e6:>8.2f}{stat.count_diff:>10}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as fresh:
        untraced = fresh.submit(rss_passes, args.workload, args.seed,
                                args.smoke).result()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.generate(harness.Tracer())
    tracemalloc.start()
    cold = tracemalloc.take_snapshot()
    harness.run_pass(workload, harness.Checks())
    gc.collect()
    retained = retained_table(cold, tracemalloc.take_snapshot())
    del cold
    tracemalloc.stop()
    gc.freeze()
    tracer = MemTracer()
    tracemalloc.start()
    with tracer.span("pass"):
        workload.one_pass(tracer, harness.Checks())
    print(f"{'span':<52}{'live MB before -> after':>24}{'peak':>8}")
    for depth, name, before, after, peak in tracer.rows:
        if depth <= 2:
            print(f"{'  ' * depth + name:<52}{before / 1e6:>12.1f} ->"
                  f"{after / 1e6:>9.1f}{peak / 1e6:>8.1f}")
    print("\n".join(retained))
    print("\n".join(rss_table(*untraced)))
