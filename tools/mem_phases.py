#!/usr/bin/env python3
"""Traced memory per phase of one warm benchmark pass: where a footprint is.

    python3 tools/mem_phases.py WORKLOAD [--seed N] [--smoke]

Two tables, both under ``tracemalloc`` (numpy's buffers included):

* per phase of one warm pass (after the cold pass and ``gc.freeze``):
  live MB before -> after and the peak inside each phase span and its
  direct children;
* *retained by the cold pass* — the ``RETAINED_TOP`` allocation sites,
  by source line, whose live memory grew across the cold pass: what the
  caches a cold pass fills (routes, quotes, paths) keep for every later
  pass, which the warm table cannot show.

``benchmarks/e2e`` is only imported.
"""
import argparse
import gc
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
