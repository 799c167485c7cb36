#!/usr/bin/env python3
"""cProfile of one benchmark pass: the profile that motivates a change.

    python3 tools/profile_pass.py WORKLOAD [--cold] [--seed N] [--smoke]
        [--top N] [--phase SPAN]

Generates the workload's inputs, runs one unprofiled pass unless
``--cold`` (so the profiled pass is warm, like the timed ones), then
profiles one pass with the collector parked, as the benchmark times it,
and prints the top-N functions by cumulative time.  ``--phase SPAN``
profiles only inside the pass's phase spans called ``SPAN`` (the
``*_s`` names of a traced run without the suffix, e.g.
``telemetry.monitor.static_conformance``), so the profile behind a
phase-level change can be re-run on that phase alone.  cProfile does not
follow ``fork``, so the CPU time and involuntary context switches the
pass cost in worker processes are printed beside the profile, and a
cost paid in a worker (an import, an oversubscribed thread pool) is not
invisible: the campaign pool's live workers are read from
``/proc/<pid>/stat`` and ``/proc/<pid>/status`` before and after the
pass (a pool outlives the pass, so the kernel's ``RUSAGE_CHILDREN``
never counts it), and workers the pass created and reaped from
``RUSAGE_CHILDREN``.  cProfile inflates
Python calls against native work, so it names candidates; the benchmark
(``benchmarks/e2e/run.py``), which this script only imports, measures
them.
"""
import argparse
import cProfile
import gc
import multiprocessing
import os
import pstats
import resource
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]
import harness  # noqa: E402
import workloads  # noqa: E402


class PhaseTracer(harness.Tracer):
    """Spans as the benchmark records them, with ``profile`` enabled
    inside every span called ``phase`` and nowhere else."""

    def __init__(self, phase: str, profile: cProfile.Profile):
        super().__init__()
        self.phase = phase
        self.profile = profile
        self.entered = 0  # spans called ``phase`` opened so far

    @contextmanager
    def span(self, name: str):
        if name != self.phase:
            with super().span(name):
                yield
            return
        self.entered += 1
        self.profile.enable()
        try:
            with super().span(name):
                yield
        finally:
            self.profile.disable()


def live_workers() -> dict[int, tuple[float, int]]:
    """CPU seconds (user + system) and involuntary context switches so
    far of each live worker process this process started (Linux
    ``/proc``; empty elsewhere)."""
    usage = {}
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        # fields 14 and 15 (utime, stime), counted after "pid (comm)"
        utime, stime = stat.rsplit(")", 1)[1].split()[11:13]
        switches = next(int(line.split()[1])
                        for line in status.splitlines()
                        if line.startswith("nonvoluntary_ctxt_switches"))
        usage[child.pid] = ((int(utime) + int(stime))
                            / os.sysconf("SC_CLK_TCK"), switches)
    return usage


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--cold", action="store_true")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--phase", metavar="SPAN")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.generate(harness.Tracer())
    if not args.cold:
        harness.run_pass(workload, harness.Checks())
    checks = harness.Checks()
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    live_before = live_workers()
    tracer = PhaseTracer(args.phase, profile) if args.phase else None
    try:
        if tracer is None:
            profile.runcall(workload.one_pass, harness.Tracer(), checks)
        else:
            workload.one_pass(tracer, checks)
    finally:
        gc.enable()
    live_after = live_workers()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if checks.failures:
        sys.exit(f"profiled pass failed its checks: {checks.failures}")
    if tracer is not None and not tracer.entered:
        names = sorted({span[0] for span in tracer.spans})
        sys.exit(f"the pass has no span {args.phase!r}; its spans: "
                 f"{', '.join(names)}")
    stats = pstats.Stats(profile)
    scope = f"phase {args.phase} ({tracer.entered} spans) of the " \
        if tracer is not None else ""
    print(f"{args.workload} seed={args.seed} {scope}"
          f"{'cold' if args.cold else 'warm'} pass: "
          f"{stats.total_tt:.3f} s profiled")
    live_cpu_s = live_switches = 0
    for pid, (cpu_s, switches) in live_after.items():
        cpu_before, switches_before = live_before.get(pid, (0.0, 0))
        live_cpu_s += cpu_s - cpu_before
        live_switches += switches - switches_before
    reaped_cpu_s = (after.ru_utime + after.ru_stime
                    - before.ru_utime - before.ru_stime)
    print(f"live pool workers during the pass (/proc, outside the "
          f"profile): {live_cpu_s:.3f} s CPU (user + system), "
          f"{live_switches} involuntary context switches")
    print(f"workers the pass reaped (RUSAGE_CHILDREN, outside the "
          f"profile): {reaped_cpu_s:.3f} s CPU (user + system), "
          f"{after.ru_nivcsw - before.ru_nivcsw} involuntary context "
          f"switches")
    stats.sort_stats("cumulative").print_stats(args.top)
