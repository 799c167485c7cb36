#!/usr/bin/env python3
"""cProfile of one benchmark pass: the profile that motivates a change.

    python3 tools/profile_pass.py WORKLOAD [--cold] [--seed N] [--smoke]
        [--top N]

Generates the workload's inputs, runs one unprofiled pass unless
``--cold`` (so the profiled pass is warm, like the timed ones), then
profiles one pass with the collector parked, as the benchmark times it,
and prints the top-N functions by cumulative time.  cProfile does not
follow ``fork``: the CPU time and involuntary context switches of the
worker processes the pass created and reaped (``RUSAGE_CHILDREN``) are
printed beside the profile, so a cost paid in a worker (an import, an
oversubscribed thread pool) is not invisible.  cProfile inflates
Python calls against native work, so it names candidates; the benchmark
(``benchmarks/e2e/run.py``), which this script only imports, measures
them.
"""
import argparse
import cProfile
import gc
import pstats
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]
import harness  # noqa: E402
import workloads  # noqa: E402


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--cold", action="store_true")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--top", type=int, default=25)
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
    try:
        profile.runcall(workload.one_pass, harness.Tracer(), checks)
    finally:
        gc.enable()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if checks.failures:
        sys.exit(f"profiled pass failed its checks: {checks.failures}")
    stats = pstats.Stats(profile)
    print(f"{args.workload} seed={args.seed} "
          f"{'cold' if args.cold else 'warm'} pass: "
          f"{stats.total_tt:.3f} s profiled")
    child_cpu_s = (after.ru_utime + after.ru_stime
                   - before.ru_utime - before.ru_stime)
    print(f"worker processes of the pass (RUSAGE_CHILDREN, outside the "
          f"profile): {child_cpu_s:.3f} s CPU (user + system), "
          f"{after.ru_nivcsw - before.ru_nivcsw} involuntary context "
          f"switches")
    stats.sort_stats("cumulative").print_stats(args.top)
