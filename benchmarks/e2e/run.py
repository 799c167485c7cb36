"""The repo's end-to-end benchmark: five workloads, each in its own
fresh interpreter, one at a time.

    python benchmarks/e2e/run.py [--seed 2009] [--workload NAME]
        [--output FILE] [--trace-out FILE] [--smoke] [--update-golden]
    python benchmarks/e2e/run.py --compare A.json B.json

Prints every metric by name with its unit, checks the outputs (golden
digests for the default seed), and exits non-zero on any failed check.
With ``--workload`` the last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics under ``--trace 0``, the per-layer metrics under ``--trace 1``,
both without ``--trace``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as registry  # noqa: E402
from harness import REFERENCE_S, summarise  # noqa: E402

DEFAULT_SEED = 2009
GOLDEN = HERE / "golden.json"
#: Fresh interpreters per workload; their passes and set-ups are pooled.
INTERPRETERS = 3
#: Timed passes per workload never drop below this (smoke runs use 1).
MIN_PASSES = 7
#: Calibration drift beyond this marks a result unstable.
MAX_DRIFT = 0.10
#: A worker that has not finished by then is killed (the contract's
#: per-run limit is 180 s).
WORKER_TIMEOUT_S = 170


def run_worker(*worker_args: str) -> dict:
    """Run ``harness.py`` in a fresh interpreter; return its JSON."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *worker_args],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker timed out: {' '.join(worker_args)}")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): "
                         f"{' '.join(worker_args)}")
    return json.loads(out.splitlines()[-1])


def run_workload(name: str, args) -> dict:
    """One workload's result, pooled over its fresh interpreters."""
    n = 1 if args.smoke else INTERPRETERS
    # Together the interpreters never time fewer than MIN_PASSES passes.
    base = ["--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds / n),
            "--min-passes", str(1 if args.smoke else -(-MIN_PASSES // n))]
    if args.smoke:
        base.append("--smoke")
    traced = list(base)
    if args.trace != 0:
        traced.append("--traced")
        if args.trace_out:
            traced += ["--trace-out", args.trace_out]
    parts = [run_worker(*(traced if index == 0 else base))
             for index in range(n)]

    first = parts[0]
    failures = [f for part in parts for f in part["failures"]]
    attempted = sum(part["attempted"] for part in parts) + 1
    if any(part["digest"] != first["digest"] for part in parts):
        failures.append("digest agrees across interpreters")
    if args.seed == DEFAULT_SEED and not args.update_golden:
        attempted += 1
        if load_golden(args).get(name) != first["digest"]:
            failures.append("digest equals golden.json")

    metrics = {
        metric: summarise([v for part in parts
                           for v in part["samples"][metric]])
        for metric in first["samples"]}
    metrics["setup_s"] = summarise([part["setup_s"] for part in parts])
    metrics["peak_rss_mb"] = {
        "value": max(part["peak_rss_mb"] for part in parts)}
    loops = [part["calibrations"] for part in parts]
    loop_s = statistics.median(v for loop in loops for v in loop)
    early = [v for loop in loops for v in loop[:len(loop) // 2]]
    late = [v for loop in loops for v in loop[-(len(loop) // 2):]]
    drift = statistics.median(late) / statistics.median(early) - 1.0
    layers = dict(first["layers"])
    layers["bench.calibration_s"] = loop_s
    # A time on the host's own clock is the reported time x this.
    layers["bench.host_slowdown"] = loop_s / REFERENCE_S
    layers["bench.calibration_drift"] = drift
    layers["failure_share"] = len(failures) / attempted
    metrics.update({metric: {"value": value}
                    for metric, value in layers.items()})
    return {"workload": name, "seed": args.seed, "smoke": args.smoke,
            "digest": first["digest"], "attempted": attempted,
            "failures": failures, "unstable": abs(drift) > MAX_DRIFT,
            "metrics": metrics}


def golden_section(args) -> str:
    return "smoke" if args.smoke else "full"


def load_golden(args) -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text()).get(golden_section(args), {})


def update_golden(results: dict, args) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden["seed"] = DEFAULT_SEED
    golden.setdefault(golden_section(args), {}).update(
        {name: result["digest"] for name, result in results.items()})
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def print_workload(name: str, result: dict, units: dict) -> None:
    print(f"== {name}  seed={result['seed']}  "
          f"checks {result['attempted'] - len(result['failures'])}"
          f"/{result['attempted']}  digest {result['digest'][:16]}")
    if result["unstable"]:
        print("   UNSTABLE: calibration drifted by "
              f"{result['metrics']['bench.calibration_drift']['value']:+.1%}"
              " during this workload; timings may reflect the host")
    for failure in result["failures"]:
        print(f"   FAILED CHECK: {failure}")
    for metric, entry in result["metrics"].items():
        if metric not in units:
            continue
        line = f"   {metric:<46} {entry['value']:>14.6g} {units[metric]}"
        if entry.get("n", 1) > 1:
            line += (f"   [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
                     f"n={entry['n']}]")
        print(line)


def contract_line(result: dict, manifest: dict, trace) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    sections = {0: ("end_to_end",), 1: ("per_layer",),
                None: ("end_to_end", "per_layer")}[trace]
    measured = result["metrics"]
    out = {}
    for section in sections:
        for entry in manifest[section]:
            # A layer this workload never enters spent 0 there.
            value = measured.get(entry["name"], {"value": 0.0})["value"]
            out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": out})


# -- compare ----------------------------------------------------------------

def judge(left: dict, right: dict, better: str, bound: float | None,
          exact: bool) -> tuple[float, str]:
    """How much worse ``right`` is than ``left`` (as a share of it), and
    whether that is ``ok``, ``regressed``, ``unresolved`` or ``info``."""
    va, vb = left["value"], right["value"]
    if va == 0:
        worse = 0.0 if vb == 0 else float("inf")
    else:
        worse = (vb - va) / abs(va) * (1 if better == "lower" else -1)
    if exact:
        return worse, "ok" if va == vb else "regressed"
    if bound is None:
        return worse, "info"
    q1a, q3a = left.get("q1", va), left.get("q3", va)
    q1b, q3b = right.get("q1", vb), right.get("q3", vb)
    if worse > bound:
        # Beyond the bound, but the two runs' quartile ranges overlap.
        overlap = left.get("n", 1) > 1 and q1a <= q3b and q1b <= q3a
        return worse, "unresolved" if overlap else "regressed"
    spread = max(q3a - q1a, q3b - q1b) / abs(va) if va else 0.0
    return worse, "unresolved" if spread > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric); non-zero when anything regressed."""
    manifest = registry.load_manifest()
    declared = registry.declared(manifest)
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = 0

    def row(workload, name, shown_a, shown_b, worse, status):
        nonlocal regressed
        regressed += status == "regressed"
        print(f"{workload:<14} {name:<46} {shown_a:>12} {shown_b:>12} "
              f"{worse:>8}  {status}")

    row("workload", "metric", "A", "B", "worse", "status")
    for workload in a:
        if workload not in b:
            continue
        digest_a, digest_b = a[workload]["digest"], b[workload]["digest"]
        row(workload, "digest", digest_a[:12], digest_b[:12], "",
            "ok" if digest_a == digest_b else "regressed")
        for name, left in a[workload]["metrics"].items():
            right = b[workload]["metrics"].get(name)
            if name not in declared or right is None:
                continue
            worse, status = judge(
                left, right, declared[name]["better"],
                registry.bound_of(name, manifest), name in registry.EXACT)
            row(workload, name, f"{left['value']:.6g}",
                f"{right['value']:.6g}", f"{worse:+.1%}", status)
    print(f"{regressed} regressed")
    return 1 if regressed else 0


# -- entry point ------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    manifest = registry.load_manifest()
    workloads = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--output")
    parser.add_argument("--trace-out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.update_golden and args.seed != DEFAULT_SEED:
        parser.error("golden digests are recorded for the default seed")
    if not (registry.ROOT / "src" / "repro").is_dir():
        raise SystemExit("src/repro not found: the benchmark measures "
                         "the repository it sits in")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else manifest["run_seconds"]
    units = {name: entry["unit"]
             for name, entry in registry.declared(manifest).items()}

    names = [args.workload] if args.workload else workloads
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        print_workload(name, results[name], units)
    if args.update_golden:
        update_golden(results, args)
        print(f"wrote {GOLDEN}")
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"seed": args.seed, "smoke": args.smoke,
             "workloads": results}, indent=2) + "\n")
    if args.workload:
        print(contract_line(results[args.workload], manifest, args.trace))
    return 1 if any(r["failures"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
