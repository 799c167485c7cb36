#!/usr/bin/env python3
"""Reachability: every function under ``src/repro`` runs, or is named.

Runs the repository's entry points (:func:`entry_points`: the CLI's
experiments, checked demos, ``--profile``, every campaign preset, a
checkpointed streaming campaign and its resume, every example, and
every end-to-end benchmark workload at smoke size), each in its own
interpreter with a ``sitecustomize`` hook on ``PYTHONPATH`` that
records which code objects under ``src/repro`` were entered.  Then it
lists every function and method (nested ones included; a stub of only a
docstring, ``pass`` or ``...`` has nothing to run and is not counted)
that no entry point entered and that ``tools/reachability_allow.txt``
does not name, and exits 1 if there is any.

The hook is a :mod:`cProfile` profiler enabled at interpreter start.
A program that runs its own profiler (``python -m repro --profile``)
pauses it; what that profiler saw is read when it stops.  A
multiprocessing worker leaves through ``os._exit`` and never runs
``atexit``, so the hook also wraps ``BaseProcess._bootstrap`` and
writes the worker's trace in its ``finally``.

The allow-list has one function a line::

    repro.pkg.module:Class.method  <class>  # reason

``<class>`` is one of :data:`CLASSES`; the reason is mandatory, a
``paper-model`` line names the test under ``tests/`` that holds it, and
a ``test-lever`` line names that test or the ``ROADMAP item`` that will
run the lever.  A line without a known class or a reason, a line naming
a function that does not exist, and a line naming a function that was
reached are errors too, so the list cannot outlive what it excuses.  The
report's last line tallies the allow lines by class.

    python3 tools/reachability.py

The traced run takes about 55 s on a two-core container, so CI runs it
as its own job rather than in tier-1.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOW = Path(__file__).resolve().parent / "reachability_allow.txt"

#: Why a function no entry point reaches may stay in the package.
CLASSES = {
    "oracle": "an independent reference that tests compare against",
    "paper-model": "a model of the paper that a named test holds",
    "failure-path": "a refusal or failure branch no healthy run takes",
    "test-lever": "a seam that tests drive",
    "repr": "a REPL representation",
    "blind-spot": "runs, but where the trace cannot see it",
}

#: Written as ``sitecustomize.py`` into the hook directory.
HOOK = '''\
import atexit, cProfile, os
import multiprocessing.process as _process

_SRC = os.environ["REACH_SRC"]
_OUT = os.environ["REACH_OUT"]
_enable, _disable = cProfile.Profile.enable, cProfile.Profile.disable
_reached = set()


def _harvest(profiler):
    for entry in profiler.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename.startswith(_SRC):
            _reached.add((code.co_filename, code.co_firstlineno,
                          code.co_name))


def _enable_other(self, *args, **kwargs):
    if self is not _hook:
        _disable(_hook)
    _enable(self, *args, **kwargs)


def _disable_other(self):
    _disable(self)
    if self is not _hook:
        _harvest(self)
        _enable(_hook)


def _dump():
    _disable(_hook)
    _harvest(_hook)
    with open(os.path.join(_OUT, f"{os.getpid()}.trace"), "a") as out:
        out.writelines("\\t".join(map(str, key)) + "\\n" for key in _reached)


_bootstrap = _process.BaseProcess._bootstrap


def _traced_bootstrap(self, *args, **kwargs):
    try:
        return _bootstrap(self, *args, **kwargs)
    finally:
        _dump()


_process.BaseProcess._bootstrap = _traced_bootstrap
cProfile.Profile.enable = _enable_other
cProfile.Profile.disable = _disable_other
atexit.register(_dump)
_hook = cProfile.Profile()
_enable(_hook)
'''


def entry_points() -> list[list[str]]:
    """Argument lists (after the interpreter) of every traced invocation;
    the files they write land in the working directory."""
    sys.path.insert(0, str(PACKAGE.parent))
    from repro.campaign.presets import PRESETS
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    repro = ["-m", "repro"]
    presets = [[*repro, "campaign", "--preset", name, "--workers", "2"]
               for name in sorted(PRESETS)
               if name.endswith("_campaign") and name != "demo_campaign"]
    checkpointed = [*repro, "campaign", "--demo", "--monitor", "--stream"]
    return [
        [*repro, "all"],
        [*repro, "serve", "--demo", "--events", "200", "--telemetry",
         "serve-telemetry.jsonl", "--trace", "serve-trace.json"],
        [*repro, "serve", "--policy", "wfq", "--demo", "--events", "600",
         "--output", "fairness-demo.json"],
        [*repro, "replay", "--demo", "--events", "120", "--slots", "1200"],
        [*repro, "design", "--demo"],
        [*repro, "design", "--demo", "--spare-capacity", "0.25"],
        [*repro, "faults", "--demo", "--events", "120", "--slots", "1200",
         "--monitor", "--monitor-output", "faults-conformance.json"],
        [*repro, "monitor", "--demo", "--slots", "1500", "--telemetry",
         "monitor-telemetry.jsonl"],
        [*repro, "--profile", "ablations"],
        [*repro, "campaign", "--demo"],
        [*repro, "campaign", "--demo", "--list"],
        *presets,
        [*checkpointed, "--workdir", "wd", "--telemetry", "campaign.jsonl"],
        [*checkpointed, "--resume", "wd", "--output", "resumed.json"],
        *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
        *([str(ROOT / "benchmarks" / "e2e" / "run.py"), "--workload",
           workload["name"], "--smoke"] for workload in workloads),
    ]


def trace(out: Path) -> None:
    """Run every entry point under the hook; traces go to ``out``."""
    with tempfile.TemporaryDirectory() as scratch:
        hook = Path(scratch) / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_SRC=str(PACKAGE), REACH_OUT=str(out),
                   PYTHONPATH=os.pathsep.join(
                       [str(hook), str(PACKAGE.parent)]))
        for argv in entry_points():
            began = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=scratch,
                                  env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            label = " ".join(Path(a).name if os.sep in a else a
                             for a in argv)
            print(f"{time.perf_counter() - began:6.1f} s  {label}",
                  file=sys.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"entry point failed ({proc.returncode}): "
                                 f"{label}\n{proc.stderr}")


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of nothing but a docstring, ``pass`` or ``...`` (a
    protocol method, a null object's no-op) has no code to reach."""
    return all(isinstance(s, ast.Pass) or (
        isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        for s in node.body)


def functions(package: Path) -> dict[tuple[str, int, str], str]:
    """``{(path, first line, name): "module:qualname"}`` of every ``def``
    but the stubs.

    The first line is that of the first decorator, as a code object's
    ``co_firstlineno`` has it; ``path`` is relative to the package's
    parent directory.  The name keeps a function on a module's first
    line apart from the module's own code.
    """
    found: dict[tuple[str, int, str], str] = {}

    def walk(node: ast.AST, rel: str, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                if not _is_stub(child):
                    found[rel, first, child.name] = \
                        f"{module}:{prefix}{child.name}"
                walk(child, rel, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, module, f"{prefix}{child.name}.")
            else:
                walk(child, rel, module, prefix)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent)
        module = ".".join(rel.with_suffix("").parts)
        module = module.removesuffix(".__init__")
        walk(ast.parse(path.read_bytes()), rel.as_posix(), module, "")
    return found


def read_traces(traces: Path, package: Path) -> set[tuple[str, int, str]]:
    """``(path, first line, name)`` of every code object a trace file
    names."""
    reached = set()
    for path in traces.glob("*.trace"):
        for line in path.read_text().splitlines():
            filename, first, name = line.split("\t")
            rel = Path(filename).resolve().relative_to(
                package.parent.resolve())
            reached.add((rel.as_posix(), int(first), name))
    return reached


def report(package: Path, reached: set[tuple[str, int, str]],
           allow_text: str) -> list[str]:
    """Every unreached function the allow-list does not name, and every
    allow line that is malformed or stale; empty when all is well."""
    defined = functions(package)
    names = {name: key for key, name in defined.items()}
    allowed: set[str] = set()
    problems = []
    for number, raw in enumerate(allow_text.splitlines(), 1):
        entry, _, reason = raw.partition("#")
        if not entry.strip():
            continue
        fields = entry.split()
        where = f"allow line {number}: {fields[0]}"
        if len(fields) != 2 or fields[1] not in CLASSES:
            problems.append(f"{where} has no class (one of "
                            f"{', '.join(CLASSES)})")
        elif not reason.strip():
            problems.append(f"{where} gives no reason")
        elif fields[1] == "paper-model" and "tests/" not in reason:
            problems.append(f"{where} is a paper model that names no test")
        elif fields[1] == "test-lever" and "tests/" not in reason and \
                "ROADMAP item" not in reason:
            problems.append(f"{where} is a test lever that names no test "
                            "or ROADMAP item")
        elif fields[0] not in names:
            problems.append(f"{where} names no function under {package.name}")
        elif names[fields[0]] in reached:
            problems.append(f"{where} is reached; drop the line")
        allowed.add(fields[0])
    for key, name in sorted(defined.items()):
        if key not in reached and name not in allowed:
            problems.append(f"{key[0]}:{key[1]}: {name} is reached by no "
                            f"entry point")
    return problems


def tally(allow_text: str) -> str:
    """The allow lines per class, in :data:`CLASSES` order."""
    counts = dict.fromkeys(CLASSES, 0)
    for raw in allow_text.splitlines():
        fields = raw.partition("#")[0].split()
        if len(fields) == 2 and fields[1] in counts:
            counts[fields[1]] += 1
    return "allow lines: " + ", ".join(
        f"{count} {name}" for name, count in counts.items())


def main() -> int:
    with tempfile.TemporaryDirectory() as traces:
        trace(Path(traces))
        problems = report(PACKAGE, read_traces(Path(traces), PACKAGE),
                          ALLOW.read_text())
    for problem in problems:
        print(problem)
    total = len(functions(PACKAGE))
    print(f"{total} functions under src/repro, {len(problems)} problems; "
          f"{tally(ALLOW.read_text())}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
