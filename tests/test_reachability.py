"""The report stage of ``tools/reachability.py`` and its trace hook.

The full run traces every entry point (about 55 s), so CI runs it as its
own job; here the report is fed a fixture trace over a tiny source tree
and must refuse, by name, an unreached function the allow-list does not
name, an allow line without a class and an allow line that is stale.
The hook itself runs once on a tiny package whose function only a
multiprocessing worker calls.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", ROOT / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

SOURCE = '''\
"""Its module code starts on line 1, its first function on 2."""
def used():
    return 1


def unused():
    return 2


class Box:
    @property
    def size(self):
        return 3

    def stub(self):
        """Nothing to run."""
'''


@pytest.fixture
def package(tmp_path: Path) -> Path:
    root = tmp_path / "src" / "pkg"
    root.mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(SOURCE)
    return root


#: The trace of a run that called ``used`` and ``Box.size``.
REACHED = [(2, "used"), (11, "size")]


def _report(package: Path, reached: list[tuple[int, str]], allow: str):
    mod = str(package / "mod.py")
    traces = package.parent.parent / "traces"
    traces.mkdir()
    (traces / "1.trace").write_text("".join(
        f"{mod}\t{line}\t{name}\n" for line, name in reached))
    return reachability.report(
        package, reachability.read_traces(traces, package), allow)


def test_functions_are_named_by_module_and_qualname(package):
    assert reachability.functions(package) == {
        ("pkg/mod.py", 2, "used"): "pkg.mod:used",
        ("pkg/mod.py", 6, "unused"): "pkg.mod:unused",
        ("pkg/mod.py", 11, "size"): "pkg.mod:Box.size",  # decorator line
    }


def test_an_allowed_unreached_function_passes(package):
    allow = "pkg.mod:unused  test-lever  # tests/test_mod.py drives it\n"
    assert _report(package, REACHED, allow) == []


def test_an_unlisted_unreached_function_is_refused(package):
    assert _report(package, REACHED, "") == [
        "pkg/mod.py:6: pkg.mod:unused is reached by no entry point"]


@pytest.mark.parametrize("line", [
    "pkg.mod:unused  # no class\n",
    "pkg.mod:unused  dead  # not a class\n",
])
def test_an_allow_line_without_a_class_is_refused(package, line):
    problems = _report(package, REACHED, line)
    assert problems == [
        f"allow line 1: pkg.mod:unused has no class (one of "
        f"{', '.join(reachability.CLASSES)})"]


def test_an_allow_line_without_a_reason_is_refused(package):
    problems = _report(package, REACHED, "pkg.mod:unused  oracle\n")
    assert problems == ["allow line 1: pkg.mod:unused gives no reason"]


def test_a_paper_model_names_its_test(package):
    problems = _report(package, REACHED,
                       "pkg.mod:unused  paper-model  # Section IV\n")
    assert problems == [
        "allow line 1: pkg.mod:unused is a paper model that names no test"]


@pytest.mark.parametrize("reason, refused", [
    ("a seam", True),
    ("tests/test_mod.py reads it", False),
    ("ROADMAP item 3 will run it", False),
], ids=["no-test-or-item", "test", "roadmap-item"])
def test_a_test_lever_names_its_test_or_item(package, reason, refused):
    problems = _report(package, REACHED,
                       f"pkg.mod:unused  test-lever  # {reason}\n")
    assert problems == ([
        "allow line 1: pkg.mod:unused is a test lever that names no test "
        "or ROADMAP item"] if refused else [])


def test_the_tally_counts_allow_lines_by_class():
    allow = ("# comment\n"
             "pkg.mod:a  repr  # REPL view\n"
             "pkg.mod:b  test-lever  # tests/test_mod.py\n"
             "pkg.mod:c  repr  # REPL view\n")
    assert reachability.tally(allow) == (
        "allow lines: 0 oracle, 0 paper-model, 0 failure-path, "
        "1 test-lever, 2 repr, 0 blind-spot")


def test_the_traced_flags_reach_their_levers():
    """``ChannelSpec.scaled`` and ``CounterTrack.to_record`` have no
    allow line: ``design --spare-capacity`` and ``monitor --telemetry``
    are traced and reach them."""
    argvs = [" ".join(argv) for argv in reachability.entry_points()]
    assert any("design --demo --spare-capacity" in argv for argv in argvs)
    assert any("monitor --demo" in argv and "--telemetry" in argv
               for argv in argvs)


def test_a_stale_allow_line_is_refused(package):
    allow = ("pkg.mod:unused  repr  # REPL view\n"
             "pkg.mod:used  repr  # REPL view\n"
             "pkg.mod:gone  repr  # REPL view\n")
    assert _report(package, REACHED, allow) == [
        "allow line 2: pkg.mod:used is reached; drop the line",
        "allow line 3: pkg.mod:gone names no function under pkg"]


WORKER_MAIN = '''\
import multiprocessing

from pkg.mod import used

if __name__ == "__main__":
    worker = multiprocessing.get_context("fork").Process(target=used)
    worker.start()
    worker.join()
'''


PROFILED_MAIN = '''\
import cProfile

from pkg.mod import Box, unused

if __name__ == "__main__":
    cProfile.Profile().runcall(unused)
    Box().size
'''


def _hooked_run(package: Path, tmp_path: Path, main: str):
    """Run ``main`` under the hook; what it reached."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(reachability.HOOK)
    traces = tmp_path / "traces"
    traces.mkdir()
    script = tmp_path / "main.py"
    script.write_text(main)
    env = dict(os.environ, REACH_SRC=str(package), REACH_OUT=str(traces),
               PYTHONPATH=os.pathsep.join([str(hook), str(package.parent)]))
    subprocess.run([sys.executable, str(script)], env=env, check=True,
                   timeout=60)
    return reachability.read_traces(traces, package)


@pytest.mark.skipif(sys.platform == "win32", reason="needs fork")
def test_the_hook_sees_what_a_worker_runs(package, tmp_path):
    """A worker leaves through ``os._exit``; the hook still writes what
    it ran, so ``used`` — called only in the worker — is reached."""
    reached = _hooked_run(package, tmp_path, WORKER_MAIN)
    assert ("pkg/mod.py", 2, "used") in reached


def test_the_hook_sees_past_another_profiler(package, tmp_path):
    """``python -m repro --profile`` runs its own profiler: what runs
    under it and what runs after it are both reached."""
    reached = _hooked_run(package, tmp_path, PROFILED_MAIN)
    assert {("pkg/mod.py", 6, "unused"), ("pkg/mod.py", 11, "size")} <= \
        reached


def test_every_allow_line_names_a_function_with_its_class():
    """The allow-list's own contract, checked without the traced run: a
    function deleted takes its allow line with it."""
    problems = reachability.report(reachability.PACKAGE, set(),
                                   reachability.ALLOW.read_text())
    assert not [p for p in problems if p.startswith("allow line")]
