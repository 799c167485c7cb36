"""The structure gate and the census run in tier-1, and their rules bite.

``tools/structure_gate.py`` is the table CI's tier-1 job runs after the
tests, ``tools/unreferenced.py`` the census of definitions nothing
references and parameters nothing passes; running them here means a
deleted twin or option that grows back fails locally, not on the runner.
``tools/code_lines.py``, the size figure CI prints beside them, refuses
an argument it cannot count with its usage line.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "structure_gate.py"
CENSUS = ROOT / "tools" / "unreferenced.py"


def _gate(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(GATE), str(root)],
                          capture_output=True, text=True, timeout=60)


def test_the_tree_passes():
    proc = _gate(ROOT)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path, line, message", [
    ("simulation/flitsim.py", "class FlitLevelSimulator:",
     "deleted simulator entry point"),
    ("simulation/compiled.py", "def numpy_available(): return True",
     "deleted simulator entry point"),
    ("simulation/backend.py", "SimResult(raw=None)",
     "deleted simulator entry point"),
    ("simulation/backend.py",
     "t.check_replay(1)\nt.check_replay(2)", "check_replay( has more than"),
    ("usecase/runner.py",
     "from repro.simulation.flitsim import execute", "executor is imported"),
    ("__init__.py", '_X = {"E": "repro.baseline.be_network"}',
     "executor is imported"),
    ("campaign/runner.py", 'if scenario.mode == "serve": pass',
     "mode comparison outside"),
    ("baseline/be_network.py", "# topo.attached_router(ni)",
     "attached_router( must have one call site"),
    ("baseline/be_network.py", "def _try_advance(self): pass",
     "deleted best-effort per-object step"),
    ("baseline/be_network.py", "class _BufferedFlit: pass",
     "deleted best-effort per-object step"),
    ("baseline/be_network.py", "arbiter_pointer = 0",
     "round-robin pointer lives outside"),
    ("simulation/backend.py", "# link-level flow control violated",
     "flow-control guard must be spelled exactly once"),
    ("telemetry/spans.py", "def f(x):\n    raise ValueError(x)",
     "builtin exception is raised"),
    ("simulation/backend.py", "class FlitOptions: pass",
     "deleted flit-executor option"),
    ("simulation/monitors.py", "def channel_sink(self, channel): pass",
     "deleted flit-executor option, trace sink"),
    ("simulation/compiled.py", "def _occupy(occupied): pass",
     "contention twin"),
    ("simulation/compiled.py", "def materialised(self): pass",
     "falls back to records or tuples of its own"),
    ("simulation/flitsim.py", "def _check_links(state): pass",
     "contention twin"),
    ("simulation/flitsim.py", 'META = {"stalled_slots_by_channel": {}}',
     "deleted flit-executor option"),
    ("simulation/flitsim.py", "def execute(flow_control=False): pass",
     "flow control is back in a flit executor"),
    ("simulation/cyclesim.py", "FLOW_CONTROL = None\nflow_control = True",
     "cyclesim spells flow control"),
    ("simulation/compiled.py", "def _epoch_contention(plan): pass",
     "contention check is defined outside"),
    ("simulation/backend.py", "def check_lifetime_contention(t): pass",
     "must define the one contention check"),
    ("core/timeline.py", "def change_plan(self): pass",
     "the change plan or the per-slot oracle's schedule rows"),
    ("simulation/flitsim.py", "class _ChannelRuntime: pass",
     "the change plan or the per-slot oracle's schedule rows"),
    ("simulation/backend.py",
     "T = {name: ((0, request.n_slots, ca),) for name, ca in C}",
     "static lifetime table must be built in one place"),
    ("simulation/compiled.py", "from repro.simulation.flitsim import execute",
     "the two flit executors import from each other"),
    ("core/placement.py", "class RouteQuotes: pass",
     "a per-(NI pair, requirement) quote cache"),
    ("core/allocation.py", "def cached_route_quotes(self): pass",
     "a per-(NI pair, requirement) quote cache"),
    ("core/allocation.py", "_quote_cache = {}",
     "a per-(NI pair, requirement) quote cache"),
    ("service/admission.py", "Q = RouteCandidate(None, 1, None)",
     "a per-(NI pair, requirement) quote cache"),
    ("service/admission.py", "Q = tuple(quote_routes(None, None, ()))",
     "a per-(NI pair, requirement) quote cache"),
    ("core/placement.py", "N = slots_for_channel(None, None, 8, 1.0, None)",
     "slots_for_channel( must occur once in core/placement.py"),
    ("core/placement.py", "S = choose(mask_to_slots(0), 1, 8)",
     "place unpacks the free mask for its chooser again"),
    ("core/slot_table.py", "def _sorted_free(free, size): pass",
     "sorts or sets the free slots again"),
    ("core/slot_table.py", "F = set(free_slots)",
     "sorts or sets the free slots again"),
    ("core/allocation.py", "S = shifted(0, 1, 4)",
     "shifted( is called in core/allocation.py"),
    ("core/placement.py", "S = shifted(0, 1, 4)",
     "shifted( is called in core/allocation.py or core/placement.py"),
    ("core/placement.py", "first_fit = place",
     "first_fit is back under src/repro"),
    ("telemetry/monitor.py", "M = ca.link_occupancy(16)",
     "link_occupancy is called or memoised again"),
    ("core/placement.py", "_link_occupancy = None",
     "link_occupancy is called or memoised again"),
    ("service/admission.py", "CA = ChannelAllocation(None, None, (0,), 8)",
     "a ChannelAllocation is built outside"),
    ("core/allocation.py",
     "def f(ca):\n    return ChannelAllocation(ca.spec, ca.path, (0,), 8)",
     "a ChannelAllocation is built outside"),
    ("telemetry/monitor.py", "T = allocation.link_tables",
     "a second record of who holds a link slot"),
    ("core/allocation.py", "def link_slots(self, size): pass",
     "a second record of who holds a link slot"),
    ("service/admission.py", "table.check_free(0, (), 'a')",
     "a second record of who holds a link slot"),
    ("core/slot_table.py", "class SlotTable:\n    size = 8",
     "class SlotTable is back under src/repro"),
    ("ni/network_interface.py", "class SlotTable(tuple): pass",
     "class SlotTable is back under src/repro"),
    ("service/admission.py",
     "from repro.core.placement import (place,\n    _quoted)",
     "_-prefixed name of core.placement or core.allocation is imported"),
    ("faults/model.py", "from repro.core.allocation import _first_fit",
     "_-prefixed name of core.placement or core.allocation is imported"),
    ("simulation/cyclesim.py", "F = repro.core.placement._helper",
     "_-prefixed name of core.placement or core.allocation is imported"),
    ("service/controller.py", "def _f(self):\n    return self.active",
     "copies allocation.channels into an active map"),
    ("core/timeline.py",
     "OCCUPIED: dict[tuple[tuple[str, str], int], str] = {}",
     "keeps a per-(link, slot) dict"),
    ("core/timeline.py", "def _f(o, key, slot):\n    return o[(key, slot)]",
     "keeps a per-(link, slot) dict"),
    ("campaign/runner.py", "def steal(): pass", "work stealing"),
    ("campaign/runner.py", "_MAX_BATCH = 128", "adaptive batches"),
    ("campaign/fabric.py", "class ShardJournal: pass", "run-wrapper twin"),
    ("campaign/__init__.py",
     "from repro.campaign.kinds import run_kind as execute_run",
     "run-wrapper twin"),
    ("campaign/runner.py", 'J = open("j.jsonl", "a", encoding="utf-8")',
     "one writer"),
    ("campaign/kinds.py", "def load_shard(path): pass", "one reader"),
    ("simulation/compiled.py", "def pattern_slice(cache, pattern): pass",
     "per-incarnation compile or solve is back"),
    ("simulation/flitsim.py", "def _run_interval(table, count): pass",
     "per-incarnation compile or solve is back"),
    ("simulation/compiled.py", "T = cache.get(id(pattern))",
     "identity-keyed pattern cache"),
    ("simulation/compiled.py", "cuts = _np.unique(cuts)",
     "np.unique( is back under src/repro/simulation"),
    ("baseline/be_network.py", "cache[id(pattern)] = (pattern, table)",
     "identity-keyed pattern cache"),
    ("wrapper/asynchronous.py", "def f(initial_tokens=2): pass",
     "asynchronous token depth option is back"),
    ("wrapper/asynchronous.py", "def f(ipi_capacity=3): pass",
     "asynchronous token depth option is back"),
    ("wrapper/asynchronous.py", "def f(opi_capacity=2): pass",
     "asynchronous token depth option is back"),
    ("wrapper/__init__.py", "DEFAULT_INITIAL_TOKENS = 2",
     "asynchronous token depth option is back"),
    *(("core/configuration.py",
       f"class NocConfiguration:\n    {field}: object = None",
       "NocConfiguration stores a copy of its allocation's operating point")
      for field in ("topology", "table_size", "frequency_hz", "fmt")),
    ("simulation/backend.py", "def run(self, check_contention=True): pass",
     "a contention-checking mode is back"),
    ("service/controller.py", "OPTIONS = {'check_contention': True}",
     "a contention-checking mode is back"),
    ("simulation/backend.py",
     "class B:\n    def __init__(self, compiled: bool = True):\n"
     "        self.compiled = compiled",
     "a compiled switch is back in simulation/backend.py"),
    ("simulation/backend.py",
     "def run(self):\n    from repro.simulation.flitsim import execute",
     "a compiled switch is back in simulation/backend.py"),
    *(("service/controller.py",
       f"class SessionService:\n    def __init__(self, topology, *, "
       f"{params}):\n        pass",
       "SessionService takes table_size or frequency_hz, or an optional "
       "allocator")
      for params in ("allocator, table_size=32", "allocator, frequency_hz=5e8",
                     "allocator=None", "name='service'")),
    *((path, line, "a capability no entry point reached")
      for path, line in (
          ("topology/graph.py", "def to_dict(topology): pass"),
          ("telemetry/export.py", "def prometheus_text(tel): pass"),
          ("core/connection.py", "class ConnectionSpec: pass"),
          ("design/search.py", "def min_feasible_frequency(*args): pass"),
          ("core/reconfiguration.py", "def apply_fault(manager): pass"),
          ("baseline/arbitration.py", "class FixedPriorityArbiter: pass"))),
    *((path, line, "a cached_property memo is back in core/path.py")
      for path, line in (
          ("core/path.py", "from functools import cached_property"),
          ("core/path.py", "    @cached_property"))),
    *((path, line, "Path.link_key_set is back")
      for path, line in (
          ("core/placement.py", "keys = path.link_key_set"),
          ("service/admission.py", "    link_key_set = frozenset()"))),
    *((path, line, "a demo driver or a bespoke demo flow")
      for path, line in (
          ("service/controller.py", "def run_demo(): pass"),
          ("faults/demo.py", "def run_faults_demo(): pass"),
          ("__main__.py", "class _Checked: pass"),
          ("__main__.py", "def _serve_flow(args): pass"))),
])
def test_a_regrown_twin_is_refused(tmp_path, path, line, message):
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "repro" / path
    target.write_text(target.read_text() + "\n" + line + "\n")
    proc = _gate(tmp_path)
    assert proc.returncode == 1
    assert message in proc.stderr


# -- the census --------------------------------------------------------------

def _census(root: Path) -> subprocess.CompletedProcess:
    """Run the census over ``root`` (the tool reads the tree it sits in)."""
    return subprocess.run([sys.executable, str(root / "tools" / CENSUS.name)],
                          capture_output=True, text=True, timeout=60)


def _scratch(tmp_path: Path, source: str, *, caller: str = "",
             test: str = "", allow: str = "",
             package: str = "core") -> Path:
    """A tree holding the census, one module under ``src/repro/<package>``,
    one non-test caller and one test."""
    for name in ("tools", f"src/repro/{package}", "benchmarks", "examples",
                 "tests", "docs"):
        (tmp_path / name).mkdir(parents=True)
    shutil.copy(CENSUS, tmp_path / "tools")
    (tmp_path / "tools" / "unreferenced_allow.txt").write_text(allow)
    (tmp_path / "src/repro" / package / "mod.py").write_text(source)
    (tmp_path / "examples" / "caller.py").write_text(
        "from repro.core.mod import *\n" + caller)
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.core.mod import *\n" + test)
    return tmp_path


F = "def f(x, y=1):\n    return x + y\n"
POINT = ("from dataclasses import dataclass\n\n\n@dataclass\n"
         "class Point:\n    x: int\n    y: int = 1\n")


def test_the_census_passes_and_tallies():
    proc = _census(ROOT)
    assert proc.returncode == 0, proc.stdout
    assert not [line for line in proc.stdout.splitlines()[:-1]
                if not line.startswith("note: ")]
    assert re.fullmatch(
        r"\d+ parameters with defaults, (\d+) passed nowhere, \1 allowed; "
        r"noted: \d+ passed only by tests", proc.stdout.splitlines()[-1])


def test_a_parameter_nothing_passes_is_flagged(tmp_path):
    proc = _census(_scratch(tmp_path, F, caller="f(0)\n"))
    assert proc.returncode == 1
    assert "src/repro/core/mod.py:1: f(y) is passed nowhere" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith(
        "1 parameters with defaults, 1 passed nowhere, 0 allowed")


def test_an_unnamed_tests_only_parameter_is_flagged(tmp_path):
    proc = _census(_scratch(tmp_path, F, caller="f(0)\n", test="f(0, y=2)\n"))
    assert proc.returncode == 1
    assert "src/repro/core/mod.py:1: f(y) is passed only by tests and " \
        "not named in the allow-list" in proc.stdout.splitlines()
    assert proc.stdout.splitlines()[-1] == (
        "1 parameters with defaults, 0 passed nowhere, 0 allowed; "
        "noted: 1 passed only by tests")


@pytest.mark.parametrize("source, caller", [
    (F, "f(0, y=2)\n"),
    (F, "f(0, 2)\n"),
    (F, "a = (0, 2)\nf(*a)\n"),
    (F, "def g(**kw):\n    return f(0, **kw)\n\n\ng()\n"),
    (F, "from functools import partial\npartial(f, y=2)(0)\n"),
    (POINT, "import dataclasses\ndataclasses.replace(Point(0), y=2)\n"),
    (POINT, "Point(0, 2)\n"),
    ("class C:\n    def __init__(self, y=1):\n        self.y = y\n\n"
     "    @classmethod\n    def make(cls):\n        return cls(y=2)\n",
     "C.make()\n"),
    ("class B:\n    def __init__(self, y=1):\n        self.y = y\n\n\n"
     "class D(B):\n    def __init__(self):\n"
     "        super().__init__(y=2)\n", "D()\n"),
    ("class C:\n    def m(self, x, y=1):\n        return x + y\n",
     "C().m(0, 2)\n"),
    (F, "def make(factory, **kw):\n    return factory(0, **kw)\n\n\n"
        "make(f)\n"),
    (F, "class R:\n    def get(self, kind, factory):\n"
        "        return factory(0, y=kind)\n\n\nR().get(2, factory=f)\n"),
])
def test_every_way_of_passing_counts(tmp_path, source, caller):
    proc = _census(_scratch(tmp_path, source, caller=caller))
    assert proc.returncode == 0, proc.stdout
    assert " is passed " not in proc.stdout


def test_a_relay_credits_only_what_it_passes(tmp_path):
    """``make(f)`` counts as the call ``make`` makes through its parameter
    — no more: a relay that passes no ``y`` leaves ``f(y)`` flagged, and
    so does a function merely held as a value."""
    relay = "def make(factory):\n    return factory(0)\n\n\nmake(f)\n"
    proc = _census(_scratch(tmp_path / "a", F, caller=relay))
    assert proc.returncode == 1
    assert "f(y) is passed nowhere" in proc.stdout
    held = _census(_scratch(tmp_path / "b", F, caller="TABLE = {'f': f}\n"))
    assert held.returncode == 1


def test_a_method_counts_positions_after_self(tmp_path):
    source = "class C:\n    def m(self, x, y=1):\n        return x + y\n"
    proc = _census(_scratch(tmp_path, source, caller="C().m(0)\n"))
    assert proc.returncode == 1
    assert "C.m(y) is passed nowhere" in proc.stdout


def test_a_dataclass_state_field_is_not_a_parameter(tmp_path):
    source = ("from dataclasses import dataclass, field\n\n\n@dataclass\n"
              "class Point:\n    x: int\n"
              "    seen: list = field(default_factory=list, init=False)\n")
    proc = _census(_scratch(tmp_path, source, caller="Point(0)\n"))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.startswith("0 parameters with defaults")


def test_a_named_tests_only_parameter_is_a_note(tmp_path):
    proc = _census(_scratch(tmp_path, F, caller="f(0)\n", test="f(0, y=2)\n",
                            allow="f(y)  # tests/test_mod.py drives it\n"))
    assert proc.returncode == 0, proc.stdout
    assert "note: src/repro/core/mod.py:1: f(y) is passed only by tests" \
        in proc.stdout


def test_a_paper_model_package_is_gated_too(tmp_path):
    proc = _census(_scratch(tmp_path, F, caller="f(0)\n", package="synthesis"))
    assert proc.returncode == 1
    assert "src/repro/synthesis/mod.py:1: f(y) is passed nowhere" \
        in proc.stdout.splitlines()


def test_the_allow_list_needs_a_reason_and_a_finding(tmp_path):
    allowed = _scratch(tmp_path / "a", F, caller="f(0)\n",
                       allow="f(y)  # ROADMAP item 1 passes it\n")
    assert _census(allowed).returncode == 0
    bare = _census(_scratch(tmp_path / "b", F, caller="f(0)\n",
                            allow="f(y)\n"))
    assert bare.returncode == 1
    assert "f(y) is allowed without a # reason" in bare.stdout
    stale = _census(_scratch(tmp_path / "c", F, caller="f(0, 2)\n",
                             allow="f(y)  # ROADMAP item 1 passes it\n"))
    assert stale.returncode == 1
    assert "f(y) allows nothing the census finds" in stale.stdout


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory) -> Path:
    """One copy of everything the census reads, and of the census."""
    root = tmp_path_factory.mktemp("tree")
    for name in ("src", "benchmarks", "examples", "tests", "docs", "tools"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    return root


@pytest.mark.parametrize("path, old, new", [
    ("telemetry/profiling.py", "(func: Callable[[], T]) -> T:",
     "(func: Callable[[], T], *, stream=None) -> T:"),
    ("core/timeline.py", "def build(self, *, horizon_slots: int)",
     "def build(self, *, horizon_slots: int, fill: float = 0.75)"),
    ("campaign/runner.py", "def run(self) -> CampaignResult:",
     "def run(self, *, resume=None) -> CampaignResult:"),
    ("link/mesochronous.py", "reader_clock: ClockDomain, fmt: WordFormat\n",
     "reader_clock: ClockDomain, fmt: WordFormat, fifo_words: int = 4\n"),
])
def test_a_removed_parameter_cannot_come_back(tree_copy, path, old, new):
    target = tree_copy / "src" / "repro" / path
    source = target.read_text()
    assert source.count(old) == 1
    target.write_text(source.replace(old, new))
    try:
        proc = _census(tree_copy)
    finally:
        target.write_text(source)
    assert proc.returncode == 1
    assert "is passed nowhere" in proc.stdout


@pytest.mark.parametrize("args", [["--help"], ["no/such/path"], []])
def test_code_lines_refuses_bad_arguments_with_its_usage(args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), *args],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: code_lines.py")
    assert "Traceback" not in proc.stderr
