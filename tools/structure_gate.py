#!/usr/bin/env python3
"""Structure gate: what was merged into one stays one, what was deleted
stays deleted.  One table; the first broken rule is printed and exits 1
(``python3 tools/structure_gate.py [repo-root]``).

A rule is ``(pattern, scope, allowed, (low, high), message)``: ``pattern``
is a regex matched per line of every ``*.py`` file (``scope`` ending in
``/*``: every text file) under the ``scope`` paths; lines in files whose
repo-relative path matches the regex ``allowed`` are not counted; the
count must lie in ``[low, high]``.  The few rules a line cannot hold
(an import statement or a signature spans lines) follow the table in
:func:`first_violation`.
"""

import ast
import functools
import re
import sys
from pathlib import Path

SRC = ("src/repro",)
NONE, ONCE = (0, 0), (1, 1)
_EXECUTORS = r"repro\.(simulation\.(flitsim|compiled)|baseline\.be_network)\b"
_GONE = "is back under src/repro"
_STATS = r"src/repro/simulation/(monitors|compiled)\.py"
#: Modules whose ``_``-prefixed names stay inside ``src/repro/core``.
_SEAMS = ("repro.core.placement", "repro.core.allocation")
_PRIVATE = ("a _-prefixed name of core.placement or core.allocation is "
            "imported outside src/repro/core")

RULES = [
    (r"mode\s*(==|!=|in|not in)\s*[\(\"']", SRC,
     r"src/repro/campaign/kinds\.py", NONE,
     "mode comparison outside src/repro/campaign/kinds.py"),
    (r"def _execute_\w*_run", ("src/repro/campaign/runner.py",), None, NONE,
     "a per-mode run body is back in campaign/runner.py"),
    (r"_build_arrivals|_check_timeline|_free_injection_slots", SRC, None, NONE,
     f"a deleted special-case path {_GONE}"),
    (r"rotate_mask\(", SRC, r"src/repro/core/slot_table\.py", ONCE,
     "rotate_mask( must have one call site outside core/slot_table.py"),
    (r"choose\(mask_to_slots\(", ("src/repro/core/placement.py",), None, NONE,
     "place unpacks the free mask for its chooser again (the choosers "
     "take the mask)"),
    (r"_sorted_free|set\(free", ("src/repro/core/slot_table.py",), None, NONE,
     "core/slot_table.py sorts or sets the free slots again (the choosers "
     "work on the free-slot mask)"),
    (r"slots_for_channel\(", ("src/repro/core/placement.py",), None, ONCE,
     "slots_for_channel( must occur once in core/placement.py"),
    (r"\b(RouteQuotes|cached_route_quotes|_quote_cache|RouteCandidate|"
     r"quote_routes)\b", SRC, None, NONE,
     "a per-(NI pair, requirement) quote cache or its candidate records "
     f"{_GONE} (a quote is per requirement and traversal time: "
     "SlotAllocator.quote_memo)"),
    (r"\bshifted\(", ("src/repro/core/allocation.py",
                      "src/repro/core/placement.py"), None, NONE,
     "shifted( is called in core/allocation.py or core/placement.py: "
     "per-link occupancy has one derivation, the masks ChannelAllocation "
     "derives at construction"),
    (r"\bfirst_fit\b", SRC, None, NONE,
     "first_fit is back under src/repro (place returns the channel's "
     "record)"),
    (r"\blink_key_set\b", SRC, None, NONE,
     "Path.link_key_set is back (isdisjoint reads the path's key tuple)"),
    (r"cached_property", ("src/repro/core/path.py",), None, NONE,
     "a cached_property memo is back in core/path.py (a route's facts are "
     "derived once, when the Path is built, from its links' own keys)"),
    (r"link_occupancy\(|\b_link_occupancy\b", SRC, None, NONE,
     "ChannelAllocation.link_occupancy is called or memoised again (an "
     "attribute derived once, at construction)"),
    (r"^(?!\s*(>>>|\.\.\.)).*\bChannelAllocation\(", SRC,
     r"src/repro/core/placement\.py", NONE,
     "a ChannelAllocation is built outside core/placement.py (a placement "
     "returns the record)"),
    (r"set_excluded_links|free_injection_mask|_path_free_mask|"
     r"def candidate_paths|_pending_admit_us", SRC, None, NONE,
     f"a deleted placement twin or fault-state mirror {_GONE}"),
    (r"link_tables|def link_slots\b|check_free|\.mirrors\(", SRC, None, NONE,
     "a second record of who holds a link slot is back under src/repro "
     "(Allocation.channels is the record, link_masks its one index)"),
    (r"class SlotTable\b", SRC, None, NONE,
     "class SlotTable is back under src/repro (an NI's slot table is the "
     "owner row Allocation.ni_injection_table reads off the records)"),
    (r"\brepro\.core\.(placement|allocation)\._\w", SRC, r"src/repro/core/",
     NONE, _PRIVATE),
    (r"\bself\.active\b", ("src/repro/service/controller.py",), None, NONE,
     "SessionService copies allocation.channels into an active map again"),
    (r"\(key, slot\)|tuple\[tuple\[str, str\], int\]",
     ("src/repro/core/timeline.py",), None, NONE,
     "timeline validation keeps a per-(link, slot) dict again; check an "
     "epoch on per-link masks"),
    (r"^\s*(import|from) networkx", SRC, None, NONE,
     "networkx is imported under src/repro"),
    (r"_k(route|path)_cache\b[^=]*=\s*\\?\s*(\{\}|dict\(\))",
     ("src/repro/core/allocation.py",), None, NONE,
     "core/allocation.py keeps route geometry of its own again"),
    *((re.escape(text), SRC, None, ONCE,
       f"replay-guard message {text!r} must be spelled exactly once")
      for text in ("timeline was recorded on a different topology object",
                   "timeline table size {",
                   "timeline frequency differs from the configuration's",
                   "timeline word format differs from the configuration's",
                   "must be in (0, {",
                   "traffic names channels outside the timeline")),
    (r"^\s*(from|import) repro\.usecase", ("src/repro/telemetry",), None, NONE,
     "src/repro/telemetry imports repro.usecase"),
    (re.escape('getattr(stats, "service_latencies_ns"'), SRC, None, NONE,
     "dispatch on whether a collector has service_latencies_ns is back"),
    (r"def service_latencies_ns", SRC, _STATS, NONE,
     "service latency defined outside simulation/monitors.py"),
    (r"full_horizon_cycles", ("src/repro/simulation/compiled.py",
                              "src/repro/baseline/be_network.py"), None, NONE,
     "a pattern table is compiled for the whole run again"),
    (r"def (pattern_slice|_run_interval)\b", SRC, None, NONE,
     "the per-incarnation compile or solve is back under src/repro (a run "
     "is one batch: compile_arrivals, then _solve)"),
    (r"\bid\(", ("src/repro/simulation/compiled.py",
                 "src/repro/baseline/be_network.py"), None, NONE,
     "an identity-keyed pattern cache is back in the compiled executor or "
     "the best-effort baseline (restarts of one pattern object share one "
     "events() call inside compile_arrivals)"),
    (r"np\.unique\(", ("src/repro/simulation",), None, NONE,
     "np.unique( is back under src/repro/simulation (numpy 2's unique "
     "imports numpy.ma, about 20 ms and 1.3 MB, into every simulating "
     "process; dedupe an ascending array in order)"),
    (r"\b(_array_runs|unordered|materialised)\b",
     ("src/repro/simulation",), None, NONE,
     "a compiled read falls back to records or tuples of its own again "
     "(a compiled run's columns are the only truth)"),
    (r"def agreement", SRC, _STATS, NONE,
     "trace agreement defined outside simulation/{monitors,compiled}.py"),
    (r"bench_recor[d]|--bench-recor[d]|BENCH_[a-z_0-9]+\.json|bench_chec[k]|"
     r"bench-chec[k]|BenchVerdic[t]",
     ("src/*", "tests/*", "docs/*", "README.md", ".github/*", "benchmarks/*"),
     r"benchmarks/e2e/", NONE,
     "the perf-trajectory recorder or its sentinel is back"),
    (r"ProbeCache|probe_fingerprint|OptimizerSpec|indent: int|"
     r"_RUN_OK_STATUSES", SRC, None, NONE,
     f"a deleted design option or status mirror {_GONE}"),
    (r"DesignSpec\(", SRC, r"src/repro/design/space\.py", NONE,
     "DesignSpec( is constructed outside design/space.py"),
    (r"DesignSpec\(", ("src/repro/design/space.py",), None, (1, 99),
     "DesignSpace.scenarios no longer builds a DesignSpec"),
    (r"^\s*(from|import) repro\.(design|campaign)|\"repro\.(design|campaign)",
     ("src/repro/core", "src/repro/telemetry"), None, NONE,
     "src/repro/{core,telemetry} imports repro.design / repro.campaign"),
    (r"all_deliveries\(\)", ("src/repro/simulation/backend.py",
                            "src/repro/telemetry"), None, NONE,
     "simulation/backend.py or telemetry copies every delivery record"),
    (r"key=lambda", ("src/repro/core/slot_table.py",), None, NONE,
     "core/slot_table.py ranks candidates by a key again"),
    (r"class FlitLevelSimulator|FlitSimResult|BeSimResult|def set_traffic|"
     r"def run_timeline|numpy_available|raw=", SRC, None, NONE,
     f"a deleted simulator entry point, result class or numpy fork {_GONE}"),
    (r"check_replay\(", SRC, r"src/repro/core/timeline\.py", (0, 2),
     "check_replay( has more than two call sites outside core/timeline.py"),
    (rf"^\s*(from|import) {_EXECUTORS}|\"{_EXECUTORS}\"|"
     r"^\s*from repro\.(simulation|baseline) import .*"
     r"\b(flitsim|compiled|be_network)\b", SRC,
     r"src/repro/(simulation/(backend|flitsim|compiled)|baseline/be_network)"
     r"\.py", NONE,
     "an executor is imported outside simulation/backend.py and its peers"),
    (r"def _route_tick|def _inject_tick|def _try_advance|"
     r"class _BufferedFlit", SRC, None, NONE,
     f"a deleted best-effort per-object step {_GONE}"),
    (r"_pointer\b|\bpointer\s*(=|\+=)", SRC,
     r"src/repro/baseline/arbitration\.py", NONE,
     "a round-robin pointer lives outside baseline/arbitration.py"),
    (re.escape("link-level flow control violated"), SRC, None, ONCE,
     "the best-effort flow-control guard must be spelled exactly once"),
    (r"raise (ValueError|TypeError|KeyError)\b", SRC, None, NONE,
     "a builtin exception is raised under src/repro; refuse with "
     "ConfigurationError / TopologyError, which the CLI prints as one line"),
    (r"FlitOptions|channel_sink|\b_occupy\b|\b_check_links\b|"
     r"stalled_slots_by_channel", SRC, None, NONE,
     f"a deleted flit-executor option, trace sink or contention twin {_GONE}"),
    (r"flow_control", ("src/repro/simulation",),
     r"src/repro/simulation/cyclesim\.py", NONE,
     "flow control is back in a flit executor (credits are the word-level "
     "NI's: cyclesim's flow_control_pairs)"),
    (r"flow_control(?!_pairs\b)", ("src/repro/simulation/cyclesim.py",), None,
     NONE, "cyclesim spells flow control other than flow_control_pairs"),
    (r"def \w*contention", SRC, r"src/repro/simulation/backend\.py", NONE,
     "a contention check is defined outside simulation/backend.py"),
    (r"def check_lifetime_contention\(", ("src/repro/simulation/backend.py",),
     None, ONCE, "simulation/backend.py must define the one contention check"),
    (r"change_plan|_compile_plan|_ChannelRuntime|_apply_transition|"
     r"_compile_schedule", SRC, None, NONE,
     f"the change plan or the per-slot oracle's schedule rows {_GONE}"),
    (r"\(\(0,\s*[\w.]+,\s*\w+\),\)", SRC, None, ONCE,
     "the static lifetime table must be built in one place "
     "(core/timeline.static_lifetimes)"),
    (r"^\s*(from|import) repro\.simulation\.(flitsim|compiled)\b",
     ("src/repro/simulation/flitsim.py", "src/repro/simulation/compiled.py"),
     None, NONE, "the two flit executors import from each other"),
    (r"def steal|dispatched_extra|_MAX_BATCH|ShardJournal|\bexecute_run\b|"
     r"_safe_execute_run|_timed_execute_run", SRC, None, NONE,
     f"work stealing, adaptive batches or a run-wrapper twin {_GONE}"),
    (r"\bopen\(.*[\"']a[+b]*[\"']", ("src/repro/campaign",), None, ONCE,
     "a shard journal must have one writer (the append-mode open in "
     "CampaignWorkdir.append)"),
    (r"def load_shard\b", ("src/repro/campaign",), None, ONCE,
     "a shard journal must have one reader (CampaignWorkdir.load_shard)"),
    (r"initial_tokens|ipi_capacity|opi_capacity|DEFAULT_INITIAL_TOKENS", SRC,
     None, NONE,
     "an asynchronous token depth option is back under src/repro (each IPI "
     "is primed with its link's hop cost in connect_wrappers)"),
    (r"^    (topology|table_size|frequency_hz|fmt)\s*:",
     ("src/repro/core/configuration.py",), None, NONE,
     "NocConfiguration stores a copy of its allocation's operating point "
     "again (topology, table_size, frequency_hz and fmt are read off "
     "allocation)"),
    (r"check_contention", SRC, None, NONE,
     "a contention-checking mode is back under src/repro (call "
     "check_lifetime_contention on the lifetime table)"),
    (r"core\.serialization|configuration_(to|from)_dict|"
     r"(save|load)_configuration|\b(to|from)_dict\b|_connect_explicit|"
     r"_JSON_SCALARS|prometheus_text|\b_prom_|ConnectionSpec|"
     r"with_credit_return|min_feasible_frequency|table_size_scan|"
     r"TableSizeResult|apply_fault|repair_fault|repro\.link\.wire|"
     r"FixedPriorityArbiter|\b(failed|excluded)_at\b|def subset\b|"
     r"application_of", SRC, None, NONE,
     "a capability no entry point reached (the saved-configuration format, "
     "the Prometheus exposition, ConnectionSpec, a 1-D design-search "
     "wrapper, the offline manager's fault path or an uncalled leaf) "
     f"{_GONE}"),
    (r"\b(run_demo|run_fairness_demo|run_replay_demo|run_faults_demo|"
     r"run_design_demo|_Checked|_serve_flow|_fairness_flow|_replay_flow|"
     r"_faults_flow|_design_flow)\b", SRC, None, NONE,
     "a demo driver or a bespoke demo flow is back under src/repro (a "
     "checked demo is a campaign preset run through _preset_flow)"),
    (r"self\.compiled\b|\bcompiled\s*(:\s*bool|=\s*(True|False))|"
     r"^\s*from repro\.simulation\.flitsim import",
     ("src/repro/simulation/backend.py",), None, NONE,
     "a compiled switch is back in simulation/backend.py (a flit run has "
     "one executor; the per-flit oracle is called directly)"),
]


def _lines(root: Path, scope, allowed, lines):
    """Every line of every file the scope names and ``allowed`` does not,
    each file's through ``lines`` (split once per run)."""
    for entry in scope:
        base = root / entry.removesuffix("/*")
        glob = "*" if entry.endswith("/*") else "*.py"
        for path in [base] if base.is_file() else sorted(base.rglob(glob)):
            name = path.relative_to(root).as_posix()
            if path.is_file() and "__pycache__" not in name and \
                    not (allowed and re.match(allowed, name)):
                yield from lines(path)


def first_violation(root: Path) -> str | None:
    """The message of the first broken rule, or ``None``.

    Every file is read, and split into lines, at most once per run.
    """
    @functools.cache
    def text(path: Path) -> str:
        return path.read_text(errors="replace")

    @functools.cache
    def lines(path: Path) -> list[str]:
        return text(path).splitlines()

    for pattern, scope, allowed, (low, high), message in RULES:
        search = re.compile(pattern).search
        count = sum(bool(search(line))
                    for line in _lines(root, scope, allowed, lines))
        if not low <= count <= high:
            return f"{message} ({count} matching lines)"
    # An import statement may span lines, so this rule reads the syntax.
    for path in sorted((root / "src/repro").rglob("*.py")):
        if path.relative_to(root / "src/repro").parts[0] == "core":
            continue
        for node in ast.walk(ast.parse(text(path))):
            if isinstance(node, ast.ImportFrom) and node.module in _SEAMS \
                    and any(a.name.startswith("_") for a in node.names):
                return f"{_PRIVATE} ({path.relative_to(root).as_posix()})"
    # SessionService runs on the allocator it is handed, and on nothing
    # else: a signature spans lines, so this rule reads the syntax too.
    for node in ast.walk(ast.parse(text(
            root / "src/repro/service/controller.py"))):
        if not (isinstance(node, ast.ClassDef) and
                node.name == "SessionService"):
            continue
        for init in node.body:
            if not (isinstance(init, ast.FunctionDef) and
                    init.name == "__init__"):
                continue
            args = init.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + \
                [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            names = {a.arg for a in (*positional, *args.kwonlyargs)}
            if names & {"table_size", "frequency_hz"} or \
                    "allocator" not in names or \
                    "allocator" in {a.arg for a in defaulted}:
                return ("SessionService takes table_size or frequency_hz, "
                        "or an optional allocator, again (the allocator it "
                        "is handed fixes the operating point)")
    if (root / "benchmarks/records").exists():
        return "benchmarks/records is back"
    # The best-effort loop asks the topology at construction only.
    source = text(root / "src/repro/baseline/be_network.py")
    built = re.search(r" def _build_routers.*?(?=\n    def |\Z)", source,
                      re.S)
    for lookup in ("neighbor_on_port(", "attached_router("):
        if source.count(lookup) != 1 or not built or \
                built.group().count(lookup) != 1:
            return f"{lookup} must have one call site, inside _build_routers"


if __name__ == "__main__":
    problem = first_violation(Path(sys.argv[1]) if sys.argv[1:] else
                              Path(__file__).resolve().parents[1])
    if problem:
        sys.exit(f"structure gate: {problem}")
