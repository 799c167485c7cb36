"""Sharded, checkpointed campaign execution.

:class:`CampaignRunner` expands a :class:`~repro.campaign.spec.
CampaignSpec` into its run grid, partitions it into deterministic
shards (:mod:`repro.campaign.fabric`) and executes every run — in
process, or fanned out over worker processes one shard per message.
Completed runs stream into an incremental aggregate (and, when a
workdir is given, into per-shard JSONL journals), so huge campaigns
neither hold all results in memory nor lose progress to a kill.

Determinism is the contract: every run derives all of its randomness
from :func:`~repro.campaign.spec.derive_seed` over the run id, each
worker rebuilds its configuration from the spec alone, and the
canonical report orders records by run id.  Serial, parallel and
killed-then-resumed executions of the same spec therefore produce
*byte-identical* reports, which is what lets campaign trajectories be
diffed across commits.

Dispatch design, for the curious:

* the shard is the one partition of the grid: what is journaled,
  resumed and dispatched.  Each message carries one shard's pending
  runs (split into several messages past ``_MESSAGE_RUNS``), so every
  run is dispatched exactly once unless its worker dies;
* the parent owns one duplex pipe per worker — a worker killed
  mid-message corrupts only its own channel, which the parent treats
  as a death and re-queues the worker's unfinished runs as an item of
  their shard;
* the workers are one pool per process (:class:`_Pool`): forked by
  the first parallel ``run()``, reused by every later one, grown to the
  largest worker count asked for, and ended when the interpreter exits.
  A worker found dead is replaced at the next ``run()``; a ``run()``
  that leaves by an exception retires the workers it used, so none
  carries that campaign's in-flight messages into the next;
* each ``run()`` sends each of its workers its scenario library and
  ``base_seed`` once, in one message pickled once; batch messages carry
  only ``(run_id, scenario_name, seed)`` triples, never re-pickled
  scenario objects.
"""

from __future__ import annotations

import atexit
import hashlib
import heapq
import multiprocessing
import multiprocessing.connection
import os
import pickle
import sys
import threading
import time
import traceback
from collections import Counter, deque
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Iterator

from repro.campaign.fabric import (CampaignWorkdir, Shard,
                                   default_shard_size, iter_report_chunks,
                                   shard_campaign)
from repro.campaign.kinds import (NON_FAILURE_STATUSES, crashed_record,
                                  run_kind, summary_row)
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.core.exceptions import ConfigurationError, require_whole
from repro.telemetry.hub import coalesce

__all__ = ["CampaignRunner", "CampaignResult"]

#: A run is flagged a straggler when it took at least this many times
#: the campaign's median per-run wall time (and a non-trivial absolute
#: amount).
_STRAGGLER_RATIO = 3.0
_STRAGGLER_FLOOR_S = 0.05
#: The slowest stragglers :meth:`CampaignResult.summary` names.
_STRAGGLERS_SHOWN = 3

#: Messages kept in flight per worker so pipes never go idle between
#: dispatches.
_PIPELINE_DEPTH = 2

#: Most runs one dispatch message carries; a larger shard goes out as
#: several messages.  The parent sends a worker its next message while
#: that worker still runs (and sends back the results of) the previous
#: one, so a message must fit in a socket buffer: were the parent
#: blocked in ``send``, it would read no results, and a worker whose
#: result channel filled would never reach its next ``recv``.  128
#: triples pickle to about 3.4 KB.
_MESSAGE_RUNS = 128

#: The native thread pools a worker pins to one thread before its first
#: message, so before any run can import numpy.  Nothing in ``repro``
#: calls BLAS, yet OpenBLAS starts one thread per CPU at import; on a
#: 2-vCPU host two workers' pools competed with both workers for the
#: cores.  Pinning them took ``campaign_grid`` ``wall_s`` from 0.474 to
#: 0.395 s (median of 10 alternating pairs) and the workers' involuntary
#: context switches from ~600 to ~230 (docs/performance.md, "One thread
#: per worker").
_ONE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")

#: Slowest runs retained for the straggler report (memory cap on
#: million-run campaigns; median comes from the full wall list).
_TOP_WALLS = 128

#: Whether this process has executed a run.  Its first run pays the
#: imports and caches every later run reuses, so that envelope is marked
#: as the process's warm-up; a worker clears the flag it inherited.  So
#: is any later run during which the process imported a module: numpy
#: lands on a worker's first *simulated* run, which on a pool warmed by
#: runs that simulate nothing is not its first run.
_warmed_up = False


def _envelope(run: RunSpec) -> dict[str, object]:
    """Execute one run into its envelope: record, wall and CPU time, pid
    and whether it was a warm-up — this process's first run, or one
    during which it imported a module.

    Top-level (picklable) so a worker process can execute it.  What
    the run does is its scenario kind's business
    (:func:`repro.campaign.kinds.run_kind`); an infeasible allocation
    is a *result* (status ``allocation_failed``), not a crash.  A run
    that raises an *unexpected* exception must not poison its shard or
    the pool: the exception becomes a record with ``status="crashed"``,
    the error text and a digest of the traceback (stable across serial
    and parallel execution — the stack below this frame is identical
    either way).  Wall time, CPU time and pid feed the heartbeat,
    per-worker and straggler accounting and never reach a journal or
    the report.  ``process_time`` counts every thread of the process, so
    a thread pool the run never asked for shows up as CPU above wall.
    """
    global _warmed_up
    modules = len(sys.modules)
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        record = run_kind(run)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 — the envelope IS the handler
        record = crashed_record(run, exc, traceback.format_exc())
    warmup = not _warmed_up or len(sys.modules) > modules
    _warmed_up = True
    return {"record": record,
            "wall_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu_start,
            "pid": os.getpid(), "warmup": warmup}


@dataclass
class CampaignResult:
    """The aggregated outcome of one campaign execution.

    In the default keep-records mode ``records`` holds every run's
    record.  Under streaming aggregation
    (``CampaignRunner(..., keep_records=False)``) ``records`` stays
    empty and the canonical report streams from the workdir's shard
    journals instead — same bytes, O(shard) memory.

    ``meta`` carries the execution's wall-clock observability — the
    per-stage timing table, per-worker run counts, completion
    heartbeats, shard progress, batch/death counts and straggler flags
    — and is deliberately **excluded** from :meth:`to_json`, so the
    determinism contract (serial == parallel == resumed, run-to-run
    byte-identity) is untouched by how long anything took.
    """

    campaign: str
    base_seed: int
    records: list[dict[str, object]] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)
    status_counts: dict[str, int] | None = None
    workdir: str | None = None
    shards: tuple[Shard, ...] = ()

    @property
    def n_runs(self) -> int:
        """Total runs executed (journal-backed when streaming)."""
        if self.records or self.status_counts is None:
            return len(self.records)
        return sum(self.status_counts.values())

    @property
    def n_failed(self) -> int:
        """Runs that ended in a failure.

        Design-mode screening verdicts (``pruned`` / ``infeasible``)
        are *results* of a search, not failures — a dimensioning sweep
        that rejects most of its grid worked exactly as designed.
        Identical in streaming and keep-records modes: both fold the
        same status counters from the same envelopes.
        """
        return sum(count for status, count in self._counts().items()
                   if status not in NON_FAILURE_STATUSES)

    def _counts(self) -> dict[str, int]:
        """Runs per status (folded from ``records`` when not streamed)."""
        if self.status_counts is not None:
            return self.status_counts
        return Counter(str(r["status"]) for r in self.records)

    def iter_records(self) -> Iterator[dict[str, object]]:
        """Records in canonical (run-id-sorted) order.

        Keep-records mode iterates the in-memory list; streaming mode
        replays the shard journals, one shard in memory at a time.
        """
        if self.records or self.workdir is None:
            yield from self.records
            return
        yield from CampaignWorkdir(self.workdir).iter_records(self.shards)

    def report_chunks(self) -> Iterator[str]:
        """The canonical JSON report as a stream of text chunks."""
        return iter_report_chunks(self.campaign, self.base_seed,
                                  self.n_runs, self.n_failed,
                                  self.iter_records())

    def to_json(self) -> str:
        """Canonical JSON report: sorted keys, ordered records.

        Byte-identical across serial, parallel and killed-then-resumed
        executions of the same spec — record contents carry no
        wall-clock or process state.
        """
        return "".join(self.report_chunks())

    def digest(self) -> str:
        """SHA-256 of the canonical report, computed streamingly."""
        h = hashlib.sha256()
        for chunk in self.report_chunks():
            h.update(chunk.encode())
        return h.hexdigest()

    def write(self, path: str) -> None:
        """Stream the canonical JSON report to a file.

        Never materialises the full report string, so writing a
        100k-run report costs one record of memory.
        """
        with open(path, "w", encoding="utf-8") as handle:
            for chunk in self.report_chunks():
                handle.write(chunk)
            handle.write("\n")

    def summary_rows(self) -> list[dict[str, object]]:
        """Per-run table rows for :func:`~repro.experiments.report.
        format_table`."""
        return [summary_row(record) for record in self.iter_records()]

    def summary(self) -> str:
        """One-line digest: totals, per-status counts, stragglers.

        Unlike :meth:`to_json` this is allowed to read ``meta`` — it is
        an operator's glance, not a canonical artifact.  Crash and
        timeout statuses appear by name (``crashed=2``), and the
        :data:`_STRAGGLERS_SHOWN` slowest flagged stragglers ride along
        with their wall-to-median ratio.
        """
        counts = self._counts()
        line = (f"campaign[{self.campaign}]: {self.n_runs} runs, "
                f"{self.n_failed} failed")
        if counts:
            status_part = ", ".join(
                f"{status}={counts[status]}" for status in sorted(counts))
            line += f" ({status_part})"
        stragglers = list(self.meta.get("stragglers") or ())
        if stragglers:
            stragglers.sort(
                key=lambda s: (-float(s.get("wall_s", 0.0)),
                               str(s.get("run_id", ""))))
            parts = []
            for straggler in stragglers[:_STRAGGLERS_SHOWN]:
                wall = float(straggler.get("wall_s", 0.0))
                median = float(straggler.get("median_s", 0.0))
                ratio = wall / median if median > 0 else float("inf")
                parts.append(f"{straggler.get('run_id')} "
                             f"{wall:.2f}s ({ratio:.1f}x median)")
            line += "; stragglers: " + ", ".join(parts)
        return line


class _Aggregate:
    """Streaming fold of completed-run envelopes.

    Owns everything the runner accumulates per envelope: the optional
    record list, status counters, journal appends, heartbeat and
    telemetry emission, per-worker/straggler wall accounting and
    per-shard progress.  An envelope marked ``warmup`` is its process's
    first run ever, or a run during which it imported a module (it paid
    imports and caches later runs reuse): its wall is added to the pid's
    ``warmup_s`` and kept out of the median and the straggler heap.  A
    pool worker warmed up by an earlier campaign has ``warmup_s`` 0.0
    here unless a run imported, and all its other runs count toward the
    median.  Every caller hands
    :meth:`add` the run's shard index.  Memory is O(shards + workers +
    heartbeats) plus one float per executed run (the wall list the
    median reads) — and the record list only in keep-records mode.
    """

    def __init__(self, *, n_runs: int, keep_records: bool,
                 workdir: CampaignWorkdir | None,
                 shards: tuple[Shard, ...], telemetry, t0: float):
        self.n_runs = n_runs
        self.keep = keep_records
        self.workdir = workdir
        self.records: list[dict[str, object]] = []
        self.status_counts: dict[str, int] = {}
        self.telemetry = telemetry
        self.t0 = t0
        self.done = 0
        self.n_resumed = 0
        self.heartbeats: list[dict[str, object]] = []
        self._stride = max(1, n_runs // 100)
        self._queue_gauge = telemetry.gauge("campaign.queue_depth",
                                            wall=True)
        self._queue_gauge.set(n_runs)
        # wall accounting: full wall list for the median, bounded heap
        # of the slowest runs for the straggler report
        self.walls: list[float] = []
        self._top: list[tuple[float, str, int]] = []
        self.worker_table: dict[int, dict[str, float]] = {}
        # per-shard progress
        self._shards = shards
        self._shard_done = [0] * len(shards)
        self._shard_t: list[list[float | None]] = [
            [None, None] for _ in shards]
        self.peak_resident_records = 0

    def add(self, envelope: dict[str, object], shard_index: int, *,
            resumed: bool = False) -> None:
        """Fold one completed envelope of shard ``shard_index`` into
        every accumulator."""
        record = envelope["record"]
        run_id = str(record["run_id"])
        if self.keep:
            self.records.append(record)
        else:
            self.peak_resident_records = max(self.peak_resident_records, 1)
        if self.workdir is not None and not resumed:
            self.workdir.append(self._shards[shard_index].shard_id,
                                record)
        status = str(record["status"])
        self.status_counts[status] = \
            self.status_counts.get(status, 0) + 1
        self.done += 1
        self._queue_gauge.set(self.n_runs - self.done)
        t_s = time.perf_counter() - self.t0
        if resumed:
            self.n_resumed += 1
        else:
            pid = int(envelope.get("pid", 0))
            wall = float(envelope.get("wall_s", 0.0))
            entry = self.worker_table.get(pid)
            if entry is None:
                entry = self.worker_table[pid] = {
                    "runs": 0, "wall_s": 0.0, "cpu_s": 0.0,
                    "warmup_s": 0.0}
            if envelope.get("warmup"):
                entry["warmup_s"] += wall
            else:
                self.walls.append(wall)
                heapq.heappush(self._top, (wall, run_id, pid))
                if len(self._top) > _TOP_WALLS:
                    heapq.heappop(self._top)
            entry["runs"] += 1
            entry["wall_s"] += wall
            entry["cpu_s"] += float(envelope.get("cpu_s", 0.0))
            if (self.done % self._stride == 0
                    or self.done == self.n_runs):
                self.heartbeats.append({
                    "done": self.done, "total": self.n_runs,
                    "t_s": round(t_s, 6), "run_id": run_id, "pid": pid})
            if self.telemetry.enabled:
                end_ms = t_s * 1e3
                self.telemetry.span(run_id, end_ms - wall * 1e3, end_ms,
                                    track=f"worker {pid}", unit="ms",
                                    wall=True, status=status)
        self._fold_shard(shard_index, t_s)

    def _fold_shard(self, index: int, t_s: float) -> None:
        """Advance (and possibly close out) shard ``index``."""
        times = self._shard_t[index]
        if times[0] is None:
            times[0] = t_s
        times[1] = t_s
        self._shard_done[index] += 1
        if (self._shard_done[index] == self._shards[index].n_runs
                and self.telemetry.enabled):
            self.telemetry.span(
                self._shards[index].shard_id, times[0] * 1e3,
                times[1] * 1e3, track="shards", unit="ms", wall=True,
                runs=self._shards[index].n_runs)
            self.telemetry.counter("campaign.shards",
                                   status="completed", wall=True).inc()

    def median_wall_s(self) -> float:
        """Median executed-run wall time (resumed runs and warm-ups
        excluded)."""
        if not self.walls:
            return 0.0
        return sorted(self.walls)[len(self.walls) // 2]

    def stragglers(self) -> list[dict[str, object]]:
        """Runs at >= 3x the median wall (slowest ``_TOP_WALLS`` only)."""
        median = self.median_wall_s()
        threshold = max(_STRAGGLER_RATIO * median, _STRAGGLER_FLOOR_S)
        flagged = [{"run_id": run_id, "wall_s": round(wall, 6),
                    "median_s": round(median, 6), "pid": pid}
                   for wall, run_id, pid in self._top
                   if wall >= threshold]
        flagged.sort(key=lambda s: s["run_id"])
        return flagged

    def shard_meta(self) -> dict[str, object]:
        """Per-shard progress summary for ``CampaignResult.meta``."""
        meta: dict[str, object] = {
            "n_shards": len(self._shards),
            "completed": sum(
                1 for index, shard in enumerate(self._shards)
                if self._shard_done[index] == shard.n_runs),
        }
        if len(self._shards) <= 256:
            meta["table"] = [
                {"id": shard.shard_id, "runs": shard.n_runs,
                 "done": self._shard_done[index]}
                for index, shard in enumerate(self._shards)]
        return meta


class _WorkerHandle:
    """Parent-side state of one worker process."""

    def __init__(self, proc: multiprocessing.Process, conn):
        self.proc = proc
        self.conn = conn
        # batch id -> (shard index, that shard's runs not yet returned)
        self.outstanding: dict[int, tuple[int, dict[str, RunSpec]]] = {}
        self.dead = False

    def retire(self, *, wait_s: float) -> None:
        """End the worker: close its pipe, so an idle worker reads EOF
        and returns; after ``wait_s`` seconds terminate it; join it."""
        self.dead = True
        with suppress(OSError):
            self.conn.close()
        self.proc.join(timeout=wait_s)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


class _Pool:
    """The campaign workers of this process, shared by every parallel
    :meth:`CampaignRunner.run`.

    :meth:`take` forks workers on first need and reuses them afterwards:
    the pool grows to the largest worker count any run asks for, and a
    worker found dead is replaced.  ``lock`` serialises runs — one
    campaign at a time owns the workers; a second caller waits.  The
    workers are daemonic, and :meth:`stop` runs at interpreter exit,
    before multiprocessing's own exit handler would terminate them, so
    each returns from :func:`_worker_main` normally.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.handles: list[_WorkerHandle] = []

    def take(self, workers: int) -> list[_WorkerHandle]:
        """The first ``workers`` workers, each alive and idle."""
        for handle in self.handles:
            if handle.dead or not handle.proc.is_alive():
                handle.retire(wait_s=0.0)
        self.handles = [h for h in self.handles if not h.dead]
        while len(self.handles) < workers:
            parent_conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_worker_main,
                args=(child_conn,
                      [h.conn for h in self.handles] + [parent_conn]),
                daemon=True)
            proc.start()
            child_conn.close()
            self.handles.append(_WorkerHandle(proc, parent_conn))
        return self.handles[:workers]

    def stop(self) -> None:
        """Retire every worker (at interpreter exit)."""
        for handle in self.handles:
            handle.retire(wait_s=5.0)
        self.handles = []


_POOL = _Pool()
atexit.register(_POOL.stop)


#: Completed envelopes a worker accumulates before flushing one result
#: message to the parent — the return-path analogue of one shard per
#: dispatch.  Small enough that heartbeats and checkpoint journals lag
#: the work by at most this many microsecond-scale runs; large enough
#: that a 10k-run grid costs hundreds of IPC messages, not tens of
#: thousands.
_RESULT_FLUSH = 32


def _worker_main(conn, parent_ends) -> None:
    """Worker loop: take a campaign's scenario library, then pull one
    shard's runs at a time and push batched result envelopes.

    A pool worker outlives the ``run()`` that forked it.  Each ``run()``
    first sends it a ``("campaign", scenarios, base_seed)`` message —
    the shared immutable scenario library, pickled once per run — so a
    run on the wire is just ``(run_id, scenario_name, seed)``.  Results
    flow back in chunks of at most ``_RESULT_FLUSH`` runs, so neither
    direction pays one pipe round-trip per microsecond-scale run.  The
    worker returns on EOF: the parent closed its end, or died.

    ``parent_ends`` are the parent-side pipe ends this process inherited
    (its own and every other live worker's).  They are closed first:
    while any worker holds one open, a SIGKILLed parent never reads as
    EOF and every worker blocks in ``recv`` forever.

    Before the first message the worker pins the native thread pools of
    ``_ONE_THREAD_ENV`` to one thread, in its own environment only, and
    clears the warm-up flag it inherited: its own first run is its
    warm-up.
    """
    global _warmed_up
    _warmed_up = False
    os.environ.update(dict.fromkeys(_ONE_THREAD_ENV, "1"))
    for end in parent_ends:
        end.close()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "campaign":
                _, scenarios, base_seed = message
                continue
            _, batch_id, items = message
            results: list[tuple[str, dict[str, object]]] = []
            for run_id, scenario_name, seed in items:
                run = RunSpec(run_id=run_id,
                              scenario=scenarios[scenario_name],
                              seed=seed, base_seed=base_seed)
                results.append((run_id, _envelope(run)))
                if len(results) >= _RESULT_FLUSH:
                    try:
                        conn.send(("runs", batch_id, results))
                    except (BrokenPipeError, OSError):
                        return
                    results = []
            try:
                if results:
                    conn.send(("runs", batch_id, results))
                conn.send(("batch_done", batch_id))
            except (BrokenPipeError, OSError):
                return
    finally:
        with suppress(OSError):
            conn.close()


class CampaignRunner:
    """Fan a campaign's run grid out over worker processes.

    ``workers=1`` executes in-process (handy under profilers and in
    tests); ``workers>1`` dispatches over the process's worker pool
    (forked by the first such run, reused by every later one), one
    shard per message.  All paths — serial, parallel,
    killed-then-resumed — produce byte-identical canonical reports;
    scheduling only changes wall-clock time.

    * ``workdir`` — checkpoint directory; completed runs journal into
      per-shard JSONL files and an atomic manifest pins the grid.
    * ``resume`` — continue a killed campaign from ``workdir``: journaled
      runs are folded back into the aggregate and skipped; a ``workdir``
      that holds no manifest is refused (``ConfigurationError``).
    * ``keep_records`` — ``False`` enables streaming aggregation: the
      result holds no record list and the canonical report streams from
      the journals (requires a ``workdir``).
    * ``shard_size`` — runs per shard, and so per dispatch message (at
      most 128; a larger shard goes out as several); defaults to a pure
      function of the grid size so shard ids never depend on worker
      count.  A grid of fewer messages than workers leaves workers
      idle.
    """

    def __init__(self, spec: CampaignSpec, *, workers: int = 1,
                 telemetry=None, workdir: str | os.PathLike | None = None,
                 resume: bool = False, keep_records: bool = True,
                 shard_size: int | None = None):
        workers = require_whole("workers", workers, 1)
        if shard_size is not None:
            shard_size = require_whole("shard_size", shard_size, 1)
        if not keep_records and workdir is None:
            raise ConfigurationError(
                "streaming aggregation (keep_records=False) needs a "
                "workdir: the shard journals are the record store the "
                "canonical report streams from")
        if resume and workdir is None:
            raise ConfigurationError("resume needs a workdir")
        self.spec = spec
        self.workers = workers
        self.telemetry = coalesce(telemetry)
        self.workdir = None if workdir is None else os.fspath(workdir)
        self.resume = resume
        self.keep_records = keep_records
        self.shard_size = shard_size
        self._live_pids: list[int] = []

    def worker_pids(self) -> list[int]:
        """Pids of the live workers this runner's ``run()`` is using
        (observability and fault-injection tests; empty when running
        in-process and outside ``run()``)."""
        return list(self._live_pids)

    # -- execution -----------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute every (remaining) run and aggregate the record set.

        Alongside the deterministic records the result's ``meta``
        section reports how the execution went: per-stage wall timings,
        completion heartbeats (at most ~100, strided), a per-worker
        run/wall/CPU/warm-up table, shard progress, batch and
        worker-death counts and straggler flags.  None of it enters
        :meth:`CampaignResult.to_json`.
        """
        tel = self.telemetry
        t0 = time.perf_counter()
        runs = sorted(self.spec.expand(), key=lambda r: r.run_id)

        workdir = (None if self.workdir is None
                   else CampaignWorkdir(self.workdir))
        if self.resume:
            shard_size = workdir.resume(self.spec)
        elif self.shard_size is None:
            shard_size = default_shard_size(len(runs))
        else:
            shard_size = self.shard_size
        shards = shard_campaign(self.spec, shard_size=shard_size)
        if workdir is not None and not self.resume:
            workdir.initialise(self.spec, shards, shard_size)
        expand_s = time.perf_counter() - t0

        aggregate = _Aggregate(n_runs=len(runs),
                               keep_records=self.keep_records,
                               workdir=workdir, shards=shards,
                               telemetry=tel, t0=t0)
        # The work: each shard's pending runs, in shard order, at most
        # _MESSAGE_RUNS to an item.
        run_of = {run.run_id: run for run in runs}
        work: deque[tuple[int, list[RunSpec]]] = deque()
        resume_start = time.perf_counter()
        for shard in shards:
            journaled = workdir.load_shard(shard) if self.resume else {}
            for run_id in sorted(journaled):
                aggregate.add({"record": journaled[run_id]}, shard.index,
                              resumed=True)
            pending = [run_of[run_id] for run_id in shard.run_ids
                       if run_id not in journaled]
            for start in range(0, len(pending), _MESSAGE_RUNS):
                work.append((shard.index,
                             pending[start:start + _MESSAGE_RUNS]))
        resume_s = time.perf_counter() - resume_start

        execute_start = time.perf_counter()
        dispatch_meta: dict[str, object] = {}
        workers = min(self.workers, max(1, len(work)))
        if workers > 1:
            dispatch_meta = self._run_parallel(work, workers, aggregate)
        # In process: every shard when serial, and whatever the pool
        # left when every worker died, so a campaign always completes.
        for shard_index, pending in work:
            for run_spec in pending:
                aggregate.add(_envelope(run_spec), shard_index)
        execute_s = time.perf_counter() - execute_start

        aggregate_start = time.perf_counter()
        records = aggregate.records
        records.sort(key=lambda r: r["run_id"])
        # Status counters are folded in sorted-status order, so the
        # telemetry stream stays byte-identical however the runs were
        # scheduled (or resumed).
        for status in sorted(aggregate.status_counts):
            tel.counter("campaign.runs", status=status).inc(
                aggregate.status_counts[status])
        if workdir is not None:
            workdir.close()

        meta: dict[str, object] = {
            "workers": workers,
            "worker_table": {
                str(pid): {"runs": int(entry["runs"]),
                           "wall_s": round(entry["wall_s"], 6),
                           "cpu_s": round(entry["cpu_s"], 6),
                           "warmup_s": round(entry["warmup_s"], 6)}
                for pid, entry in sorted(
                    aggregate.worker_table.items())},
            "median_run_wall_s": round(aggregate.median_wall_s(), 6),
            "stragglers": aggregate.stragglers(),
            "shards": aggregate.shard_meta(),
            "resume": {"enabled": self.resume,
                       "n_resumed": aggregate.n_resumed},
            "dispatch": dispatch_meta,
            "heartbeats": aggregate.heartbeats,
        }
        if not self.keep_records:
            meta["aggregate"] = {
                "streaming": True,
                "peak_resident_records":
                    aggregate.peak_resident_records}
        meta["stages"] = {
            "expand_s": round(expand_s, 6),
            "resume_s": round(resume_s, 6),
            "execute_s": round(execute_s, 6),
            "aggregate_s": round(
                time.perf_counter() - aggregate_start, 6),
            "total_s": round(time.perf_counter() - t0, 6)}
        return CampaignResult(campaign=self.spec.name,
                              base_seed=self.spec.base_seed,
                              records=records, meta=meta,
                              status_counts=dict(aggregate.status_counts),
                              workdir=self.workdir, shards=shards)

    # -- parallel dispatch ---------------------------------------------

    def _run_parallel(self, queue: deque[tuple[int, list[RunSpec]]],
                      workers: int, aggregate: _Aggregate
                      ) -> dict[str, object]:
        """Dispatch ``queue``'s shards over ``workers`` pool workers.

        Each worker first gets the campaign's scenario library.  Each
        later message carries one queue item — pending runs of one
        shard, at most ``_MESSAGE_RUNS`` — with at most
        ``_PIPELINE_DEPTH`` messages in flight per worker.  A dead
        worker's unfinished runs go back on the queue as an item of
        their shard; if every worker dies, what is left stays in
        ``queue`` for the caller's in-process loop.  Leaving by an
        exception retires every worker this run used.
        """
        library = pickle.dumps(
            ("campaign", {s.name: s for s in self.spec.scenarios},
             self.spec.base_seed))
        handles: list[_WorkerHandle] = []
        n_batches = n_deaths = 0

        def reap(handle: _WorkerHandle) -> None:
            """Mark a worker dead and re-queue its unfinished runs."""
            nonlocal n_deaths
            if handle.dead:
                return
            handle.dead = True
            n_deaths += 1
            with suppress(OSError):
                handle.conn.close()
            for shard_index, remaining in handle.outstanding.values():
                if remaining:
                    queue.appendleft((shard_index, list(remaining.values())))
            handle.outstanding.clear()
            self._live_pids = [h.proc.pid for h in handles if not h.dead]

        def fill() -> None:
            """Top every live worker up to ``_PIPELINE_DEPTH`` messages,
            one message per worker per pass, so a short queue spreads
            over the pool rather than piling onto the first worker."""
            nonlocal n_batches
            for _ in range(_PIPELINE_DEPTH):
                for handle in handles:
                    if (not queue or handle.dead
                            or len(handle.outstanding) >= _PIPELINE_DEPTH):
                        continue
                    shard_index, pending = queue.popleft()
                    # The wire form of a run: workers rebuild it from
                    # the campaign's scenario library.
                    items = [(run.run_id, run.scenario.name, run.seed)
                             for run in pending]
                    try:
                        handle.conn.send(("batch", n_batches, items))
                    except (BrokenPipeError, OSError):
                        queue.appendleft((shard_index, pending))
                        reap(handle)
                        continue
                    handle.outstanding[n_batches] = (
                        shard_index, {run.run_id: run for run in pending})
                    n_batches += 1

        def drain(handle: _WorkerHandle) -> None:
            while True:
                try:
                    if not handle.conn.poll():
                        return
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    reap(handle)
                    return
                if message[0] == "runs":
                    _, batch_id, results = message
                    shard_index, remaining = handle.outstanding[batch_id]
                    for run_id, envelope in results:
                        del remaining[run_id]
                        aggregate.add(envelope, shard_index)
                else:  # "batch_done"
                    del handle.outstanding[message[1]]

        with _POOL.lock:
            handles = _POOL.take(workers)
            self._live_pids = [h.proc.pid for h in handles]
            try:
                for handle in handles:
                    try:
                        handle.conn.send_bytes(library)
                    except (BrokenPipeError, OSError):
                        reap(handle)
                fill()
                while any(h.outstanding for h in handles):
                    live = [h for h in handles if not h.dead]
                    ready = multiprocessing.connection.wait(
                        [h.conn for h in live], timeout=0.05)
                    for handle in live:
                        if handle.conn in ready:
                            drain(handle)
                    for handle in handles:
                        if (not handle.dead
                                and not handle.proc.is_alive()):
                            drain(handle)   # flush anything buffered
                            reap(handle)
                    fill()
            except BaseException:
                # Its pipes may still hold this campaign's messages.
                for handle in handles:
                    handle.retire(wait_s=0.0)
                raise
            finally:
                self._live_pids = []
        # "steals" is always 0; benchmarks/e2e/workloads.py is its only
        # reader.
        return {"steals": 0, "worker_deaths": n_deaths,
                "batches": n_batches}
