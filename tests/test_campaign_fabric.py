"""Campaign fabric: sharding, checkpointing, resume, shard dispatch.

The contract under test is byte-determinism against every scheduling
accident the fabric is built to absorb: worker counts, shard order,
one pool of workers reused by every campaign of a process, SIGKILLed
workers, a SIGKILLed parent resumed from its journals, a corrupted
workdir, and runs that crash inside a worker.  Every path
must reproduce the serial report byte for byte — or, for a workdir it
cannot trust, refuse with a ``ConfigurationError``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import runner as runner_module
from repro.campaign.fabric import (CampaignWorkdir, Shard,
                                   default_shard_size, iter_report_chunks,
                                   shard_campaign, spec_fingerprint)
from repro.campaign.kinds import run_kind
from repro.campaign.presets import (demo_campaign, design_campaign,
                                    fault_campaign, synthetic_campaign)
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import (CampaignSpec, ScenarioSpec, SyntheticSpec,
                                 derive_seed)
from repro.core.exceptions import ConfigurationError
from repro.telemetry import Telemetry


def _grid(n_scenarios=6, seeds=(1, 2), work=20, fail_seeds=()):
    return synthetic_campaign(n_scenarios=n_scenarios, seeds=seeds,
                              work=work, fail_seeds=fail_seeds)


class TestSharding:
    def test_shards_partition_the_sorted_run_list(self):
        spec = _grid(n_scenarios=5, seeds=(1, 2, 3))
        shards = shard_campaign(spec, shard_size=4)
        run_ids = [run_id for shard in shards for run_id in shard.run_ids]
        assert run_ids == sorted(r.run_id for r in spec.expand())
        assert [s.index for s in shards] == list(range(len(shards)))

    def test_shard_ids_derive_from_run_keys_not_declaration_order(self):
        # The same scenario set declared in reverse yields the same
        # shards: ids hash the sorted run keys, not enumeration order.
        scenarios = tuple(
            ScenarioSpec(name=f"synth-{i:04d}", mode="synthetic",
                         synthetic=SyntheticSpec(work=1))
            for i in range(6))
        fwd = CampaignSpec(name="s", scenarios=scenarios, seeds=(1, 2))
        rev = CampaignSpec(name="s", scenarios=scenarios[::-1],
                           seeds=(1, 2))
        assert shard_campaign(fwd, shard_size=5) == \
            shard_campaign(rev, shard_size=5)
        assert spec_fingerprint(fwd) == spec_fingerprint(rev)

    @settings(max_examples=25, deadline=None)
    @given(n_runs=st.integers(1, 3_000_000))
    def test_default_shard_size_is_pure_and_bounded(self, n_runs):
        size = default_shard_size(n_runs)
        assert size == default_shard_size(n_runs)  # pure in n_runs
        assert 1 <= size <= 512

    @settings(max_examples=20, deadline=None)
    @given(n_scenarios=st.integers(1, 7), n_seeds=st.integers(1, 4),
           shard_size=st.integers(1, 10))
    def test_shard_ids_stable_across_expansions(self, n_scenarios,
                                                n_seeds, shard_size):
        spec = _grid(n_scenarios=n_scenarios,
                     seeds=tuple(range(1, n_seeds + 1)))
        first = shard_campaign(spec, shard_size=shard_size)
        again = shard_campaign(spec, shard_size=shard_size)
        assert first == again
        assert sum(s.n_runs for s in first) == n_scenarios * n_seeds


class TestWholeCounts:
    """``workers`` and ``shard_size`` are counts: a fraction, NaN, an
    infinity or a string is refused when the runner is built, naming the
    parameter, not as a ``TypeError`` from dispatch or a quiet serial
    run."""

    @pytest.mark.parametrize("name, value", [
        ("workers", 2.5), ("workers", float("nan")),
        ("workers", float("inf")), ("workers", "2"),
        ("shard_size", 2.5), ("shard_size", float("nan")),
        ("shard_size", float("-inf")), ("shard_size", "4"),
        ("shard_size", 0)])
    def test_runner_refuses_a_count_that_is_not_whole(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            CampaignRunner(_grid(), **{name: value})

    @pytest.mark.parametrize("value", [2.5, float("nan"), "4"])
    def test_shard_campaign_refuses_a_count_that_is_not_whole(self, value):
        with pytest.raises(ConfigurationError, match="shard_size"):
            shard_campaign(_grid(), shard_size=value)

    def test_whole_floats_run_as_ints(self):
        spec = _grid(n_scenarios=2, seeds=(1, 2))
        runner = CampaignRunner(spec, workers=2.0, shard_size=2.0)
        assert (runner.workers, runner.shard_size) == (2, 2)
        assert runner.run().to_json() == \
            CampaignRunner(spec, workers=1).run().to_json()


class TestDeterminism:
    def test_report_bytes_independent_of_worker_count(self, tmp_path):
        spec = _grid(n_scenarios=6, seeds=(1, 2, 3))
        reference = CampaignRunner(spec, workers=1).run().to_json()
        for workers in (2, 3, 5):
            result = CampaignRunner(
                spec, workers=workers,
                workdir=tmp_path / f"wd{workers}").run()
            assert result.to_json() == reference

    def test_report_bytes_survive_a_slow_tail(self):
        # A tail of slow runs (sorted last) while every other run is
        # instant: each shard is still dispatched exactly once.
        scenarios = tuple(
            ScenarioSpec(name=f"synth-{i:04d}", mode="synthetic",
                         synthetic=SyntheticSpec(work=0))
            for i in range(24)) + tuple(
            ScenarioSpec(name=f"zz-slow-{i}", mode="synthetic",
                         synthetic=SyntheticSpec(work=60_000))
            for i in range(4))
        spec = CampaignSpec(name="steal", scenarios=scenarios,
                            seeds=(1, 2))
        reference = CampaignRunner(spec, workers=1).run().to_json()
        result = CampaignRunner(spec, workers=4).run()
        assert result.to_json() == reference
        dispatch = result.meta["dispatch"]
        assert dispatch["worker_deaths"] == 0
        assert dispatch["batches"] == len(shard_campaign(spec))
        assert result.n_runs == len(scenarios) * 2
        assert sum(entry["runs"] for entry in
                   result.meta["worker_table"].values()) == result.n_runs

    def test_a_shard_larger_than_a_socket_buffer_completes(self):
        # Two 12 000-run shards of instant runs: one shard's triples
        # outweigh a socket buffer, and a worker's results outweigh the
        # way back.  Sent whole while the worker still answers the
        # previous message, parent and worker would block on each
        # other's full pipe.
        spec = _grid(n_scenarios=1200, seeds=tuple(range(1, 21)), work=0)
        serial = CampaignRunner(spec, workers=1).run().digest()
        runner = CampaignRunner(spec, workers=2, shard_size=12_000)
        box: dict[str, object] = {}
        thread = threading.Thread(
            target=lambda: box.update(result=runner.run()), daemon=True)
        thread.start()
        thread.join(timeout=120.0)
        assert not thread.is_alive(), "parallel dispatch stalled"
        result = box["result"]
        assert result.digest() == serial
        # 94 messages of at most 128 runs per shard
        assert result.meta["dispatch"]["batches"] == 2 * 94

    def test_two_shards_spread_over_two_workers(self):
        spec = _grid(n_scenarios=2, seeds=(1, 2))
        reference = CampaignRunner(spec, workers=1).run().to_json()
        result = CampaignRunner(spec, workers=2, shard_size=2).run()
        assert result.to_json() == reference
        assert result.meta["dispatch"]["batches"] == 2
        assert len(result.meta["worker_table"]) == 2

    def test_streaming_report_matches_json_dumps(self, tmp_path):
        spec = _grid(n_scenarios=4, seeds=(1, 2), fail_seeds=(2,))
        result = CampaignRunner(spec, workers=2, workdir=tmp_path / "wd",
                                keep_records=False).run()
        expected = json.dumps(
            {"campaign": result.campaign, "base_seed": result.base_seed,
             "n_runs": result.n_runs, "n_failed": result.n_failed,
             "records": list(result.iter_records())},
            indent=2, sort_keys=True)
        assert result.to_json() == expected
        assert result.records == []

    def test_iter_report_chunks_equals_json_dumps(self):
        records = [{"run_id": f"r{i}", "status": "ok",
                    "nested": {"b": [1, 2], "a": None}}
                   for i in range(3)]
        chunks = "".join(iter_report_chunks("c", 7, 3, 0, iter(records)))
        assert chunks == json.dumps(
            {"campaign": "c", "base_seed": 7, "n_runs": 3, "n_failed": 0,
             "records": records}, indent=2, sort_keys=True)


class TestCheckpointResume:
    def test_resume_skips_journaled_runs_and_matches_serial(self,
                                                            tmp_path):
        spec = _grid(n_scenarios=6, seeds=(1, 2))
        serial = CampaignRunner(spec, workers=1).run().to_json()
        wd = tmp_path / "wd"
        shards = shard_campaign(spec,
                                shard_size=default_shard_size(12))
        # Simulate a killed campaign: initialise the workdir and
        # journal only the first shard's runs, then resume.
        workdir = CampaignWorkdir(wd)
        workdir.initialise(spec, shards, default_shard_size(12))
        runs = {r.run_id: r for r in spec.expand()}
        for run_id in shards[0].run_ids:
            workdir.append(shards[0].shard_id, run_kind(runs[run_id]))
        workdir.close()
        resumed = CampaignRunner(spec, workers=2, workdir=wd,
                                 resume=True).run()
        assert resumed.to_json() == serial
        assert resumed.meta["resume"]["n_resumed"] == \
            len(shards[0].run_ids)
        # Only the shards with pending runs are dispatched.
        assert resumed.meta["dispatch"]["batches"] == len(shards) - 1

    def test_resume_of_complete_campaign_is_a_noop(self, tmp_path):
        spec = _grid()
        wd = tmp_path / "wd"
        first = CampaignRunner(spec, workers=2, workdir=wd).run()
        again = CampaignRunner(spec, workers=2, workdir=wd,
                               resume=True).run()
        assert again.to_json() == first.to_json()
        assert again.meta["resume"]["n_resumed"] == first.n_runs
        assert again.meta["worker_table"] == {}

    def test_resume_tolerates_corrupt_journal_lines(self, tmp_path):
        spec = _grid(n_scenarios=4, seeds=(1,))
        wd = tmp_path / "wd"
        serial = CampaignRunner(spec, workers=1, workdir=wd).run()
        journal = next((wd / "shards").glob("*.jsonl"))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"truncated mid-wri')
        resumed = CampaignRunner(spec, workers=1, workdir=wd,
                                 resume=True).run()
        assert resumed.to_json() == serial.to_json()

    def test_existing_manifest_without_resume_refuses(self, tmp_path):
        spec = _grid()
        wd = tmp_path / "wd"
        CampaignRunner(spec, workers=1, workdir=wd).run()
        with pytest.raises(ConfigurationError, match="resume"):
            CampaignRunner(spec, workers=1, workdir=wd).run()

    def test_resume_rejects_a_different_campaign(self, tmp_path):
        wd = tmp_path / "wd"
        CampaignRunner(_grid(n_scenarios=3), workers=1,
                       workdir=wd).run()
        with pytest.raises(ConfigurationError, match="fingerprint"):
            CampaignRunner(_grid(n_scenarios=4), workers=1, workdir=wd,
                           resume=True).run()

    def test_streaming_needs_a_workdir(self):
        with pytest.raises(ConfigurationError, match="workdir"):
            CampaignRunner(_grid(), keep_records=False)

    def test_resume_needs_a_workdir(self):
        with pytest.raises(ConfigurationError, match="workdir"):
            CampaignRunner(_grid(), resume=True)

    def test_resume_without_a_manifest_refuses(self, tmp_path):
        """A mistyped ``--resume`` path used to create the directory,
        run the whole campaign and report "0 run(s) restored"."""
        typo = tmp_path / "tpyo"
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            CampaignRunner(_grid(), workdir=typo, resume=True).run()
        assert not typo.exists()

    def test_shard_size_zero_is_not_the_default(self):
        with pytest.raises(ConfigurationError, match="shard_size"):
            CampaignRunner(_grid(), shard_size=0).run()


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    """An eight-run grid, its clean report, and a completed streamed
    workdir of it in shards of 3, written at two workers."""
    spec = _grid(n_scenarios=4, seeds=(1, 2))
    wd = tmp_path_factory.mktemp("completed") / "wd"
    CampaignRunner(spec, workers=2, workdir=wd, keep_records=False,
                   shard_size=3).run()
    return spec, wd, CampaignRunner(spec).run().to_json()


def _journals(wd: Path) -> list[Path]:
    return sorted((wd / "shards").glob("*.jsonl"))


def _resume(spec, wd: Path) -> str:
    return CampaignRunner(spec, workers=2, workdir=wd, resume=True,
                          keep_records=False).run().to_json()


#: Lines no journal writer produces; a status-less record is built per
#: shard by ``_corrupt``.
_BAD_LINES = (b"garbage", b"{", b"null", b"[1, 2]", b"7")
_EDITS = ("truncate", "line", "duplicate", "move", "delete",
          "manifest_field", "manifest_delete", "manifest_truncate")


def _corrupt(spec, wd: Path, kind: str, a: int, b: int) -> None:
    """Apply one edit of the corruption alphabet to workdir ``wd``;
    ``a`` and ``b`` pick the journals, lines and values it touches."""
    manifest = wd / "manifest.json"
    if kind.startswith("manifest"):
        if not manifest.exists():
            return
        data = manifest.read_bytes()
        if kind == "manifest_delete":
            manifest.unlink()
        elif kind == "manifest_truncate":
            manifest.write_bytes(data[:a % max(1, len(data))])
        else:
            try:
                fields = json.loads(data)
                shards = list(fields["shards"])
            except (ValueError, KeyError, TypeError):
                return  # already unreadable
            name = ("fingerprint", "shard_size", "format", "shards")[a % 4]
            value = {"fingerprint": ("0" * 16, None, 7),
                     "shard_size": (2, 4, 0, -1, "3", None, 3.0, True),
                     "format": (2, 0, "1", None),
                     "shards": (shards[:-1], shards[::-1], [], 7, [7],
                                [{"index": 0}], None)}[name]
            fields[name] = value[b % len(value)]
            manifest.write_text(json.dumps(fields))
        return
    journals = _journals(wd)
    if not journals:
        return
    source = journals[a % len(journals)]
    target = journals[b % len(journals)]
    data = source.read_bytes()
    if kind == "truncate":
        body = data.rstrip(b"\n")
        start = body.rfind(b"\n") + 1
        source.write_bytes(body[:start + b % max(1, len(body) - start)])
    elif kind == "line":
        run_ids = {shard.shard_id: shard.run_ids
                   for shard in shard_campaign(spec, shard_size=3)}
        ids = run_ids.get(source.stem, ("nobody",))
        lines = _BAD_LINES + (
            json.dumps({"run_id": ids[a % len(ids)]}).encode(),)
        line = lines[b % len(lines)]
        source.write_bytes(line + b"\n" + data if a % 2
                           else data + b"\n" + line + b"\n")
    elif kind in ("duplicate", "move"):
        if kind == "move" and source == target:
            return
        target.write_bytes(target.read_bytes() + b"\n" + data)
        if kind == "move":
            source.unlink()
    else:  # delete
        source.unlink()


class TestCorruptWorkdir:
    """A workdir resume cannot trust is refused with a
    ``ConfigurationError``; damage it can see past is skipped and the
    affected runs re-execute.  Either way, never a different report."""

    def test_stale_journals_in_a_fresh_workdir_are_refused(self,
                                                             tmp_path):
        # First-write-wins used to keep the old campaign's records.
        spec = synthetic_campaign(n_scenarios=4, seeds=(1, 2))
        wd = tmp_path / "wd"
        CampaignRunner(spec, workdir=wd, keep_records=False).run()
        (wd / "manifest.json").unlink()
        with pytest.raises(ConfigurationError, match="shard journals"):
            CampaignRunner(dataclasses.replace(spec, base_seed=7),
                           workdir=wd, keep_records=False).run()

    @pytest.mark.parametrize("line", ["null", "[1, 2]", "7", "status-less"],
                             ids=["null", "list", "number", "status-less"])
    def test_a_line_the_aggregate_cannot_read_is_skipped(
            self, completed, tmp_path, line):
        spec, clean_wd, clean = completed
        wd = tmp_path / "wd"
        shutil.copytree(clean_wd, wd)
        journal = _journals(wd)[0]
        text = journal.read_text()
        if line == "status-less":  # placed before the real record
            line = json.dumps({"run_id": json.loads(
                text.splitlines()[0])["run_id"]})
        journal.write_text(line + "\n" + text)
        assert _resume(spec, wd) == clean

    @pytest.mark.parametrize("edit", ["truncated", "not-an-object",
                                      "no-shard-size"])
    def test_an_unreadable_manifest_is_refused(self, completed, tmp_path,
                                               edit):
        spec, clean_wd, _ = completed
        wd = tmp_path / "wd"
        shutil.copytree(clean_wd, wd)
        manifest = wd / "manifest.json"
        fields = json.loads(manifest.read_text())
        del fields["shard_size"]
        manifest.write_text({"truncated": "{", "not-an-object": "[]",
                             "no-shard-size": json.dumps(fields)}[edit])
        with pytest.raises(ConfigurationError) as refused:
            _resume(spec, wd)
        assert str(wd) in str(refused.value)

    def test_a_torn_tail_is_sealed_before_the_next_append(self, completed,
                                                          tmp_path):
        # The re-executed record used to be glued onto the torn line, so
        # a streamed report lost it.
        spec, clean_wd, clean = completed
        wd = tmp_path / "wd"
        shutil.copytree(clean_wd, wd)
        journal = _journals(wd)[0]
        journal.write_bytes(journal.read_bytes()[:-10])
        assert _resume(spec, wd) == clean

    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(_EDITS),
                                    st.integers(0, 99), st.integers(0, 99)),
                          min_size=1, max_size=4))
    def test_resume_is_byte_identical_or_refused(self, completed, edits):
        spec, clean_wd, clean = completed
        with tempfile.TemporaryDirectory() as scratch:
            wd = Path(scratch) / "wd"
            shutil.copytree(clean_wd, wd)
            for kind, a, b in edits:
                _corrupt(spec, wd, kind, a, b)
            try:
                report = _resume(spec, wd)
            except ConfigurationError:
                return
        assert report == clean


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _children_of(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (Linux ``/proc`` scan)."""
    return sorted(
        int(entry.name) for entry in Path("/proc").iterdir()
        if entry.name.isdigit()
        and (_proc_stat(int(entry.name)) or ["", "-1"])[1] == str(pid))


def _is_running(pid: int) -> bool:
    """False once ``pid`` has exited (gone, or a zombie nobody reaped)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestCrashResilience:
    def test_sigkilled_worker_requeues_and_report_matches(self):
        spec = _grid(n_scenarios=10, seeds=tuple(range(1, 11)),
                     work=8_000)
        serial = CampaignRunner(spec, workers=1).run().to_json()
        runner = CampaignRunner(spec, workers=3)
        box: dict[str, object] = {}

        def execute():
            box["result"] = runner.run()

        thread = threading.Thread(target=execute)
        thread.start()
        deadline = time.time() + 30.0
        killed = False
        while not killed and time.time() < deadline:
            pids = runner.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                killed = True
            time.sleep(0.005)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        result = box["result"]
        assert killed
        assert result.to_json() == serial
        assert result.meta["dispatch"]["worker_deaths"] >= 1

    def test_all_workers_dead_falls_back_in_process(self):
        spec = _grid(n_scenarios=8, seeds=tuple(range(1, 9)),
                     work=12_000)
        serial = CampaignRunner(spec, workers=1).run().to_json()
        runner = CampaignRunner(spec, workers=2)
        box: dict[str, object] = {}

        def execute():
            box["result"] = runner.run()

        thread = threading.Thread(target=execute)
        thread.start()
        killed: set[int] = set()
        deadline = time.time() + 30.0
        while len(killed) < 2 and time.time() < deadline:
            for pid in runner.worker_pids():
                if pid not in killed:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    killed.add(pid)
            time.sleep(0.005)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert box["result"].to_json() == serial

    def test_sigkilled_parent_resumes_byte_identical(self, tmp_path):
        spec_args = "n_scenarios=20, seeds=tuple(range(1, 21)), work=3000"
        wd = tmp_path / "wd"
        script = (
            "from repro.campaign.presets import synthetic_campaign\n"
            "from repro.campaign.runner import CampaignRunner\n"
            f"spec = synthetic_campaign({spec_args})\n"
            f"CampaignRunner(spec, workers=2, workdir={str(wd)!r}).run()\n")
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.time() + 60.0
            journaled = 0
            while time.time() < deadline and proc.poll() is None:
                journaled = sum(
                    1 for journal in (wd / "shards").glob("*.jsonl")
                    for line in open(journal, encoding="utf-8")
                    if line.strip()
                ) if (wd / "shards").is_dir() else 0
                if journaled >= 3:
                    break
                time.sleep(0.01)
            mid_flight = proc.poll() is None and journaled >= 3
            workers = _children_of(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=30.0)
        assert mid_flight, "campaign finished before the SIGKILL landed"
        # Orphaned workers must see EOF on their pipe and exit: none may
        # hold a copy of any parent-side pipe end.
        assert len(workers) == 2
        deadline = time.time() + 5.0
        while time.time() < deadline and any(map(_is_running, workers)):
            time.sleep(0.02)
        assert not [pid for pid in workers if _is_running(pid)], \
            "campaign workers outlived their SIGKILLed parent"
        spec = synthetic_campaign(n_scenarios=20,
                                  seeds=tuple(range(1, 21)), work=3000)
        serial = CampaignRunner(spec, workers=1).run().to_json()
        resumed = CampaignRunner(spec, workers=2, workdir=wd,
                                 resume=True).run()
        assert resumed.to_json() == serial
        assert 0 < resumed.meta["resume"]["n_resumed"] < 400


def _pids(result: CampaignResult) -> set[int]:
    return {int(pid) for pid in result.meta["worker_table"]}


class TestWorkerPool:
    """One pool of workers per process: every parallel ``run()`` reuses
    it, and one campaign never changes another's records on it."""

    def test_every_campaign_kind_reuses_the_same_workers(self):
        pids = []
        for spec in (demo_campaign(n_slots=200, seeds=(1,)),
                     fault_campaign(n_sessions=20, n_slots=400,
                                    seeds=(1,)),
                     design_campaign(), _grid()):
            serial = CampaignRunner(spec, workers=1).run().to_json()
            result = CampaignRunner(spec, workers=2).run()
            assert result.to_json() == serial, spec.name
            assert result.meta["dispatch"]["worker_deaths"] == 0
            pids.append(_pids(result))
        assert len(pids[0]) == 2
        assert all(seen == pids[0] for seen in pids)

    def test_a_killed_idle_worker_is_replaced(self):
        spec = _grid(n_scenarios=6, seeds=(1, 2, 3))
        serial = CampaignRunner(spec, workers=1).run().to_json()
        before = _pids(CampaignRunner(spec, workers=2).run())
        victim, survivor = sorted(before)
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 5.0
        while time.time() < deadline and _is_running(victim):
            time.sleep(0.01)
        result = CampaignRunner(spec, workers=2).run()
        assert result.to_json() == serial
        assert result.meta["dispatch"]["worker_deaths"] == 0
        after = _pids(result)
        assert survivor in after and victim not in after
        assert len(after) == 2

    def test_an_exception_mid_dispatch_retires_the_workers(
            self, tmp_path, monkeypatch):
        spec = _grid(n_scenarios=6, seeds=(1, 2, 3))
        serial = CampaignRunner(spec, workers=1).run().to_json()
        used = _pids(CampaignRunner(spec, workers=2).run())
        append = CampaignWorkdir.append
        calls = []

        def failing_append(self, shard_id, record):
            calls.append(shard_id)
            if len(calls) == 3:
                raise OSError("journal write failed")
            append(self, shard_id, record)

        monkeypatch.setattr(CampaignWorkdir, "append", failing_append)
        with pytest.raises(OSError, match="journal write failed"):
            CampaignRunner(spec, workers=2, workdir=tmp_path / "wd").run()
        monkeypatch.undo()
        assert not [pid for pid in used if _is_running(pid)]
        result = CampaignRunner(spec, workers=2).run()
        assert result.to_json() == serial
        fresh = _pids(result)
        assert len(fresh) == 2 and not fresh & used

    def test_concurrent_runs_take_turns(self):
        # Three threads, three workers each, on a short switch interval:
        # runs sharing the pool without its lock read each other's
        # messages and never finish.
        specs = [_grid(n_scenarios=5 + i, seeds=(i + 1, i + 2), work=2_000)
                 for i in range(3)]
        serial = [CampaignRunner(spec, workers=1).run().to_json()
                  for spec in specs]
        box: dict[int, str] = {}
        threads = [threading.Thread(
            target=lambda i=i: box.update(
                {i: CampaignRunner(specs[i], workers=3).run().to_json()}),
            daemon=True) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert [box.get(i) for i in range(3)] == serial

    def test_a_fresh_interpreter_leaves_no_worker_running(self):
        script = (
            "import json\n"
            "from repro.campaign.presets import synthetic_campaign\n"
            "from repro.campaign.runner import CampaignRunner\n"
            "result = CampaignRunner(synthetic_campaign(), workers=2).run()\n"
            "print(json.dumps(sorted(result.meta['worker_table'])))\n")
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        workers = [int(pid) for pid in json.loads(proc.stdout)]
        assert len(workers) == 2
        deadline = time.time() + 5.0
        while time.time() < deadline and any(map(_is_running, workers)):
            time.sleep(0.02)
        assert not [pid for pid in workers if _is_running(pid)]


class TestGracefulDegradation:
    def test_crashed_run_is_enveloped_not_poisoning(self, tmp_path):
        spec = _grid(n_scenarios=8, seeds=(1, 2, 3), fail_seeds=(2,))
        serial = CampaignRunner(spec, workers=1).run()
        parallel = CampaignRunner(spec, workers=3).run()
        assert parallel.to_json() == serial.to_json()
        crashed = [r for r in serial.records if r["status"] == "crashed"]
        assert len(crashed) == 8          # one per scenario at seed 2
        assert serial.n_failed == 8
        for record in crashed:
            assert record["error"].startswith("RuntimeError")
            assert len(record["traceback_digest"]) == 16
        # Batch mates of the crashed runs all completed normally.
        ok = [r for r in serial.records if r["status"] == "ok"]
        assert len(ok) == serial.n_runs - 8

    def test_failure_accounting_identical_in_streaming_mode(self,
                                                            tmp_path):
        spec = _grid(n_scenarios=5, seeds=(1, 2), fail_seeds=(1,))
        keep = CampaignRunner(spec, workers=2).run()
        stream = CampaignRunner(spec, workers=2,
                                workdir=tmp_path / "wd",
                                keep_records=False).run()
        assert stream.n_failed == keep.n_failed == 5
        assert stream.n_runs == keep.n_runs
        assert stream.summary_rows() == keep.summary_rows()
        assert stream.to_json() == keep.to_json()
        assert stream.digest() == keep.digest()


class TestSummary:
    def test_one_liner_counts_crashes_and_names_stragglers(self):
        result = CampaignResult(
            campaign="demo", base_seed=7,
            records=[
                {"run": "a/s1", "status": "ok"},
                {"run": "a/s2", "status": "crashed", "error": "boom"},
                {"run": "b/s1", "status": "ok"},
            ],
            meta={"stragglers": [
                {"run_id": "a/s2", "wall_s": 4.0, "median_s": 0.5},
                {"run_id": "b/s1", "wall_s": 9.0, "median_s": 0.5},
                {"run_id": "c/s1", "wall_s": 5.0, "median_s": 0.5},
                {"run_id": "d/s1", "wall_s": 6.0, "median_s": 0.5},
            ]})
        line = result.summary()
        assert line.startswith("campaign[demo]: 3 runs, 1 failed")
        assert "crashed=1" in line and "ok=2" in line
        # Only the three slowest stragglers are named, ratio included.
        assert "b/s1 9.00s (18.0x median)" in line
        assert "d/s1 6.00s" in line and "c/s1 5.00s" in line
        assert "a/s2 4.00s" not in line

    def test_summary_matches_between_record_and_streaming_modes(self,
                                                                tmp_path):
        spec = _grid(n_scenarios=4, seeds=(1, 2), fail_seeds=(2,))
        keep = CampaignRunner(spec, workers=1).run()
        stream = CampaignRunner(spec, workers=1,
                                workdir=tmp_path / "wd",
                                keep_records=False).run()
        assert "crashed=4" in keep.summary()
        # Straggler content is wall-clock (meta), so compare only the
        # deterministic head of the line.
        head = keep.summary().split("; stragglers")[0]
        assert stream.summary().split("; stragglers")[0] == head


_WARM_THEN_SIMULATE = """
import json, sys
from repro.campaign.presets import demo_campaign, synthetic_campaign
from repro.campaign.runner import CampaignRunner
warm = CampaignRunner(synthetic_campaign(), workers=2).run()
result = CampaignRunner(demo_campaign(n_slots=200, seeds=(1,)),
                        workers=2).run()
meta = {key: result.meta[key]
        for key in ("heartbeats", "stragglers", "worker_table")}
meta["warm"] = sorted(warm.meta["worker_table"])
meta["parent_numpy"] = "numpy" in sys.modules
print(json.dumps(meta))
"""


class TestWorkerTable:
    def test_warmups_are_reported_not_flagged(self):
        # A worker's first run pays its imports; it lands in that pid's
        # warmup_s, never among the stragglers or in the median.  Start
        # from a fresh pool: a worker's first run ever is its warm-up.
        runner_module._POOL.stop()
        result = CampaignRunner(demo_campaign(), workers=2).run()
        meta = result.meta
        assert len(meta["heartbeats"]) == result.n_runs  # one per run
        first_run: dict[int, str] = {}
        for beat in meta["heartbeats"]:
            first_run.setdefault(beat["pid"], beat["run_id"])
        assert set(meta["worker_table"]) == {str(p) for p in first_run}
        assert len(first_run) == 2
        for straggler in meta["stragglers"]:
            assert first_run[straggler["pid"]] != straggler["run_id"]
        for entry in meta["worker_table"].values():
            assert 0 < entry["warmup_s"] <= entry["wall_s"]
            assert entry["cpu_s"] > 0
        assert sum(entry["runs"] for entry in
                   meta["worker_table"].values()) == result.n_runs
        report = result.to_json()
        assert "warmup_s" not in report and "cpu_s" not in report

    def test_a_run_that_imports_is_a_warmup(self):
        # Runs that simulate nothing warm a worker without numpy; its
        # first simulated run then imports it.  That run is marked, its
        # wall summed into warmup_s, and it is never a straggler.  A
        # fresh interpreter, because a worker forked from this one
        # inherits its numpy.
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_THEN_SIMULATE],
            cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": str(
                Path(__file__).resolve().parents[1] / "src")},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        meta = json.loads(proc.stdout)
        assert not meta["parent_numpy"]
        first_run: dict[int, str] = {}
        for beat in meta["heartbeats"]:
            first_run.setdefault(beat["pid"], beat["run_id"])
        assert len(first_run) == 2
        assert set(meta["warm"]) == {str(pid) for pid in first_run}
        for straggler in meta["stragglers"]:
            assert first_run[straggler["pid"]] != straggler["run_id"]
        for entry in meta["worker_table"].values():
            assert 0 < entry["warmup_s"] <= entry["wall_s"]

    def test_a_warm_pool_counts_every_run(self):
        # On a pool that already ran a campaign, no run is a warm-up:
        # every warmup_s is 0 and the median is over every run.
        spec = demo_campaign(n_slots=200, seeds=(1,))
        first = CampaignRunner(spec, workers=2).run()
        tel = Telemetry()
        second = CampaignRunner(spec, workers=2, telemetry=tel).run()
        assert set(second.meta["worker_table"]) == \
            set(first.meta["worker_table"])
        for entry in second.meta["worker_table"].values():
            assert entry["warmup_s"] == 0.0
        walls = sorted((span.end - span.start) / 1e3 for span in tel.spans
                       if span.track.startswith("worker "))
        assert len(walls) == second.n_runs
        assert second.meta["median_run_wall_s"] == pytest.approx(
            walls[len(walls) // 2], abs=2e-6)

    def test_serial_run_warms_up_once(self):
        result = CampaignRunner(_grid(n_scenarios=3), workers=1).run()
        (entry,) = result.meta["worker_table"].values()
        assert entry["runs"] == result.n_runs
        assert entry["warmup_s"] <= entry["wall_s"]


class TestJournal:
    def test_journal_first_write_wins_on_duplicates(self, tmp_path):
        workdir = CampaignWorkdir(tmp_path)
        shard = Shard(shard_id="s", index=0, run_ids=("a",))
        for status in ("ok", "dup"):
            workdir.append("s", {"run_id": "a", "status": status})
        workdir.close()
        assert workdir.load_shard(shard) == {
            "a": {"run_id": "a", "status": "ok"}}

    def test_scenario_context_not_pickled_per_run(self):
        # The per-batch payload is compact triples; a worker rebuilds
        # RunSpecs from its interned scenario library.  Guard the
        # derived seed path that rebuild depends on.
        spec = _grid(n_scenarios=2, seeds=(5,))
        run = spec.expand()[0]
        assert run.run_seed == derive_seed(spec.base_seed, run.run_id)
