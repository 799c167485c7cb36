"""Sharding, journals, and streaming reports for the campaign fabric.

This module is the persistence and addressing layer under
:class:`~repro.campaign.runner.CampaignRunner`:

* **Sharding** — :func:`shard_campaign` partitions a campaign's run
  grid into deterministic :class:`Shard` s.  Shard ids derive from the
  *sorted run-key ordering* (the canonical record order), never from
  scenario enumeration order or worker count, so the same spec always
  yields the same shard layout and a grid is addressable in O(shards)
  memory.
* **Checkpointed progress** — a :class:`CampaignWorkdir` holds an
  atomically-written manifest plus one append-only JSONL journal per
  shard, with one writer (:meth:`CampaignWorkdir.append`) and one
  reader (:meth:`CampaignWorkdir.load_shard`).  Completed-run records
  are appended as they arrive; after a kill, ``load_shard`` skips a
  torn or damaged line and the runner re-executes only the missing
  runs.  A manifest that cannot be read, or that names another grid,
  is refused with :class:`~repro.core.exceptions.ConfigurationError`.
* **Streaming reports** — :func:`iter_report_chunks` emits the
  canonical campaign report (`json.dumps(..., indent=2,
  sort_keys=True)` byte-compatible) from a *record iterator*, so a
  100k-run report can be written without ever materialising the full
  record list in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.campaign.spec import CampaignSpec, RunSpec
from repro.core.exceptions import ConfigurationError, require_whole

__all__ = ["Shard", "shard_campaign", "default_shard_size",
           "spec_fingerprint", "CampaignWorkdir",
           "iter_report_chunks"]

#: Manifest schema version; bumped on incompatible layout changes.
_MANIFEST_FORMAT = 1

#: Maximum journal file handles the workdir keeps open at once.
#: Dispatch order is roughly shard-sequential, so a small LRU cache
#: avoids per-record open/close without holding thousands of fds on
#: very large grids.
_MAX_OPEN_JOURNALS = 32


@dataclass(frozen=True)
class Shard:
    """One deterministic slice of a campaign's sorted run grid.

    ``run_ids`` are contiguous in the campaign's canonical (sorted)
    record order, which is what lets the final report stream shard by
    shard while staying globally ordered.
    """

    shard_id: str
    index: int
    run_ids: tuple[str, ...]

    @property
    def n_runs(self) -> int:
        """Runs addressed by this shard."""
        return len(self.run_ids)


def default_shard_size(n_runs: int) -> int:
    """Shard size used when the caller does not pick one.

    A pure function of the grid size — never of worker count — so the
    shard layout (and therefore every shard id and journal name) is
    identical whether the campaign runs on one worker or fifty.  Small
    grids get one-run shards (finest checkpoint granularity); huge
    grids cap at 512 runs per shard so a million-run campaign stays at
    ~2000 journals.

    >>> default_shard_size(10)
    1
    >>> default_shard_size(10_000)
    157
    >>> default_shard_size(1_000_000)
    512
    """
    return max(1, min(512, -(-n_runs // 64)))


def shard_campaign(spec: CampaignSpec, *, shard_size: int | None = None
                   ) -> tuple[Shard, ...]:
    """Partition ``spec``'s run grid into deterministic shards.

    Runs are sorted by run id first — the same ordering the canonical
    report uses — and each shard's id is a digest of the run ids it
    contains, so shard identity survives scenario re-ordering in the
    spec and is independent of how execution is scheduled.

    >>> from repro.campaign.presets import synthetic_campaign
    >>> spec = synthetic_campaign(n_scenarios=3, seeds=(1, 2))
    >>> shards = shard_campaign(spec, shard_size=4)
    >>> [s.n_runs for s in shards]
    [4, 2]
    >>> shards == shard_campaign(spec, shard_size=4)
    True
    """
    if shard_size is not None:
        shard_size = require_whole("shard_size", shard_size, 1)
    run_ids = sorted(run.run_id for run in spec.expand())
    size = shard_size or default_shard_size(len(run_ids))
    shards = []
    for index, start in enumerate(range(0, len(run_ids), size)):
        chunk = tuple(run_ids[start:start + size])
        digest = hashlib.sha256(
            "\n".join(chunk).encode()).hexdigest()[:10]
        shards.append(Shard(shard_id=f"s{index:04d}-{digest}",
                            index=index, run_ids=chunk))
    return tuple(shards)


def spec_fingerprint(spec: CampaignSpec) -> str:
    """Stable digest identifying a campaign grid for resume validation.

    Hashes the campaign name, base seed, seed grid and the full repr of
    every scenario (frozen dataclasses, so reprs are deterministic) —
    resuming a workdir with a *different* grid under the same name is
    caught instead of silently mixing records.
    """
    h = hashlib.sha256()
    h.update(f"{spec.name}\x00{spec.base_seed}\x00".encode())
    for seed in spec.seeds:
        h.update(f"{seed},".encode())
    for scenario in sorted(spec.scenarios, key=lambda s: s.name):
        h.update(repr(scenario).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


class CampaignWorkdir:
    """A campaign's on-disk checkpoint: manifest plus shard journals.

    Layout::

        <root>/manifest.json          # atomic: tmp + os.replace
        <root>/shards/<shard_id>.jsonl

    The manifest pins the grid fingerprint, shard size and shard ids.
    :meth:`initialise` refuses a directory that already holds a
    manifest or a journal; :meth:`resume` refuses one whose manifest is
    missing, unreadable or belongs to a different grid.  Every refusal
    is a :class:`~repro.core.exceptions.ConfigurationError` naming the
    directory.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.json"
        self.shards_dir = self.root / "shards"
        self._handles: OrderedDict[str, IO[bytes]] = OrderedDict()

    # -- manifest ------------------------------------------------------

    def initialise(self, spec: CampaignSpec,
                   shards: tuple[Shard, ...], shard_size: int) -> None:
        """Start a fresh campaign in this workdir.

        Refusing to clobber checkpoints is the safe default: a manifest
        means resume instead, and a journal without one belongs to some
        other campaign whose records first-write-wins would keep.
        """
        if self.manifest_path.exists():
            raise ConfigurationError(
                f"workdir {self.root} already holds a campaign manifest; "
                "pass resume=True to continue it or choose a fresh "
                "directory")
        if any(self.shards_dir.glob("*.jsonl")):
            raise ConfigurationError(
                f"workdir {self.root} holds shard journals but no "
                "manifest; they belong to another campaign, choose a "
                "fresh directory")
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": _MANIFEST_FORMAT,
            "campaign": spec.name,
            "base_seed": spec.base_seed,
            "fingerprint": spec_fingerprint(spec),
            "shard_size": shard_size,
            "n_runs": sum(s.n_runs for s in shards),
            "shards": [{"id": s.shard_id, "index": s.index,
                        "n_runs": s.n_runs} for s in shards],
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)

    def resume(self, spec: CampaignSpec) -> int:
        """Validate this workdir against ``spec``; return its shard size.

        The manifest's shard size is authoritative on resume — it keeps
        shard ids (and journal names) stable even if the runner's
        default sizing changed between versions or the caller passed a
        different override.  A directory without a manifest is refused:
        running the whole campaign afresh would make a mistyped path
        look like a successful resume.
        """
        if not self.manifest_path.exists():
            raise ConfigurationError(
                f"nothing to resume in {self.root}: it holds no campaign "
                "manifest")
        try:
            with open(self.manifest_path, "rb") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"workdir {self.root} has an unreadable manifest: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ConfigurationError(
                f"workdir {self.root} has a manifest that is not a JSON "
                "object")
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ConfigurationError(
                f"workdir {self.root} uses manifest format "
                f"{manifest.get('format')!r}; this runner expects "
                f"{_MANIFEST_FORMAT}")
        fingerprint = spec_fingerprint(spec)
        if manifest.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"workdir {self.root} belongs to a different campaign "
                f"grid (manifest fingerprint "
                f"{manifest.get('fingerprint')!r}, spec {fingerprint!r}); "
                "refusing to mix records")
        shard_size = manifest.get("shard_size")
        try:
            expected = [entry["id"] for entry in manifest["shards"]]
        except (KeyError, TypeError):
            expected = None
        if (type(shard_size) is not int or shard_size < 1
                or expected is None):
            raise ConfigurationError(
                f"workdir {self.root} has a manifest without a positive "
                "integer shard size and a list of shard ids")
        actual = [s.shard_id
                  for s in shard_campaign(spec, shard_size=shard_size)]
        if expected != actual:
            raise ConfigurationError(
                f"workdir {self.root} shard layout does not match the "
                "spec; the grid changed since the manifest was written")
        return shard_size

    # -- journals ------------------------------------------------------

    def journal_path(self, shard_id: str) -> Path:
        """The JSONL journal path of one shard."""
        return self.shards_dir / f"{shard_id}.jsonl"

    def load_shard(self, shard: Shard) -> dict[str, dict]:
        """Completed records of ``shard`` by run id: the one journal
        reader.

        First write wins on a repeated run id.  A line that is not a
        JSON object carrying one of the shard's run ids and a status —
        a tail torn by a kill mid-append, or any other damage — is
        skipped, and its run simply re-executes on resume.
        """
        records: dict[str, dict] = {}
        path = self.journal_path(shard.shard_id)
        if not path.exists():
            return records
        wanted = set(shard.run_ids)
        with open(path, "rb") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                run_id = (record.get("run_id")
                          if isinstance(record, dict) else None)
                if (isinstance(run_id, str) and run_id in wanted
                        and "status" in record):
                    records.setdefault(run_id, record)
        return records

    def append(self, shard_id: str, record: dict) -> None:
        """Append one completed-run record to a shard's journal: the one
        journal writer.

        Handles are LRU-cached (dispatch is shard-sequential) and every
        line is flushed so a killed parent loses at most the line it
        was writing.  A journal whose last line a kill tore is sealed
        with a newline first, so the record lands on a line of its own.
        """
        handle = self._handles.get(shard_id)
        if handle is None:
            self.shards_dir.mkdir(parents=True, exist_ok=True)
            handle = open(self.journal_path(shard_id), "a+b")
            if handle.tell():
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            self._handles[shard_id] = handle
            while len(self._handles) > _MAX_OPEN_JOURNALS:
                _, oldest = self._handles.popitem(last=False)
                oldest.close()
        else:
            self._handles.move_to_end(shard_id)
        handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")
        handle.flush()

    def close(self) -> None:
        """Close every cached journal handle."""
        while self._handles:
            _, handle = self._handles.popitem()
            handle.close()

    def iter_records(self, shards: Iterable[Shard]
                     ) -> Iterator[dict]:
        """Stream journaled records in canonical (run-id-sorted) order.

        Shards partition the *sorted* run grid, so iterating shards in
        index order with an in-shard sort yields globally ordered
        records while only ever holding one shard in memory.
        """
        for shard in shards:
            loaded = self.load_shard(shard)
            for run_id in sorted(loaded):
                yield loaded[run_id]


def iter_report_chunks(campaign: str, base_seed: int, n_runs: int,
                       n_failed: int, records: Iterable[dict]
                       ) -> Iterator[str]:
    """The canonical campaign report as a stream of text chunks.

    Byte-compatible with ``json.dumps({"campaign": ..., "base_seed":
    ..., "n_runs": ..., "n_failed": ..., "records": [...]}, indent=2,
    sort_keys=True)`` — the report format every prior release wrote —
    but driven by a record *iterator*, so writing a huge report costs
    one record of memory, not the whole list.

    >>> "".join(iter_report_chunks("c", 1, 0, 0, iter(()))) == \\
    ...     json.dumps({"campaign": "c", "base_seed": 1, "n_runs": 0,
    ...                 "n_failed": 0, "records": []},
    ...                indent=2, sort_keys=True)
    True
    """
    yield (f'{{\n  "base_seed": {json.dumps(base_seed)},\n'
           f'  "campaign": {json.dumps(campaign)},\n'
           f'  "n_failed": {json.dumps(n_failed)},\n'
           f'  "n_runs": {json.dumps(n_runs)},\n'
           f'  "records": ')
    first = True
    for record in records:
        blob = json.dumps(record, indent=2, sort_keys=True)
        body = "\n".join("    " + line for line in blob.splitlines())
        yield ("[\n" if first else ",\n") + body
        first = False
    yield "[]\n}" if first else "\n  ]\n}"
