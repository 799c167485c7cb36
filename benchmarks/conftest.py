"""Shared fixtures and options for the benchmark suite.

The Section VII use case (generation + allocation) is expensive enough
to share across benchmarks; it is deterministic, so sharing does not
couple measurements.

``--tier2`` opts into the tier-2 gates — the tests that take the
:func:`tier2` fixture: campaign smoke and fabric speedup, service churn
and fairness throughput, epoch replay, design screening, and the
telemetry / monitor overhead gates.  Without it they skip; select one
gate by naming its file or test id.

``--bench-record`` turns benchmark measurements into *tracked*
perf-trajectory artifacts: every benchmark that uses the
:func:`bench_record` fixture appends one entry — benchmark name, wall
time, ops/s, speedup, git revision, timestamp — to
``benchmarks/records/BENCH_<name>.json``.  Each file is a list ordered
by recording time, so re-running with ``--bench-record`` across PRs
grows a machine-readable speedup history instead of a chain of
assertions that vanish with each CI run (see ``docs/performance.md``).
"""

from __future__ import annotations

import datetime
import json
import subprocess
from pathlib import Path

import pytest

#: Default directory for ``BENCH_*.json`` perf-trajectory artifacts.
RECORDS_DIR = Path(__file__).resolve().parent / "records"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--tier2", action="store_true", default=False,
        help="run the tier-2 gates (every test that takes the tier2 "
             "fixture; each asserts its own threshold — see the "
             "bench_*.py docstrings)")
    parser.addoption(
        "--bench-record", action="store_true", default=False,
        help="append every recorded measurement to "
             "benchmarks/records/BENCH_<name>.json (benchmark name, "
             "wall time, ops/s, speedup, git rev, timestamp) so the "
             "perf trajectory is tracked across PRs")


@pytest.fixture
def tier2(request: pytest.FixtureRequest) -> None:
    """Skip the requesting gate unless ``--tier2`` was passed."""
    if not request.config.getoption("--tier2"):
        pytest.skip("pass --tier2 to run the tier-2 gates")


def _git_rev() -> str:
    """Current revision (``describe --always --dirty``), or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


@pytest.fixture
def bench_record(request: pytest.FixtureRequest):
    """Appender for ``BENCH_<name>.json`` perf-trajectory entries.

    Benchmarks call ``bench_record(name, wall_s=..., ops_per_s=...,
    speedup=..., **extra)``; without ``--bench-record`` the call is a
    no-op, so benchmarks measure identically either way.  Entries append
    to a per-benchmark JSON list — the recorded trajectory — and the
    file path is returned for log messages.
    """
    enabled = request.config.getoption("--bench-record")
    rev = _git_rev() if enabled else "unrecorded"
    stamp = (datetime.datetime.now(datetime.timezone.utc)
             .strftime("%Y-%m-%dT%H:%M:%SZ"))

    def record(name: str, *, wall_s: float, ops_per_s: float | None = None,
               speedup: float | None = None, **extra) -> Path | None:
        if not enabled:
            return None
        RECORDS_DIR.mkdir(parents=True, exist_ok=True)
        path = RECORDS_DIR / f"BENCH_{name}.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entry: dict[str, object] = {
            "benchmark": name,
            "wall_s": round(wall_s, 6),
            "ops_per_s": (None if ops_per_s is None
                          else round(ops_per_s, 1)),
            "speedup": None if speedup is None else round(speedup, 2),
            "git_rev": rev,
            "timestamp": stamp,
        }
        if extra:
            entry["extra"] = {
                key: (round(value, 6)
                      if isinstance(value, float) else value)
                for key, value in sorted(extra.items())}
        entries.append(entry)
        path.write_text(json.dumps(entries, indent=2, sort_keys=True) +
                        "\n")
        return path

    return record


from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.experiments.section7 import section7_setup
from repro.simulation.traffic import ConstantBitRate
from repro.topology.builders import mesh
from repro.topology.mapping import Mapping


@pytest.fixture(scope="session")
def section7():
    """Generated and allocated 200-connection use case."""
    instance, config = section7_setup()
    return instance, config


@pytest.fixture(scope="session")
def mesh_small_config():
    """A small mesh configuration plus CBR traffic for detailed sims."""
    topo = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
    channels = (
        ChannelSpec("c0", "ipA", "ipB", 80 * MB, application="app"),
        ChannelSpec("c1", "ipB", "ipC", 80 * MB, application="app"),
        ChannelSpec("c2", "ipC", "ipA", 80 * MB, application="app"),
    )
    use_case = UseCase("bench", (Application("app", channels),))
    mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0",
                       "ipC": "ni1_1_0"})
    config = configure(topo, use_case, table_size=8, frequency_hz=500e6,
                       mapping=mapping)
    traffic = {
        spec.name: ConstantBitRate.from_rate(
            spec.throughput_bytes_per_s, 500e6, config.fmt)
        for spec in channels}
    return config, traffic
