"""Shared fixtures and options for the tier-2 gates.

Nothing under ``benchmarks/`` outside ``e2e/`` reports a time: a
wall-clock number comes from ``python3 benchmarks/e2e/run.py`` and is
judged by its ``--compare``.  The ``bench_*.py`` files are pass/fail
assertions — of a ratio between two paths measured in the same process
(compiled vs the per-flit oracle, wfq vs FCFS, pruned vs exhaustive
screening, telemetry / monitor on vs off) or of a number the paper
reports — that measure, assert and forget.

``--tier2`` opts into the ratio gates (every test that takes the
:func:`tier2` fixture); without it they skip.  Select one gate by
naming its file or test id.

The Section VII use case (generation + allocation) is expensive enough
to share across files; it is deterministic, so sharing couples nothing.
"""

from __future__ import annotations

import pytest

from repro.experiments.section7 import section7_setup


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--tier2", action="store_true", default=False,
        help="run the tier-2 gates (every test that takes the tier2 "
             "fixture; each asserts its own threshold — see the "
             "bench_*.py docstrings)")


@pytest.fixture
def tier2(request: pytest.FixtureRequest) -> None:
    """Skip the requesting gate unless ``--tier2`` was passed."""
    if not request.config.getoption("--tier2"):
        pytest.skip("pass --tier2 to run the tier-2 gates")


@pytest.fixture(scope="session")
def section7():
    """Generated and allocated 200-connection use case."""
    return section7_setup()
