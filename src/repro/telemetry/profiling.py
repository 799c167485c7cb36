"""Profiling hooks: the ``--profile`` cProfile wrapper for the CLI.

Deliberately tiny — the heavy lifting is stdlib :mod:`cProfile` — but
centralised here so every subcommand profiles the same way and tests can
exercise the wrapper without spawning a CLI process.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from typing import Callable, TypeVar

__all__ = ["run_profiled"]

T = TypeVar("T")


def run_profiled(func: Callable[[], T], *, stream=None) -> T:
    """Run ``func`` under :mod:`cProfile`, print top stats, return result.

    Stats go to ``stream`` (default ``sys.stderr``, so profiling never
    contaminates report stdout).

    >>> result = run_profiled(lambda: sum(range(100)),
    ...                       stream=io.StringIO())
    >>> result
    4950
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(func)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    out = stream if stream is not None else sys.stderr
    out.write("--- profile (top 25 by cumulative) ---\n")
    out.write(buffer.getvalue())
    return result
