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


def run_profiled(func: Callable[[], T]) -> T:
    """Run ``func`` under :mod:`cProfile`, print top stats, return result.

    Stats go to ``sys.stderr``, so profiling never contaminates report
    stdout.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(func)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    sys.stderr.write("--- profile (top 25 by cumulative) ---\n")
    sys.stderr.write(buffer.getvalue())
    return result
