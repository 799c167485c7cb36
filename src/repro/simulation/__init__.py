"""Simulation: event kernel, backend protocol, flit- and word-level models.

``python -m repro replay --demo`` replays a churn timeline through
:func:`verify_timeline` on the flit-level and best-effort backends: the
two-scenario ``replay_demo`` campaign preset (``mode="replay"``).
"""

from __future__ import annotations

import importlib

_EXPORTS: dict[str, str] = {
    "SimRequest": "repro.simulation.backend",
    "SimResult": "repro.simulation.backend",
    "SimulationBackend": "repro.simulation.backend",
    "FlitLevelBackend": "repro.simulation.backend",
    "CycleAccurateBackend": "repro.simulation.backend",
    "BestEffortBackend": "repro.simulation.backend",
    "available_backends": "repro.simulation.backend",
    "create_backend": "repro.simulation.backend",
    "Engine": "repro.simulation.engine",
    "Clocked": "repro.simulation.engine",
    "Phit": "repro.simulation.signals",
    "WordWire": "repro.simulation.signals",
    "IDLE": "repro.simulation.signals",
    "DetailedNetwork": "repro.simulation.cyclesim",
    "DetailedSimResult": "repro.simulation.cyclesim",
    "MessageEvent": "repro.simulation.traffic",
    "TrafficPattern": "repro.simulation.traffic",
    "ConstantBitRate": "repro.simulation.traffic",
    "PeriodicBurst": "repro.simulation.traffic",
    "BernoulliMessages": "repro.simulation.traffic",
    "Replay": "repro.simulation.traffic",
    "Saturating": "repro.simulation.traffic",
    "GeneratorComponent": "repro.simulation.traffic",
    "InjectionRecord": "repro.simulation.monitors",
    "DeliveryRecord": "repro.simulation.monitors",
    "ChannelStats": "repro.simulation.monitors",
    "StatsCollector": "repro.simulation.monitors",
    "TraceRecorder": "repro.simulation.monitors",
    "LatencySummary": "repro.simulation.monitors",
    "ComposabilityReport": "repro.simulation.composability",
    "run_with_channels": "repro.simulation.composability",
    "compare_subsets": "repro.simulation.composability",
    "DynamicComposabilityReport": "repro.simulation.composability",
    "replay_traffic": "repro.simulation.composability",
    "verify_timeline": "repro.simulation.composability",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve exports lazily to keep imports cycle-free."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.simulation' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
