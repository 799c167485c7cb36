"""repro — a from-scratch reproduction of the aelite network on chip.

aelite (Hansson, Subburaman, Goossens — DATE 2009) is a guaranteed-
services-only NoC built on flit-synchronous time-division multiplexing:
contention-free routing via slot tables, a three-stage arbiterless router,
mesochronous link pipeline stages, and asynchronous wrappers that make the
whole network logically synchronous at flit granularity without global
clock distribution.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — slot tables, allocation, analytical bounds;
* :mod:`repro.topology` — structure, builders, mapping, routing;
* :mod:`repro.router` / :mod:`repro.link` / :mod:`repro.ni` /
  :mod:`repro.wrapper` — cycle-accurate hardware models;
* :mod:`repro.clocking` — synchronous/mesochronous/plesiochronous clocks;
* :mod:`repro.simulation` — event kernel, both GS models, and the
  :class:`~repro.simulation.backend.SimulationBackend` protocol
  (``SimRequest``/``SimResult``), the one way any of them is run;
* :mod:`repro.baseline` — the Æthereal GS+BE comparison network (the
  engine behind the ``"be"`` backend);
* :mod:`repro.synthesis` — calibrated area/frequency models;
* :mod:`repro.usecase` — the Section VII 200-connection use case;
* :mod:`repro.experiments` — one module per paper figure/table;
* :mod:`repro.campaign` — declarative scenario campaigns (topology ×
  traffic × backend/clocking × seed grids, plus ``mode="serve"`` churn
  scenarios) executed over a multiprocessing pool with deterministic,
  byte-stable JSON reports (``python -m repro campaign --demo``);
* :mod:`repro.service` — the online NoC control plane: admission-
  controlled session churn over a live allocation, with per-accept
  analytical bound quotes and the composability invariant re-checked
  on every transition (``python -m repro serve --demo``);
* :mod:`repro.design` — the design-space explorer: dimension a network
  from a workload via analytical lower-bound pruning, annealed mapping
  optimisation, probe-cached feasibility bisection and synthesis cost
  models, fanned out over the campaign pool into a byte-deterministic
  Pareto front (``python -m repro design --demo``), with a
  ``spare_capacity`` knob that provisions headroom for failure
  tolerance;
* :mod:`repro.faults` — fault injection and degraded-mode guarantees:
  seeded link/router failure schedules, guarantee-preserving
  re-allocation over surviving routes
  (:meth:`~repro.core.allocation.Allocation.rebuild_excluding`),
  fault events in the control plane, and byte-deterministic
  survivability reports (``python -m repro faults --demo``).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS: dict[str, str] = {
    # The most common entry points, re-exported for convenience.
    "WordFormat": "repro.core.words",
    "ChannelSpec": "repro.core.connection",
    "Application": "repro.core.application",
    "UseCase": "repro.core.application",
    "SlotAllocator": "repro.core.allocation",
    "Allocation": "repro.core.allocation",
    "NocConfiguration": "repro.core.configuration",
    "configure": "repro.core.configuration",
    "analyse": "repro.core.analysis",
    "Topology": "repro.topology.graph",
    "mesh": "repro.topology.builders",
    "concentrated_mesh": "repro.topology.builders",
    "FlitLevelBackend": "repro.simulation.backend",
    "DetailedNetwork": "repro.simulation.cyclesim",
    "SimRequest": "repro.simulation.backend",
    "SimResult": "repro.simulation.backend",
    "SimulationBackend": "repro.simulation.backend",
    "create_backend": "repro.simulation.backend",
    "CampaignSpec": "repro.campaign.spec",
    "CampaignRunner": "repro.campaign.runner",
    "DesignExplorer": "repro.design.explorer",
    "DesignSpace": "repro.design.space",
    "DesignSpec": "repro.design.space",
    "FaultSpec": "repro.faults.model",
    "FaultEvent": "repro.faults.model",
    "FaultSchedule": "repro.faults.model",
    "SessionService": "repro.service.controller",
    "ChurnSpec": "repro.service.churn",
    "Telemetry": "repro.telemetry.hub",
    "NullTelemetry": "repro.telemetry.hub",
    "run_profiled": "repro.telemetry.profiling",
    "MB": "repro.core.connection",
    "GB": "repro.core.connection",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    """Resolve top-level exports lazily."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
