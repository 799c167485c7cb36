"""Fault-aware guarantees: failure injection and degraded-mode service.

Aelite's composability and predictability hold on a healthy fabric;
this package measures what survives when the fabric degrades:

* :mod:`repro.faults.model` — seeded, deterministic schedules of link
  and router failures/repairs (:class:`FaultSpec`,
  :class:`FaultSchedule`);
* :meth:`repro.core.allocation.Allocation.rebuild_excluding` — the
  allocator-layer answer: guarantee-preserving re-allocation of
  affected channels over surviving k-shortest paths with per-channel
  verdicts;
* :meth:`repro.service.controller.SessionService.process_fault` — the
  control-plane answer: fault-hit sessions are force-released and
  re-admitted through the normal admission path, all recorded onto the
  replayable reconfiguration timeline;
* :mod:`repro.faults.demo` — the ``mode="faults"`` experiment: churn
  + faults, survivability metrics against a fault-free baseline, and
  the dynamic composability proof for fault survivors.

Campaign grids sweep fault rate × topology × slot-table size as
``mode="faults"`` scenarios (:func:`repro.campaign.fault_campaign`);
``python -m repro faults --demo`` runs the one-scenario
``faults_demo`` preset.

Exports are resolved lazily (PEP 562) because the experiment imports
the service layer, which itself imports :mod:`repro.faults.model`.
"""

from __future__ import annotations

import importlib

_EXPORTS: dict[str, str] = {
    "FaultSpec": "repro.faults.model",
    "FaultEvent": "repro.faults.model",
    "FaultSchedule": "repro.faults.model",
    "FaultRunOutcome": "repro.faults.demo",
    "run_churn_with_faults": "repro.faults.demo",
    "survivability_record": "repro.faults.demo",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve exports on first access (avoids circular imports)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.faults' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
