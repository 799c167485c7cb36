"""Topology substrate: NoC structure, builders, mapping, and routing.

Exports are resolved lazily (PEP 562) to keep cross-package imports
(``repro.core`` <-> ``repro.topology``) cycle-free.
"""

from __future__ import annotations

import importlib

_EXPORTS: dict[str, str] = {
    "Topology": "repro.topology.graph",
    "Link": "repro.topology.graph",
    "NodeKind": "repro.topology.graph",
    "mesh": "repro.topology.builders",
    "concentrated_mesh": "repro.topology.builders",
    "ring": "repro.topology.builders",
    "torus": "repro.topology.builders",
    "custom": "repro.topology.builders",
    "router_coords": "repro.topology.builders",
    "Mapping": "repro.topology.mapping",
    "round_robin": "repro.topology.mapping",
    "traffic_balanced": "repro.topology.mapping",
    "communication_clustered": "repro.topology.mapping",
    "hop_weighted_demand": "repro.topology.mapping",
    "router_distances": "repro.topology.mapping",
    "xy_route": "repro.topology.routing",
    "xy_path": "repro.topology.routing",
    "k_shortest_paths": "repro.topology.routing",
    "weighted_shortest_path": "repro.topology.routing",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve exports on first access (avoids circular imports)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.topology' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
