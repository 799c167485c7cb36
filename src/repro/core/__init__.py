"""Core of the aelite reproduction: the TDM guaranteed-service flow.

This package implements the paper's primary contribution in software
terms: word/flit formats, slot-table arithmetic, contention-free slot
allocation, and the analytical latency/throughput bounds that make the
services *predictable*.  The hardware models in :mod:`repro.router`,
:mod:`repro.link`, :mod:`repro.wrapper` and :mod:`repro.ni` realise the
same behaviour cycle by cycle.

Exports are resolved lazily (PEP 562) so that submodules of sibling
packages can import ``repro.core.*`` without triggering a circular import
through this ``__init__``.
"""

from __future__ import annotations

import importlib

_EXPORTS: dict[str, str] = {
    # words / flits
    "WordFormat": "repro.core.words",
    "encode_path": "repro.core.words",
    "decode_next_port": "repro.core.words",
    "shift_path": "repro.core.words",
    "encode_header": "repro.core.words",
    "decode_header": "repro.core.words",
    "header_queue": "repro.core.words",
    "header_credits": "repro.core.words",
    "Flit": "repro.core.flits",
    "FlitKind": "repro.core.flits",
    "FlitMeta": "repro.core.flits",
    # slots / paths
    "shifted": "repro.core.slot_table",
    "worst_case_wait_slots": "repro.core.slot_table",
    "max_consecutive_gap": "repro.core.slot_table",
    "spread_slots": "repro.core.slot_table",
    "Path": "repro.core.path",
    "make_path": "repro.core.path",
    # specs
    "ChannelSpec": "repro.core.connection",
    "Application": "repro.core.application",
    "UseCase": "repro.core.application",
    "MB": "repro.core.connection",
    "GB": "repro.core.connection",
    "NS": "repro.core.connection",
    "US": "repro.core.connection",
    # requirements / allocation / analysis
    "slots_for_throughput": "repro.core.requirements",
    "throughput_of_slots": "repro.core.requirements",
    "max_gap_for_latency": "repro.core.requirements",
    "latency_bound_ns": "repro.core.requirements",
    "slot_duration_s": "repro.core.requirements",
    "table_rotation_s": "repro.core.requirements",
    "link_raw_bytes_per_s": "repro.core.requirements",
    "link_payload_bytes_per_s": "repro.core.requirements",
    "SlotAllocator": "repro.core.allocation",
    "AllocatorOptions": "repro.core.allocation",
    "Allocation": "repro.core.allocation",
    "ChannelAllocation": "repro.core.placement",
    "ChannelVerdict": "repro.core.allocation",
    "RebuildReport": "repro.core.allocation",
    "excluded_link_keys": "repro.core.allocation",
    "ChannelBounds": "repro.core.analysis",
    "AnalysisSummary": "repro.core.analysis",
    "analyse": "repro.core.analysis",
    "channel_bounds": "repro.core.analysis",
    "summarise": "repro.core.analysis",
    # buffers / credits
    "CreditLoop": "repro.core.buffers",
    "credit_loop": "repro.core.buffers",
    "required_rx_buffer_words": "repro.core.buffers",
    "required_tx_buffer_words": "repro.core.buffers",
    "credit_headroom_ok": "repro.core.buffers",
    # configuration
    "NocConfiguration": "repro.core.configuration",
    "configure": "repro.core.configuration",
    # reconfiguration and dataflow analysis
    "ReconfigurationManager": "repro.core.reconfiguration",
    "TransitionReport": "repro.core.reconfiguration",
    "ReconfigurationTimeline": "repro.core.timeline",
    "TimelineEvent": "repro.core.timeline",
    "TimelineRecorder": "repro.core.timeline",
    "replay_configuration": "repro.core.timeline",
    "LatencyRateServer": "repro.core.dataflow",
    "latency_rate_of": "repro.core.dataflow",
    "analyse_dataflow": "repro.core.dataflow",
    "busy_period_latency_ns": "repro.core.dataflow",
    "backlog_bound_bytes": "repro.core.dataflow",
    # errors
    "ReproError": "repro.core.exceptions",
    "ConfigurationError": "repro.core.exceptions",
    "TopologyError": "repro.core.exceptions",
    "HeaderFormatError": "repro.core.exceptions",
    "AllocationError": "repro.core.exceptions",
    "SimulationError": "repro.core.exceptions",
    "DeadlockError": "repro.core.exceptions",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve exports on first access (avoids circular imports)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
