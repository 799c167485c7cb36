"""Ablations of the design choices DESIGN.md calls out.

These sweep the knobs the paper fixes and show why the fixed values are
sensible:

* **slot-table size** — latency bound versus allocation success for the
  Section VII workload (small tables cannot spread slots finely enough;
  large tables raise the worst-case wait of one-slot channels);
* **FIFO depth versus skew** — the mesochronous stage's 4-word FIFO is
  exactly sufficient: depth 3 overflows under back-to-back flits, depth
  5+ is wasted area;
* **allocation ordering** — hardest-first ordering versus input order
  and throughput order, measured by allocation success and mean slots;
* **link pipeline stages** — each stage adds exactly one slot to the
  latency bound (the physical-scalability price of Section V);
* **simulation backend / clocking scheme** — one workload pushed through
  every registered :class:`~repro.simulation.backend.SimulationBackend`
  to show that the three GS views agree while best effort trades the
  latency bound for a lower average.
"""

from __future__ import annotations

from repro.core.allocation import AllocatorOptions, SlotAllocator
from repro.core.analysis import analyse, summarise
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError
from repro.core.words import WordFormat
from repro.synthesis.gates import fifo_area_um2
from repro.synthesis.technology import TECH_90LP
from repro.topology.builders import mesh
from repro.topology.mapping import round_robin
from repro.topology.routing import xy_path

__all__ = ["table_size_rows", "fifo_depth_rows", "ordering_rows",
           "pipeline_stage_rows", "backend_rows"]


def _workload(topo, n_channels: int = 24, seed: int = 5):
    import random
    rng = random.Random(seed)
    ips = [f"ip{i}" for i in range(16)]
    mapping = round_robin(ips, topo)
    channels = []
    for i in range(n_channels):
        src, dst = rng.sample(ips, 2)
        while mapping.ni_of(src) == mapping.ni_of(dst):
            src, dst = rng.sample(ips, 2)
        channels.append(ChannelSpec(
            f"c{i}", src, dst, rng.uniform(10, 100) * MB,
            max_latency_ns=rng.uniform(120, 400),
            application=f"app{i % 4}"))
    return channels, mapping


def table_size_rows() -> list[dict[str, object]]:
    """Allocation quality versus slot-table size."""
    topo = mesh(3, 2, nis_per_router=2)
    channels, mapping = _workload(topo)
    rows = []
    for table_size in (4, 8, 16, 32, 64, 128):
        try:
            allocation = SlotAllocator(
                topo, table_size=table_size,
                frequency_hz=500e6).allocate(channels, mapping)
            summary = summarise(analyse(allocation))
            rows.append({
                "table_size": table_size,
                "allocated": len(allocation.channels),
                "all_met": summary.all_requirements_met,
                "mean_latency_bound_ns": round(summary.mean_latency_ns, 1),
                "mean_slots": round(summary.mean_slots_per_channel, 2),
                "mean_link_util": round(
                    allocation.mean_link_utilisation(), 3),
            })
        except AllocationError as exc:
            rows.append({
                "table_size": table_size, "allocated": 0,
                "all_met": False, "mean_latency_bound_ns": "-",
                "mean_slots": "-",
                "mean_link_util": f"failed: {exc.channel}",
            })
    return rows


def fifo_depth_rows() -> list[dict[str, object]]:
    """Mesochronous FIFO depth: functional verdict and area.

    Depth verdicts come from the worst-case occupancy argument of
    Section V (writer up to half a cycle ahead, back-to-back flits):
    the stage needs flit_size + 1 words.  Areas use the custom FIFO
    model.
    """
    fmt = WordFormat()
    width = fmt.data_width + 2
    rows = []
    for depth in (3, 4, 5, 6, 8):
        sufficient = depth >= fmt.flit_size + 1
        rows.append({
            "fifo_words": depth,
            "tolerates_half_cycle_skew": sufficient,
            "area_um2": round(fifo_area_um2(depth, width, TECH_90LP)),
            "verdict": ("minimum sufficient" if depth == fmt.flit_size + 1
                        else ("overflows under back-to-back flits"
                              if not sufficient else "wasted area")),
        })
    return rows


def ordering_rows() -> list[dict[str, object]]:
    """Greedy allocation order ablation."""
    topo = mesh(3, 2, nis_per_router=2)
    channels, mapping = _workload(topo, n_channels=30, seed=11)
    rows = []
    for order in ("tightness", "throughput", "input"):
        try:
            allocation = SlotAllocator(
                topo, table_size=16, frequency_hz=500e6,
                options=AllocatorOptions(order=order)).allocate(
                    channels, mapping)
            summary = summarise(analyse(allocation))
            rows.append({
                "order": order,
                "allocated": len(allocation.channels),
                "all_met": summary.all_requirements_met,
                "mean_slots": round(summary.mean_slots_per_channel, 2),
                "mean_link_util": round(
                    allocation.mean_link_utilisation(), 3),
            })
        except AllocationError as exc:
            rows.append({"order": order, "allocated": 0, "all_met": False,
                         "mean_slots": "-",
                         "mean_link_util": f"failed: {exc.channel}"})
    return rows


def backend_rows() -> list[dict[str, object]]:
    """One workload through every backend, via the unified protocol.

    The flit-level and cycle-accurate backends must agree on the logical
    flit schedule (the flit-synchronous abstraction is exact, across
    clocking schemes up to one cycle of mesochronous phase); the
    best-effort backend runs the same offered traffic without TDM and
    shows the average-versus-worst-case trade the paper quantifies.
    """
    from repro.core.application import Application, UseCase
    from repro.core.configuration import configure
    from repro.simulation.backend import SimRequest, create_backend
    from repro.simulation.traffic import ConstantBitRate
    from repro.topology.mapping import Mapping

    topo = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
    channels = (
        ChannelSpec("c0", "ipA", "ipB", 80 * MB, application="app"),
        ChannelSpec("c1", "ipB", "ipC", 80 * MB, application="app"),
        ChannelSpec("c2", "ipC", "ipA", 80 * MB, application="app"),
    )
    use_case = UseCase("backend_ablation",
                       (Application("app", channels),))
    mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0",
                       "ipC": "ni1_1_0"})
    config = configure(topo, use_case, table_size=8, frequency_hz=500e6,
                       mapping=mapping)
    traffic = {
        spec.name: ConstantBitRate.from_rate(
            spec.throughput_bytes_per_s, 500e6, config.fmt,
            offset_cycles=2)
        for spec in channels}
    request = SimRequest(n_slots=400, traffic=traffic, seed=11)
    variants = [
        ("flit", "flit", {}),
        ("cycle/synchronous", "cycle", {"clocking": "synchronous"}),
        ("cycle/mesochronous", "cycle", {"clocking": "mesochronous"}),
        ("be", "be", {}),
    ]
    reference = create_backend("flit", config).run(request)
    rows: list[dict[str, object]] = []
    for label, kind, options in variants:
        result = (reference if label == "flit" else
                  create_backend(kind, config, **options).run(request))
        summary = result.latency_summary()
        deviation = 0
        for channel in traffic:
            # Match schedule entries by message identity, not position,
            # so a backend delivering fewer messages cannot misalign or
            # silently truncate the comparison.
            ref_by_message = {(mid, created): latency for mid, created,
                              latency in reference.logical_schedule(channel)}
            run_by_message = {(mid, created): latency for mid, created,
                              latency in result.logical_schedule(channel)}
            for key in ref_by_message.keys() & run_by_message.keys():
                deviation = max(deviation, abs(run_by_message[key] -
                                               ref_by_message[key]))
        rows.append({
            "backend": label,
            "messages": result.stats.delivery_count(),
            "p50_ns": round(summary.p50, 1) if summary else "-",
            "p99_ns": round(summary.p99, 1) if summary else "-",
            "max_ns": round(summary.maximum, 1) if summary else "-",
            "max_deviation_cycles_vs_flit": deviation,
        })
    return rows


def pipeline_stage_rows() -> list[dict[str, object]]:
    """Latency-bound cost of link pipeline stages (Section V price)."""
    fmt = WordFormat()
    rows = []
    for stages in (0, 1, 2, 3):
        topo = mesh(3, 1, nis_per_router=1, pipeline_stages=stages)
        path = xy_path(topo, "ni0_0_0", "ni2_0_0")
        rows.append({
            "stages_per_link": stages,
            "traversal_slots": path.traversal_slots,
            "traversal_ns_at_500mhz": round(
                path.traversal_cycles(fmt) * 2.0, 1),
        })
    return rows
