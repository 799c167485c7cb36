"""GALS operation: mesochronous links and asynchronous wrappers.

Demonstrates Sections V and VI of the paper on a 2x2 mesh:

1. **mesochronous** — every router (with its NIs) gets its own clock
   phase; link pipeline stages re-align flits to the reading clock so
   the network stays flit-synchronous.  The example verifies that the
   bi-synchronous FIFOs never exceed the paper's 4-word sizing and that
   latencies match the globally synchronous run to within one cycle.
2. **plesiochronous + wrappers** — every element gets a slightly
   different clock *frequency*; the asynchronous wrappers stall
   elements into lock-step so the whole NoC runs at the slowest clock.

Run with:  python examples/mesochronous_gals.py
"""

from __future__ import annotations

from repro.core import MB, Application, ChannelSpec, UseCase, configure
from repro.simulation import ConstantBitRate, DetailedNetwork
from repro.topology import Mapping, mesh


def build_config():
    topology = mesh(2, 2, nis_per_router=1, pipeline_stages=1)
    channels = (
        ChannelSpec("c0", "ipA", "ipB", 80 * MB, application="app"),
        ChannelSpec("c1", "ipB", "ipC", 80 * MB, application="app"),
        ChannelSpec("c2", "ipC", "ipA", 80 * MB, application="app"),
    )
    use_case = UseCase("gals", (Application("app", channels),))
    mapping = Mapping({"ipA": "ni0_0_0", "ipB": "ni1_0_0",
                       "ipC": "ni1_1_0"})
    return configure(topology, use_case, table_size=8,
                     frequency_hz=500e6, mapping=mapping)


def traffic_for(config):
    return {name: ConstantBitRate.from_rate(
        ca.spec.throughput_bytes_per_s, config.frequency_hz, config.fmt)
        for name, ca in config.allocation.channels.items()}


def main() -> None:
    config = build_config()
    traffic = traffic_for(config)

    print("=== globally synchronous reference ===")
    sync = DetailedNetwork(config, clocking="synchronous",
                           traffic=traffic, horizon_slots=400).run()
    reference = {}
    for name in sorted(config.allocation.channels):
        summary = sync.stats.channel(name).latency_summary()
        reference[name] = summary.mean
        print(f"  {name}: mean latency {summary.mean:5.1f} ns "
              f"({summary.count} messages)")

    print("\n=== mesochronous: per-router clock phases, link stages ===")
    meso_net = DetailedNetwork(config, clocking="mesochronous",
                               traffic=traffic, horizon_slots=400,
                               mesochronous_seed=7)
    for node in sorted(config.topology.routers):
        clock = meso_net.clock_of(node)
        print(f"  {node}: phase {clock.phase_ps} ps")
    meso = meso_net.run()
    cycle_ns = 1e9 / config.frequency_hz
    for name in sorted(config.allocation.channels):
        summary = meso.stats.channel(name).latency_summary()
        delta = summary.mean - reference[name]
        print(f"  {name}: mean latency {summary.mean:5.1f} ns "
              f"(delta {delta:+.2f} ns — within one {cycle_ns:.0f} ns "
              "cycle of the synchronous run)")
        assert abs(delta) <= cycle_ns
    worst_fifo = max(meso.fifo_max_occupancy.values())
    print(f"  worst bi-synchronous FIFO occupancy: {worst_fifo} words "
          "(the paper sizes the FIFO at 4)")
    assert worst_fifo <= 4

    print("\n=== plesiochronous: wrappers, clocks differ by 5000 ppm ===")
    wrapped_net = DetailedNetwork(config, clocking="asynchronous",
                                  traffic=traffic, horizon_slots=400,
                                  plesiochronous_ppm=5000.0,
                                  mesochronous_seed=7)
    slowest = max(c.period_ps for c in wrapped_net.domains.values())
    fastest = min(c.period_ps for c in wrapped_net.domains.values())
    print(f"  clock periods span {fastest}..{slowest} ps")
    wrapped = wrapped_net.run()
    firings = wrapped.wrapper_firings
    print(f"  element firings: {min(firings.values())}.."
          f"{max(firings.values())} "
          "(lock-step: the whole NoC runs at the slowest clock)")
    # A wrapper consumes one token per link per firing, so no element
    # gets further ahead of a neighbour than the tokens primed on the
    # link between them: the hop's 1 + pipeline_stages slots, one more
    # at an NI.
    topology = config.topology
    for link in topology.links:
        primed = 1 + link.pipeline_stages + (
            link.src in topology.nis or link.dst in topology.nis)
        assert firings[link.dst] - firings[link.src] <= primed
    for name in sorted(config.allocation.channels):
        deliveries = wrapped.stats.channel(name).deliveries
        ids = [d.message_id for d in deliveries]
        assert ids == sorted(ids), "out-of-order delivery"
    print("  all messages delivered in order over the wrapped network.")


if __name__ == "__main__":
    main()
