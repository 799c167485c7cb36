"""Quickstart: configure and simulate a small aelite network.

Builds a 2x2 mesh with one NI per router, declares an application of
three guaranteed-service channels, runs the full design flow (mapping,
contention-free slot allocation, analytical bounds), and simulates it
at flit level to show that measured latencies respect the guarantees.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (MB, Application, ChannelSpec, UseCase, analyse,
                        configure)
from repro.core.timeline import static_lifetimes
from repro.simulation import (ConstantBitRate, FlitLevelBackend,
                              SimRequest)
from repro.simulation.backend import check_lifetime_contention
from repro.topology import mesh


def main() -> None:
    # 1. The platform: a 2x2 mesh, one NI per router, one mesochronous
    #    link pipeline stage on every router-to-router link.
    topology = mesh(2, 2, nis_per_router=1, pipeline_stages=1)

    # 2. The application: three channels with throughput and latency
    #    requirements (one has no latency requirement at all).
    channels = (
        ChannelSpec("video", "camera", "encoder", 120 * MB,
                    max_latency_ns=200.0, application="streaming"),
        ChannelSpec("audio", "dsp", "codec", 20 * MB,
                    max_latency_ns=150.0, application="streaming"),
        ChannelSpec("stats", "encoder", "cpu", 5 * MB,
                    application="streaming"),
    )
    use_case = UseCase("demo", (Application("streaming", channels),))

    # 3. The design flow: map IPs, allocate TDM slots contention-free,
    #    and refuse the configuration unless every requirement is
    #    *guaranteed* (not just likely).
    config = configure(topology, use_case, table_size=16,
                       frequency_hz=500e6)
    print(f"configured: {config}")
    print(f"mean link utilisation: "
          f"{config.allocation.mean_link_utilisation():.1%}\n")

    print("analytical guarantees per channel:")
    for name, bounds in analyse(config.allocation).items():
        print(f"  {name:8s} latency <= {bounds.latency_ns:6.1f} ns   "
              f"throughput >= "
              f"{bounds.throughput_bytes_per_s / 1e6:6.1f} MB/s   "
              f"(slots {bounds.n_slots})")

    # 4. Check that no two flits the reservations allow can meet on a
    #    link, then simulate with each channel offering its contracted
    #    rate.
    check_lifetime_contention(static_lifetimes(config.allocation, 4000),
                              4000, config.table_size)
    backend = FlitLevelBackend(config)
    result = backend.run(SimRequest(n_slots=4000, traffic={
        spec.name: ConstantBitRate.from_rate(
            spec.throughput_bytes_per_s, config.frequency_hz, config.fmt)
        for spec in channels}))

    print("\nmeasured (flit-level simulation, 4000 slots):")
    for spec in channels:
        stats = result.stats.channel(spec.name)
        summary = stats.latency_summary()
        throughput = result.channel_throughput_bytes_per_s(spec.name)
        print(f"  {spec.name:8s} latency {summary.minimum:5.1f} / "
              f"{summary.mean:5.1f} / {summary.maximum:5.1f} ns "
              f"(min/mean/max)   delivered "
              f"{throughput / 1e6:6.1f} MB/s")

    bounds = analyse(config.allocation)
    for spec in channels:
        measured = result.stats.channel(spec.name).latency_summary()
        assert measured.maximum <= bounds[spec.name].latency_ns, \
            "a measured latency exceeded its guarantee"
    print("\nall measured latencies within the analytical guarantees.")


if __name__ == "__main__":
    main()
