"""Composability: applications cannot disturb each other — at all.

Two applications share a 2x2 mesh.  The demo runs the network three
times: both applications active, the 'decoder' application alone, and
with the 'logger' application misbehaving (offering far more traffic
than contracted).  Under aelite's TDM the decoder's flit trace is
bit-identical in all three runs.  The same scenario on the best-effort
baseline shows measurably different timing — the isolation the paper's
Section VII claims is lost without TDM.

Run with:  python examples/composability_demo.py
"""

from __future__ import annotations

from repro.core import MB, Application, ChannelSpec, UseCase, configure
from repro.simulation import (BernoulliMessages, BestEffortBackend,
                              Saturating, SimRequest, run_with_channels)
from repro.topology import Mapping, mesh


def main() -> None:
    topology = mesh(2, 2, nis_per_router=2)
    decoder = Application("decoder", (
        ChannelSpec("dec_in", "reader", "decoder", 90 * MB,
                    max_latency_ns=250.0, application="decoder"),
        ChannelSpec("dec_out", "decoder", "display", 120 * MB,
                    max_latency_ns=250.0, application="decoder"),
    ))
    logger = Application("logger", (
        ChannelSpec("log_a", "sensor0", "storage", 40 * MB,
                    application="logger"),
        ChannelSpec("log_b", "sensor1", "storage", 40 * MB,
                    application="logger"),
    ))
    use_case = UseCase("demo", (decoder, logger))
    mapping = Mapping({
        "reader": "ni0_0_0", "decoder": "ni1_0_0", "display": "ni1_1_0",
        "sensor0": "ni0_0_1", "sensor1": "ni0_1_0",
        "storage": "ni1_0_1",
    })
    config = configure(topology, use_case, table_size=16,
                       frequency_hz=500e6, mapping=mapping)

    traffic = {name: BernoulliMessages(0.4, 2, 3, seed=index)
               for index, name in enumerate(sorted(
                   config.allocation.channels))}
    decoder_channels = {"dec_in", "dec_out"}
    all_channels = set(traffic)

    print("=== aelite (TDM): three runs, decoder trace compared ===")
    full = run_with_channels(config, traffic, all_channels, 1500)
    alone = run_with_channels(config, traffic, decoder_channels, 1500)
    noisy_traffic = dict(traffic)
    noisy_traffic["log_a"] = Saturating(2, 3)  # logger misbehaves
    noisy_traffic["log_b"] = Saturating(2, 3)
    noisy = run_with_channels(config, noisy_traffic, all_channels, 1500)
    for name in sorted(decoder_channels):
        same_alone = full.trace(name) == alone.trace(name)
        same_noisy = full.trace(name) == noisy.trace(name)
        n = len(full.trace(name))
        print(f"  {name}: {n} flits — trace identical when logger "
              f"stopped: {same_alone}; when logger floods: {same_noisy}")
        assert same_alone and same_noisy

    print("\n=== best-effort baseline: same scenario ===")

    def run_be(active, patterns):
        result = BestEffortBackend(config, buffer_flits=2).run(
            SimRequest(n_slots=1500, traffic={
                name: pattern for name, pattern in patterns.items()
                if name in active}))
        return {name: tuple((d.message_id, d.delivered_cycle)
                            for d in result.stats.channel(name).deliveries)
                for name in sorted(decoder_channels)}

    be_full = run_be(all_channels, traffic)
    be_noisy = run_be(all_channels, noisy_traffic)
    diverged = sum(1 for name in sorted(decoder_channels)
                   if be_full[name] != be_noisy[name])
    for name in sorted(decoder_channels):
        print(f"  {name}: timing identical when logger floods: "
              f"{be_full[name] == be_noisy[name]}")
    print(f"\n{diverged} of {len(decoder_channels)} decoder channels "
          "changed timing under best effort — composability lost.")
    assert diverged > 0


if __name__ == "__main__":
    main()
