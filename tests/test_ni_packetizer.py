"""Tests for the packetiser and the network-interface model."""

from __future__ import annotations

from collections import deque

import pytest

from repro.clocking.clock import ClockDomain
from repro.core.exceptions import ConfigurationError
from repro.core.words import (WordFormat, decode_header, header_credits,
                              header_queue)
from repro.ni.network_interface import (NetworkInterface, RxQueueConfig,
                                        TxChannelConfig)
from repro.ni.packetizer import Packetizer, TxMessage
from repro.simulation.engine import Engine
from repro.simulation.monitors import StatsCollector
from repro.simulation.signals import Phit


def _message(msg_id=0, words=2, created=0):
    return TxMessage(message_id=msg_id, words=deque(range(words)),
                     created_cycle=created)


class TestPacketizer:
    def test_header_flit_layout(self, fmt):
        pk = Packetizer("ch", path_field=0b101, queue_id=3, fmt=fmt)
        pk.enqueue(_message(words=2))
        flit = pk.next_flit(credits=7, next_slot_is_ours=False)
        assert flit.has_header
        assert flit.eop
        path, queue, credits = decode_header(flit.header_word, fmt)
        assert path == 0b101
        assert queue == 3
        assert credits == 7
        assert flit.meta.payload_bytes == 8

    def test_message_larger_than_flit_spans_packets(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt, max_packet_flits=1)
        pk.enqueue(_message(words=5))
        flits = []
        while pk.has_data:
            flits.append(pk.next_flit(credits=0, next_slot_is_ours=False))
        # 5 words at 2 payload words per (header-bearing) flit.
        assert len(flits) == 3
        assert all(f.has_header for f in flits)
        assert flits[-1].meta.message_last

    def test_continuation_when_next_slot_ours(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt, max_packet_flits=4)
        pk.enqueue(_message(words=8))
        first = pk.next_flit(credits=0, next_slot_is_ours=True)
        assert not first.eop
        second = pk.next_flit(credits=0, next_slot_is_ours=True)
        assert not second.has_header
        # Continuation flits carry a full flit of payload.
        assert second.meta.payload_bytes == fmt.flit_size * 4

    def test_packet_length_limit(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt, max_packet_flits=2)
        pk.enqueue(_message(words=20))
        first = pk.next_flit(credits=0, next_slot_is_ours=True)
        second = pk.next_flit(credits=0, next_slot_is_ours=True)
        assert not first.eop
        assert second.eop  # limit reached, packet closed

    def test_message_boundary_forces_eop(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt)
        pk.enqueue(_message(msg_id=0, words=2))
        pk.enqueue(_message(msg_id=1, words=2))
        first = pk.next_flit(credits=0, next_slot_is_ours=True)
        assert first.eop  # messages never share a packet
        assert first.meta.message_last

    def test_sequence_numbers_monotonic(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt)
        pk.enqueue(_message(words=6))
        seqs = []
        while pk.has_data:
            seqs.append(pk.next_flit(
                credits=0, next_slot_is_ours=False).meta.sequence)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_credit_only_flit(self, fmt):
        pk = Packetizer("ch", 0b11, 5, fmt)
        flit = pk.credit_only_flit(credits=9)
        assert flit.eop and flit.has_header
        assert header_credits(flit.header_word, fmt) == 9
        assert header_queue(flit.header_word, fmt) == 5
        assert flit.meta.payload_bytes == 0

    def test_next_flit_without_data_raises(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt)
        with pytest.raises(ConfigurationError):
            pk.next_flit(credits=0, next_slot_is_ours=False)

    def test_pending_words_accounting(self, fmt):
        pk = Packetizer("ch", 0, 0, fmt)
        pk.enqueue(_message(words=5))
        assert pk.pending_words == 5
        pk.next_flit(credits=0, next_slot_is_ours=False)
        assert pk.pending_words == 3


class _Loopback:
    """Connects an NI's output wire straight back to its input."""

    def __init__(self, ni):
        self.ni = ni

    def compute(self, cycle, time_ps):
        pass

    def commit(self, cycle, time_ps):
        phit = self.ni.outputs[0].sample()
        if phit.valid:
            self.ni.inputs[0].drive(phit)


class TestNetworkInterface:
    def _make_ni(self, fmt, slots=(0, 2), queue=0, credits=None,
                 stats=None):
        row = tuple("ch" if slot in slots else None for slot in range(4))
        ni = NetworkInterface(
            "ni", row, fmt,
            tx_channels=[TxChannelConfig(
                name="ch", path_field=0, queue_id=queue,
                initial_credits=credits)],
            rx_queues=[RxQueueConfig(queue_id=queue, channel="ch")],
            stats=stats or StatsCollector())
        return ni

    def _run(self, ni, n_cycles, enqueue_at=None):
        engine = Engine()
        clock = ClockDomain("clk", period_ps=2000)
        loop = _Loopback(ni)

        class Feeder:
            def __init__(self, events):
                self.events = list(events or [])

            def compute(self, cycle, time_ps):
                for at, msg in list(self.events):
                    if at == cycle:
                        ni.enqueue_message("ch", msg)
                        self.events.remove((at, msg))

            def commit(self, cycle, time_ps):
                pass

        engine.add_component(clock, Feeder(enqueue_at))
        engine.add_component(clock, ni)
        engine.add_component(clock, loop)
        engine.add_wire(clock, ni.outputs[0])
        engine.add_wire(clock, ni.inputs[0])
        engine.run_until(n_cycles * 2000)
        return engine

    def test_injects_only_in_owned_slots(self, fmt):
        stats = StatsCollector()
        ni = self._make_ni(fmt, slots=(2,), stats=stats)
        self._run(ni, 24, enqueue_at=[(0, _message(i)) for i in range(3)])
        slots = [r.slot_index % 4 for r in stats.channel("ch").injections]
        assert slots and all(s == 2 for s in slots)

    def test_no_data_no_emission(self, fmt):
        ni = self._make_ni(fmt)
        self._run(ni, 24)
        assert ni.flits_injected == 0

    def test_loopback_delivery_and_latency(self, fmt):
        stats = StatsCollector()
        ni = self._make_ni(fmt, slots=(0,), stats=stats)
        self._run(ni, 24, enqueue_at=[(0, _message(0, words=2))])
        deliveries = stats.channel("ch").deliveries
        assert len(deliveries) == 1
        # Injected in slot 0 (cycles 0-2), looped back next cycle: the
        # final word returns at cycle 3 + 1 = 4.
        assert deliveries[0].delivered_cycle == 4

    def test_multi_flit_message_reassembled(self, fmt):
        stats = StatsCollector()
        ni = self._make_ni(fmt, slots=(0, 1, 2, 3), stats=stats)
        self._run(ni, 48, enqueue_at=[(0, _message(0, words=10))])
        deliveries = stats.channel("ch").deliveries
        assert len(deliveries) == 1
        assert deliveries[0].payload_bytes == 40

    def test_credit_stall_and_recovery(self, fmt):
        """With credits for one flit only, the loopback returns credits
        (the channel is its own reverse channel here), so traffic keeps
        flowing — but strictly slower than without flow control."""
        stats = StatsCollector()
        ni = NetworkInterface(
            "ni", ("ch", None, None, None), fmt,
            tx_channels=[TxChannelConfig(
                name="ch", path_field=0, queue_id=0,
                initial_credits=2, credit_source_queue=0)],
            rx_queues=[RxQueueConfig(queue_id=0, channel="ch",
                                     credit_target_tx="ch")],
            stats=stats)
        self._run(ni, 64, enqueue_at=[(0, _message(i, words=2))
                                      for i in range(8)])
        assert ni.flits_injected >= 2
        assert ni.stalled_slots > 0
        assert len(stats.channel("ch").deliveries) >= 2

    def test_unknown_queue_raises(self, fmt):
        from repro.core.exceptions import SimulationError
        ni = self._make_ni(fmt, queue=0)
        ni._rx.clear()  # remove the queue: arriving packet must fail
        with pytest.raises(SimulationError):
            self._run(ni, 24, enqueue_at=[(0, _message(0))])

    def test_duplicate_tx_channel_rejected(self, fmt):
        cfg = TxChannelConfig(name="x", path_field=0, queue_id=0)
        with pytest.raises(ConfigurationError):
            NetworkInterface("ni", (None,) * 4, fmt, tx_channels=[cfg, cfg])

    def test_queue_id_overflow_rejected(self, fmt):
        with pytest.raises(ConfigurationError):
            NetworkInterface("ni", (None,) * 4, fmt, rx_queues=[
                RxQueueConfig(queue_id=fmt.max_queue + 1, channel="x")])

    def test_empty_row_rejected(self, fmt):
        with pytest.raises(ConfigurationError,
                           match="NI 'ni': empty slot table"):
            NetworkInterface("ni", (), fmt)

    def test_row_owner_without_tx_channel_rejected(self, fmt):
        """A slot whose owner has no TX channel would sit idle unseen."""
        cfg = TxChannelConfig(name="ch", path_field=0, queue_id=0)
        with pytest.raises(ConfigurationError,
                           match=r"NI 'ni': slot table names \['ghost'\] "
                                 "without a TX channel"):
            NetworkInterface("ni", ("ch", "ghost", None, "ghost"), fmt,
                             tx_channels=[cfg])
