"""Tests for the asynchronous wrapper: firing, tokens, deadlock freedom."""

from __future__ import annotations

import pytest

from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.flits import Flit, FlitKind
from repro.core.words import WordFormat
from repro.simulation import DetailedNetwork
from repro.simulation.traffic import ConstantBitRate
from repro.topology.builders import mesh
from repro.topology.mapping import Mapping
from repro.wrapper.controller import PortInterfaceController
from repro.wrapper.port_interface import (InputPortInterface,
                                          OutputPortInterface, TokenChannel)
from test_flit_synchronous import assert_links_in_step


class TestPortInterfaces:
    def test_ipi_fifo_order(self, fmt):
        ipi = InputPortInterface("ipi", 3)
        a, b = Flit.empty(fmt), Flit.empty(fmt)
        ipi.push(a)
        ipi.push(b)
        assert ipi.pop() is a
        assert ipi.pop() is b

    def test_ipi_overflow_raises(self, fmt):
        ipi = InputPortInterface("ipi", 1)
        ipi.push(Flit.empty(fmt))
        with pytest.raises(SimulationError):
            ipi.push(Flit.empty(fmt))

    def test_ipi_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            InputPortInterface("ipi", 1).pop()

    def test_opi_early_reservation(self, fmt):
        opi = OutputPortInterface("opi", 2)
        assert opi.fireable
        opi.reserve()
        opi.reserve()
        assert not opi.fireable
        opi.deliver(Flit.empty(fmt))
        opi.send()
        assert opi.fireable  # space freed when the token left

    def test_opi_reserve_without_space_raises(self):
        opi = OutputPortInterface("opi", 1)
        opi.reserve()
        with pytest.raises(SimulationError):
            opi.reserve()

    def test_token_channel_respects_sink_capacity(self, fmt):
        opi = OutputPortInterface("opi", 4)
        ipi = InputPortInterface("ipi", 2)
        channel = TokenChannel("ch", opi, ipi, latency_ps=0)
        for _ in range(4):
            opi.reserve()
            opi.deliver(Flit.empty(fmt))
        channel.service(0)
        # Only 2 can be owned by the receiving side at once; the other
        # two wait in the OPI, their space still taken.
        assert len(ipi) == 2
        assert opi.has_token and opi.unreserved_space == 2
        ipi.pop()
        channel.service(1)
        assert len(ipi) == 2

    def test_token_channel_latency(self, fmt):
        opi = OutputPortInterface("opi", 2)
        ipi = InputPortInterface("ipi", 2)
        channel = TokenChannel("ch", opi, ipi, latency_ps=100)
        opi.reserve()
        opi.deliver(Flit.empty(fmt))
        channel.service(0)
        # The token left the OPI and has not reached the IPI: in flight.
        assert not opi.has_token and opi.unreserved_space == 2
        assert len(ipi) == 0 and channel.tokens_transferred == 0
        channel.service(99)
        assert len(ipi) == 0
        channel.service(100)
        assert len(ipi) == 1


class TestPIC:
    def test_fires_only_when_all_ready(self, fmt):
        ipis = [InputPortInterface(f"i{k}", 2) for k in range(2)]
        opis = [OutputPortInterface(f"o{k}", 2) for k in range(2)]
        pic = PortInterfaceController("pic", ipis, opis)
        assert not pic.can_fire
        ipis[0].push(Flit.empty(fmt))
        assert not pic.can_fire
        ipis[1].push(Flit.empty(fmt))
        assert pic.can_fire
        tokens = pic.fire()
        assert len(tokens) == 2
        assert pic.firings == 1

    def test_fire_not_ready_raises(self, fmt):
        pic = PortInterfaceController(
            "pic", [InputPortInterface("i", 2)],
            [OutputPortInterface("o", 2)])
        with pytest.raises(SimulationError):
            pic.fire()

    def test_blocking_ports_diagnostic(self, fmt):
        ipi = InputPortInterface("i0", 2)
        opi = OutputPortInterface("o0", 1)
        pic = PortInterfaceController("pic", [ipi], [opi])
        opi.reserve()
        assert set(pic.blocking_ports()) == {"i0", "o0"}


class TestWrappedNetwork:
    """End-to-end behaviour of a fully wrapped network."""

    def _run(self, config, ppm, horizon_slots=300, seed=1):
        traffic = {
            name: ConstantBitRate.from_rate(
                ca.spec.throughput_bytes_per_s, config.frequency_hz,
                config.fmt)
            for name, ca in config.allocation.channels.items()}
        net = DetailedNetwork(config, clocking="asynchronous",
                              traffic=traffic, horizon_slots=horizon_slots,
                              plesiochronous_ppm=ppm,
                              mesochronous_seed=seed)
        return net, net.run()

    def test_equal_clocks_fire_every_window(self, mesh_config):
        net, result = self._run(mesh_config, ppm=0.0)
        firings = set(result.wrapper_firings.values())
        slots = result.simulated_cycles // mesh_config.fmt.flit_size
        assert min(firings) >= slots - 2  # all elements keep pace

    def test_plesiochronous_runs_at_slowest_clock(self, mesh_config):
        net, result = self._run(mesh_config, ppm=5000.0)
        slowest = max(c.period_ps for c in net.domains.values())
        horizon_ps = result.simulated_cycles * slowest
        max_windows = horizon_ps // (slowest * mesh_config.fmt.flit_size)
        for firings in result.wrapper_firings.values():
            assert firings <= max_windows + 2
        # Neighbours advance in lock-step (flit synchronicity).
        assert_links_in_step(net, result)

    def test_all_messages_delivered_in_order(self, mesh_config):
        net, result = self._run(mesh_config, ppm=2000.0)
        for name in mesh_config.allocation.channels:
            deliveries = result.stats.channel(name).deliveries
            assert deliveries, f"channel {name} delivered nothing"
            ids = [d.message_id for d in deliveries]
            assert ids == sorted(ids)

    def test_logical_schedule_matches_synchronous(self, mesh_config):
        """Wrapped and synchronous runs deliver the same flit sequences.

        Wall-clock timing differs (token pipelining), but per channel the
        sequence of (message id, delivery order) must be identical — the
        wrapper preserves the TDM schedule in logical time.
        """
        traffic = {
            name: ConstantBitRate.from_rate(
                ca.spec.throughput_bytes_per_s, mesh_config.frequency_hz,
                mesh_config.fmt)
            for name, ca in mesh_config.allocation.channels.items()}
        sync = DetailedNetwork(mesh_config, clocking="synchronous",
                               traffic=traffic, horizon_slots=300).run()
        net, wrapped = self._run(mesh_config, ppm=0.0)
        for name in mesh_config.allocation.channels:
            sync_ids = [d.message_id
                        for d in sync.stats.channel(name).deliveries]
            wrapped_ids = [d.message_id
                           for d in wrapped.stats.channel(name).deliveries]
            # The wrapped run may lag by a few messages at the horizon.
            n = min(len(sync_ids), len(wrapped_ids))
            assert n > 0
            assert sync_ids[:n] == wrapped_ids[:n]

    def test_unstaged_router_link_refused(self):
        """The priming follows the link; a router-to-router link without
        a stage has no token count that matches the allocator's one-slot
        charge at full rate, so asynchronous clocking refuses it."""
        topology = mesh(2, 1, nis_per_router=1, pipeline_stages=1)
        topology.set_pipeline_stages("r1_0", "r0_0", 0)
        channel = ChannelSpec("c", "ipA", "ipB", 40 * MB, application="a")
        config = configure(topology,
                           UseCase("u", (Application("a", (channel,)),)),
                           table_size=8, frequency_hz=500e6,
                           mapping=Mapping({"ipA": "ni0_0_0",
                                            "ipB": "ni1_0_0"}))
        with pytest.raises(ConfigurationError,
                           match=r"link \('r1_0', 'r0_0'\) joins two routers"):
            DetailedNetwork(config, clocking="asynchronous")
