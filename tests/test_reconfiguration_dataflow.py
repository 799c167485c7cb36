"""Tests for live reconfiguration and the latency-rate dataflow model."""

from __future__ import annotations

import pytest

from repro.core.allocation import SlotAllocator
from repro.core.application import Application
from repro.core.connection import MB, ChannelSpec
from repro.core.dataflow import (analyse_dataflow, backlog_bound_bytes,
                                 busy_period_latency_ns, latency_rate_of)
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.core.reconfiguration import ReconfigurationManager
from repro.core.words import WordFormat
from repro.topology.builders import mesh
from repro.topology.mapping import round_robin


def _app(name, pairs, rate=40 * MB):
    return Application(name, tuple(
        ChannelSpec(f"{name}_c{i}", src, dst, rate, application=name)
        for i, (src, dst) in enumerate(pairs)))


@pytest.fixture
def manager():
    topo = mesh(2, 2, nis_per_router=1)
    ips = [f"ip{i}" for i in range(8)]
    mapping = round_robin(ips, topo)
    allocator = SlotAllocator(topo, table_size=16, frequency_hz=500e6)
    return ReconfigurationManager(allocator, mapping)


class TestReconfiguration:
    def test_start_stop_cycle(self, manager):
        app_a = _app("A", [("ip0", "ip1"), ("ip2", "ip3")])
        report = manager.start_application(app_a)
        assert report.action == "start"
        assert report.untouched  # nothing else was running
        assert manager.is_running("A")
        stop = manager.stop_application("A")
        assert stop.channels_changed == ("A_c0", "A_c1")
        assert not manager.is_running("A")

    def test_running_apps_untouched_by_start(self, manager):
        app_a = _app("A", [("ip0", "ip1"), ("ip2", "ip3")])
        app_b = _app("B", [("ip4", "ip5"), ("ip6", "ip7")])
        manager.start_application(app_a)
        slots_before = {
            name: ca.slots
            for name, ca in manager.allocation.channels.items()}
        report = manager.start_application(app_b)
        assert report.untouched
        for name, slots in slots_before.items():
            assert manager.allocation.channel(name).slots == slots

    def test_running_apps_untouched_by_stop(self, manager):
        app_a = _app("A", [("ip0", "ip1")])
        app_b = _app("B", [("ip4", "ip5")])
        manager.start_application(app_a)
        manager.start_application(app_b)
        report = manager.stop_application("A")
        assert report.untouched
        assert manager.running_applications == ("B",)

    def test_switch(self, manager):
        manager.start_application(_app("A", [("ip0", "ip1")]))
        manager.start_application(_app("B", [("ip2", "ip3")]))
        stop_r, start_r = manager.switch(
            "A", _app("C", [("ip4", "ip5")]))
        assert stop_r.untouched and start_r.untouched
        assert set(manager.running_applications) == {"B", "C"}

    def test_double_start_rejected(self, manager):
        manager.start_application(_app("A", [("ip0", "ip1")]))
        with pytest.raises(ConfigurationError):
            manager.start_application(_app("A", [("ip2", "ip3")]))

    def test_stop_unknown_rejected(self, manager):
        with pytest.raises(ConfigurationError):
            manager.stop_application("ghost")

    def test_failed_admission_leaves_no_trace(self, manager):
        # Saturate the network, then try to admit an impossible app.
        manager.start_application(
            _app("big", [("ip0", "ip1")], rate=800 * MB))
        snapshot = {
            name: ca.slots
            for name, ca in manager.allocation.channels.items()}
        with pytest.raises(AllocationError):
            manager.start_application(
                _app("huge", [("ip0", "ip1")], rate=800 * MB))
        assert not manager.is_running("huge")
        for name, slots in snapshot.items():
            assert manager.allocation.channel(name).slots == slots
        manager.allocation.validate()

    def test_history_records_everything(self, manager):
        manager.start_application(_app("A", [("ip0", "ip1")]))
        manager.stop_application("A")
        assert [r.action for r in manager.history] == ["start", "stop"]

    def test_slots_reusable_after_stop(self, manager):
        """Stopping frees capacity new applications can claim."""
        big = _app("big", [("ip0", "ip1")], rate=800 * MB)
        manager.start_application(big)
        with pytest.raises(AllocationError):
            manager.start_application(
                _app("second", [("ip0", "ip1")], rate=800 * MB))
        manager.stop_application("big")
        manager.start_application(
            _app("second", [("ip0", "ip1")], rate=800 * MB))
        assert manager.is_running("second")


class TestReconfigurationInterleavings:
    """Property tests: long randomized start/stop interleavings.

    Whatever order applications come and go in, three invariants must
    hold throughout: reservations of distinct applications are disjoint
    (``Allocation.validate``), every transition leaves the surviving
    applications' reservations bit-identical (``untouched``), and
    stopping an application recovers exactly its slots.
    """

    N_STEPS = 120

    def _pool(self, rng):
        """A pool of candidate applications over a 3x3 mesh's 9 IPs."""
        from repro.topology.builders import mesh
        from repro.topology.mapping import round_robin

        topo = mesh(3, 3, nis_per_router=1)
        ips = [f"ip{i}" for i in range(9)]
        mapping = round_robin(ips, topo)
        allocator = SlotAllocator(topo, table_size=16, frequency_hz=500e6)
        apps = []
        for k in range(10):
            n_channels = rng.randint(1, 3)
            pairs = []
            for _ in range(n_channels):
                src, dst = rng.sample(ips, 2)
                pairs.append((src, dst))
            apps.append(_app(f"P{k}", pairs,
                             rate=rng.choice([10, 25, 40, 60]) * MB))
        return ReconfigurationManager(allocator, mapping), apps

    @pytest.mark.parametrize("seed", [1, 7, 2009])
    def test_long_interleaving_preserves_isolation(self, seed):
        import random
        rng = random.Random(seed)
        manager, apps = self._pool(rng)
        by_name = {a.name: a for a in apps}
        link_count = len(manager.allocation.link_masks)

        def total_reserved():
            return sum(mask.bit_count()
                       for mask in manager.allocation.link_masks.values())

        expected_slots: dict[str, int] = {}  # app -> slots it holds
        for step in range(self.N_STEPS):
            running = list(manager.running_applications)
            stoppable = [n for n in running]
            startable = [a.name for a in apps if a.name not in running]
            if startable and (not stoppable or rng.random() < 0.55):
                name = rng.choice(startable)
                before_total = total_reserved()
                try:
                    report = manager.start_application(by_name[name])
                except AllocationError:
                    # Full network: a failed start must leave no trace.
                    assert total_reserved() == before_total
                    manager.allocation.validate()
                    continue
                assert report.untouched, (
                    f"start of {name!r} disturbed a running application "
                    f"at step {step}")
                expected_slots[name] = total_reserved() - before_total
                assert expected_slots[name] > 0
            else:
                name = rng.choice(stoppable)
                before_total = total_reserved()
                report = manager.stop_application(name)
                assert report.untouched, (
                    f"stop of {name!r} disturbed a running application "
                    f"at step {step}")
                # Full slot recovery: exactly the slots the application
                # acquired at start are freed by its stop.
                freed = before_total - total_reserved()
                assert freed == expected_slots.pop(name)
            # Disjointness / bookkeeping: contention-free throughout.
            manager.allocation.validate()
            assert len(manager.allocation.link_masks) == link_count

        for name in list(manager.running_applications):
            manager.stop_application(name)
            manager.allocation.validate()
        assert total_reserved() == 0, "stopping everything must empty " \
            "every link table"
        assert all(r.untouched for r in manager.history)


class TestDataflow:
    def _server(self, slots=(0, 8), table=16):
        from repro.core.path import make_path
        from repro.topology.builders import mesh
        from repro.core.placement import ChannelAllocation
        topo = mesh(1, 1, nis_per_router=2)
        path = make_path(topo, "ni0_0_0", ["r0_0"], "ni0_0_1")
        ca = ChannelAllocation(
            spec=ChannelSpec("c", "a", "b", 50 * MB),
            path=path, slots=slots, table_size=table)
        return latency_rate_of(ca, 500e6, WordFormat())

    def test_theta_matches_analysis_bound(self):
        server = self._server()
        # gap 8 + traversal 2 = 10 slots = 30 cycles = 60 ns.
        assert server.theta_ns == pytest.approx(60.0)

    def test_rho_matches_guaranteed_rate(self):
        server = self._server()
        assert server.rho_bytes_per_s == pytest.approx(2 * 8 / 96e-9)

    def test_service_curve_zero_before_theta(self):
        server = self._server()
        assert server.service_curve(59.9) == 0.0
        assert server.service_curve(60.0 + 96.0) == pytest.approx(16.0)

    def test_busy_period_latency(self):
        server = self._server()
        # A 3-message burst of 8 B messages: last completes within
        # theta + 24 B / rho.
        bound = busy_period_latency_ns(server, burst_bytes=24,
                                       message_bytes=8)
        assert bound == pytest.approx(60.0 + 24 / (16 / 96e-9) * 1e9)

    def test_backlog_bound(self):
        server = self._server()
        backlog = backlog_bound_bytes(
            server, arrival_rate_bytes_per_s=100e6, burst_bytes=32)
        assert backlog == pytest.approx(32 + 100e6 * 60e-9)

    def test_over_rate_arrivals_rejected(self):
        server = self._server()
        with pytest.raises(ConfigurationError):
            backlog_bound_bytes(server,
                                arrival_rate_bytes_per_s=1e9,
                                burst_bytes=8)

    def test_simulation_respects_busy_period_bound(self, mesh_config):
        """Measured burst latencies never exceed the latency-rate bound."""
        from repro.simulation.backend import FlitLevelBackend, SimRequest
        from repro.simulation.traffic import PeriodicBurst
        fmt = mesh_config.fmt
        servers = analyse_dataflow(mesh_config.allocation)
        burst_messages = 4
        result = FlitLevelBackend(mesh_config).run(SimRequest(
            n_slots=3000, traffic={
                name: PeriodicBurst(burst_messages,
                                    fmt.payload_words_per_flit, 400)
                for name in mesh_config.allocation.channels}))
        for name, server in servers.items():
            deliveries = result.stats.channel(name).deliveries
            assert deliveries
            bound = busy_period_latency_ns(
                server,
                burst_bytes=burst_messages * fmt.payload_bytes_per_flit,
                message_bytes=fmt.payload_bytes_per_flit)
            for record in deliveries:
                assert record.latency_ns <= bound + 1e-6
