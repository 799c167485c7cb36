"""The title claim on the word-level model: aelite stays flit-synchronous
under mesochronous links (Section V) and asynchronous wrappers (Section VI).

The allocator charges ``1 + pipeline_stages`` slots per hop
(:attr:`~repro.core.path.Path.link_shifts`).  Under the wrapper a hop
costs as many slots as its IPI holds primed tokens, so the wrapper primes
exactly that charge (one token more on the NI links, which every path
starts and ends on) and refuses a router-to-router link without a stage,
where the one matching token would halve the firing rate.  The property
below draws the whole space — topology family, per-link stages, table
size, region phases, drift and traffic mix — and asserts that every
accepted draw keeps the synchronous schedule.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.clocking.clock import ClockDomain, period_ps_from_hz
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import AllocationError, ConfigurationError
from repro.simulation.backend import CycleAccurateBackend, SimRequest
from repro.simulation.composability import compare_subsets
from repro.simulation.cyclesim import DetailedNetwork
from repro.simulation.traffic import (BernoulliMessages, ConstantBitRate,
                                      PeriodicBurst)
from repro.topology.builders import concentrated_mesh, mesh, ring
from repro.topology.graph import NodeKind
from repro.topology.mapping import Mapping
from repro.usecase.runner import burst_traffic, run_gs

CLOCKINGS = ("synchronous", "mesochronous", "asynchronous")
_FAMILIES = {
    "mesh": lambda n: mesh(n, 2, nis_per_router=1),
    "ring": lambda n: ring(n + 1, nis_per_router=1),
    "concentrated_mesh": lambda n: concentrated_mesh(n, 1, nis_per_router=2),
}


def _is_router_link(topology, link) -> bool:
    return (topology.kind(link.src) is NodeKind.ROUTER and
            topology.kind(link.dst) is NodeKind.ROUTER)


def primed_tokens(topology, link) -> int:
    """The allocator's ``1 + pipeline_stages``, plus one on a link to or
    from an NI."""
    return 1 + link.pipeline_stages + (not _is_router_link(topology, link))


def assert_links_in_step(network, result):
    """Each link's sink has fired at most the link's primed tokens more
    often than its source.

    A firing of the sink consumes one token of the link, and the link has
    only ever held its primed tokens plus one token per firing of its
    source.  Every link has a reverse twin, so the bound holds across
    each link both ways.  (Measured at the horizon on cmesh 2x2 and mesh
    3x2 with 1-3 stages and up to 5000 ppm, the gap never exceeded the
    primed tokens minus one.)
    """
    topology = network.config.topology
    firings = result.wrapper_firings
    for link in topology.links:
        assert firings[link.dst] - firings[link.src] <= \
            primed_tokens(topology, link), link


def _cbr(config):
    return {name: ConstantBitRate.from_rate(
        ca.spec.throughput_bytes_per_s, config.frequency_hz, config.fmt)
        for name, ca in config.allocation.channels.items()}


def _ids(result, name):
    return [d.message_id for d in result.stats.channel(name).deliveries]


# -- the 2x1 counter-example, pinned both ways ------------------------------

def _two_by_one(stages):
    """``ca`` (one router) and ``cb`` (two routers) merge on the link into
    ``d``'s NI; at 0 stages ``cb``'s slot 11 plus a two-token hop landed
    on ``ca``'s slot 13 under the fixed two-token priming."""
    topology = mesh(2, 1, nis_per_router=2, pipeline_stages=stages)
    channels = (ChannelSpec("ca", "a", "d", 200 * MB, application="x"),
                ChannelSpec("cb", "b", "d", 120 * MB, application="x"))
    mapping = Mapping({"a": "ni0_0_0", "d": "ni0_0_1", "b": "ni1_0_0"})
    return configure(topology, UseCase("2x1", (Application("x", channels),)),
                     table_size=32, frequency_hz=500e6, mapping=mapping)


class TestTwoByOne:
    def test_refused_without_stages(self):
        config = _two_by_one(0)
        assert config.allocation.channel("cb").slots == (0, 11, 21)
        with pytest.raises(ConfigurationError,
                           match=r"link \('r0_0', 'r1_0'\) joins two "
                                 "routers without a pipeline stage"):
            DetailedNetwork(config, clocking="asynchronous",
                            traffic=_cbr(config))

    @pytest.mark.parametrize("ppm", [0.0, 200.0])
    def test_clean_with_one_stage(self, ppm):
        config = _two_by_one(1)
        assert config.allocation.channel("ca").slots == (0, 6, 13, 19, 26)
        assert config.allocation.channel("cb").slots == (0, 10, 21)
        traffic = _cbr(config)
        sync = DetailedNetwork(config, traffic=traffic,
                               horizon_slots=200).run()
        wrapped = DetailedNetwork(config, clocking="asynchronous",
                                  traffic=traffic, horizon_slots=200,
                                  plesiochronous_ppm=ppm).run()
        assert [len(_ids(sync, n)) for n in ("ca", "cb")] == [30, 18]
        assert [len(_ids(wrapped, n)) for n in ("ca", "cb")] == [29, 18]
        for name in ("ca", "cb"):
            ids = _ids(wrapped, name)
            assert ids == _ids(sync, name)[:len(ids)]


def test_each_link_is_primed_with_its_hop_cost():
    """``1 + pipeline_stages`` tokens on a router-to-router link, one more
    on an NI link; each IPI has one place beyond its tokens."""
    topology = mesh(2, 1, nis_per_router=1, pipeline_stages=2)
    topology.set_pipeline_stages("ni0_0_0", "r0_0", 1)
    channel = ChannelSpec("c", "ni0_0_0", "ni1_0_0", 40 * MB,
                          application="a")
    config = configure(topology, UseCase("u", (Application("a", (channel,)),)),
                       table_size=8, frequency_hz=500e6,
                       mapping=Mapping({ni: ni for ni in topology.nis}))
    network = DetailedNetwork(config, clocking="asynchronous")
    ipis = {link.key: network.wrappers[link.dst].ipis[link.dst_port]
            for link in topology.links}
    assert {key: len(ipi) for key, ipi in ipis.items()} == {
        ("r0_0", "r1_0"): 3, ("r1_0", "r0_0"): 3,
        ("ni0_0_0", "r0_0"): 3, ("r0_0", "ni0_0_0"): 2,
        ("ni1_0_0", "r1_0"): 2, ("r1_0", "ni1_0_0"): 2}
    assert all(ipi.capacity == len(ipi) + 1 for ipi in ipis.values())
    assert {opi.capacity for wrapper in network.wrappers.values()
            for opi in wrapper.opis} == {2}


# -- the property ---------------------------------------------------------

@st.composite
def _cases(draw):
    topology = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))](
        draw(st.integers(2, 3)))
    for link in topology.links:
        staged = _is_router_link(topology, link)
        topology.set_pipeline_stages(
            link.src, link.dst, draw(st.integers(1, 3) if staged
                                     else st.integers(0, 2)))
    router_links = sorted(link.key for link in topology.links
                          if _is_router_link(topology, link))
    unstaged = draw(st.none() | st.sampled_from(router_links))
    if unstaged is not None:
        topology.set_pipeline_stages(*unstaged, 0)
    nis = sorted(topology.nis)
    channels = []
    for index in range(draw(st.integers(2, 4))):
        src, dst = draw(st.lists(st.sampled_from(nis), min_size=2,
                                 max_size=2, unique=True))
        channels.append(ChannelSpec(
            f"c{index}", src, dst, draw(st.sampled_from((40, 80, 120))) * MB,
            application="app"))
    try:
        config = configure(
            topology, UseCase("drawn", (Application("app", tuple(channels)),)),
            table_size=draw(st.sampled_from((8, 16, 32))),
            frequency_hz=500e6, mapping=Mapping({ni: ni for ni in nis}))
    except AllocationError:
        assume(False)
    traffic = {}
    for index, (name, ca) in enumerate(sorted(
            config.allocation.channels.items())):
        kind = draw(st.sampled_from(("cbr", "burst", "bernoulli")))
        if kind == "cbr":
            traffic[name] = ConstantBitRate.from_rate(
                ca.spec.throughput_bytes_per_s, config.frequency_hz,
                config.fmt, offset_cycles=draw(st.integers(0, 8)))
        elif kind == "burst":
            traffic[name] = PeriodicBurst(
                draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                draw(st.integers(24, 96)), offset_cycles=index)
        else:
            traffic[name] = BernoulliMessages(
                draw(st.sampled_from((0.1, 0.3))), draw(st.integers(1, 4)),
                config.fmt.flit_size, seed=index)
    period = period_ps_from_hz(config.frequency_hz)
    # One clock region per router, its NIs in it; the paper bounds the
    # skew between neighbouring regions by half a cycle.
    region = {router: ClockDomain(f"clk_{router}", period, draw(
        st.integers(0, period // 2))) for router in sorted(topology.routers)}
    domains = {**region, **{ni: region[topology.attached_router(ni)]
                            for ni in nis}}
    ppm = draw(st.sampled_from((0.0, 200.0, 2000.0)))
    return config, traffic, domains, ppm, unstaged


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_asynchronous_and_mesochronous_keep_the_schedule(case):
    """Every accepted draw keeps the synchronous schedule; a draw with an
    unstaged router-to-router link is refused at construction."""
    config, traffic, domains, ppm, unstaged = case
    if unstaged is not None:
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"link {unstaged} joins")):
            DetailedNetwork(config, clocking="asynchronous", traffic=traffic)
        return
    n_slots = 96
    request = SimRequest(n_slots=n_slots, traffic=traffic)
    sync = CycleAccurateBackend(config).run(request)
    # Raises on contention, IPI overflow or a DeadlockWatchdog firing.
    wrapped = CycleAccurateBackend(config, clocking="asynchronous",
                                   plesiochronous_ppm=ppm).run(request)
    meso = DetailedNetwork(config, clocking="mesochronous", domains=domains,
                           traffic=traffic, horizon_slots=n_slots).run()
    cycle_ns = 1e9 / config.frequency_hz
    for name in config.allocation.channels:
        # Either run may be a message ahead at the horizon: the NI links'
        # extra tokens delay the wrapped deliveries, and under drift the
        # sources' traffic lands in other logical slots.  Measured over
        # 300 draws the wrapped run was at most one message behind; a
        # wrapper that lost throughput falls further behind.
        ids, sync_ids = _ids(wrapped, name), _ids(sync, name)
        common = min(len(ids), len(sync_ids))
        assert ids[:common] == sync_ids[:common]
        assert len(ids) >= len(sync_ids) - 2
        reference = {d.message_id: d.latency_ns
                     for d in sync.stats.channel(name).deliveries}
        for delivery in meso.stats.channel(name).deliveries:
            if delivery.message_id in reference:
                assert abs(delivery.latency_ns -
                           reference[delivery.message_id]) <= cycle_ns
    assert all(words <= 4 for words in meso.fifo_max_occupancy.values())


# -- bounds and composability on the word-level model ---------------------

@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_run_gs_bounds_on_the_word_level_model(mesh_config, clocking):
    """``run_gs`` through the cycle backend on the stages-1 mesh.

    Synchronous and mesochronous runs hold ``channel_bounds`` on the
    wall clock, mesochronous up to the half-cycle phase skew between
    the two NIs' regions.  The wrapper holds the schedule in *logical*
    time: each message's network latency, counted in the NIs' firing
    cycles, is the synchronous one plus one constant for every channel
    and every drift (the NI links' extra token).  Its wall-clock
    latency also carries the firing lag between the two NIs, so the
    synchronous ns bound is not asserted there.
    """
    backend = CycleAccurateBackend(mesh_config, clocking=clocking)
    outcome = run_gs(mesh_config, n_slots=300, backend=backend)
    assert outcome.n_measured == outcome.n_connections == 3
    bounds = mesh_config.bounds()
    if clocking != "asynchronous":
        skew_ns = 0.5e9 / mesh_config.frequency_hz \
            if clocking == "mesochronous" else 0.0
        for name, worst in outcome.worst_latency_ns.items():
            assert worst <= bounds[name].latency_ns + skew_ns + 1e-9
        return
    request = SimRequest(n_slots=300, traffic=burst_traffic(mesh_config))
    reference = _network_cycles(CycleAccurateBackend(mesh_config).run(request))
    for ppm in (0.0, 2000.0):
        wrapped = _network_cycles(CycleAccurateBackend(
            mesh_config, clocking="asynchronous",
            plesiochronous_ppm=ppm).run(request))
        offsets = {wrapped[key] - reference[key]
                   for key in wrapped.keys() & reference.keys()}
        assert offsets == {2 * mesh_config.fmt.flit_size + 2}


def _network_cycles(result):
    """``{(channel, message id): first injected word to last delivered
    word}`` in the two NIs' own cycle counts (logical under the
    wrapper)."""
    out = {}
    for name in result.stats.channels:
        stats = result.stats.channel(name)
        injected = {i.message_id: i.cycle for i in stats.injections}
        for d in stats.deliveries:
            out[name, d.message_id] = d.delivered_cycle - \
                injected[d.message_id]
    return out


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_survivors_bit_identical_on_the_word_level_model(mesh_config,
                                                         clocking):
    """Each application alone against both together, on the cycle
    backend: the survivors' traces are bit-identical under every
    clocking (the isolation claim on the word-level model)."""
    reports = compare_subsets(
        mesh_config, burst_traffic(mesh_config),
        {"appX_alone": {"c0", "c1"}, "appY_alone": {"c2"}}, 300,
        backend_factory=lambda config: CycleAccurateBackend(
            config, clocking=clocking))
    assert [(r.scenario, r.identical, r.diverged) for r in reports] == [
        ("appX_alone", ("c0", "c1"), ()), ("appY_alone", ("c2",), ())]
