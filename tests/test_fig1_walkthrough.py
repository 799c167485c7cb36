"""The paper's Figure 1 scenario, reproduced exactly.

Two connections through a two-router network with a 4-slot table:
cA reserves slots {0, 2}, cB reserves slot {1}.  For every hop the
reservation shifts one slot, so on the shared link cA occupies slots
{1, 3} and cB slot {2} — never colliding, which both the allocator's
validation and a contention-checked simulation confirm.
"""

from __future__ import annotations

import pytest

from repro.core.allocation import Allocation
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.core.path import make_path
from repro.core.placement import ChannelAllocation
from repro.core.slot_table import shifted
from repro.core.timeline import static_lifetimes
from repro.simulation.backend import (FlitLevelBackend, SimRequest,
                                      check_lifetime_contention)
from repro.simulation.traffic import Saturating
from repro.topology.builders import custom
from repro.topology.mapping import Mapping


@pytest.fixture
def figure1():
    topo = custom(
        router_edges=[("rl", "rr"), ("rr", "rl")],
        nis=[("ni_a", "rl"), ("ni_b", "rr"), ("ni_c", "rl")])
    spec_a = ChannelSpec("cA", "ipA", "ipB", 100 * MB,
                         application="fig1")
    spec_b = ChannelSpec("cB", "ipC", "ipB", 50 * MB, application="fig1")
    mapping = Mapping({"ipA": "ni_a", "ipB": "ni_b", "ipC": "ni_c"})
    # Hand-build the exact reservation of the figure.
    allocation = Allocation(topo, table_size=4, frequency_hz=500e6,
                            fmt=__import__("repro.core.words",
                                           fromlist=["WordFormat"]
                                           ).WordFormat())
    path_a = make_path(topo, "ni_a", ["rl", "rr"], "ni_b")
    path_b = make_path(topo, "ni_c", ["rl", "rr"], "ni_b")
    allocation.commit(ChannelAllocation(spec=spec_a, path=path_a,
                                        slots=(0, 2), table_size=4))
    allocation.commit(ChannelAllocation(spec=spec_b, path=path_b,
                                        slots=(1,), table_size=4))
    return topo, spec_a, spec_b, mapping, allocation


class TestFigure1:
    def test_shifted_reservations_match_figure(self, figure1):
        """The figure's tables: cA {0,2} -> {1,3} -> {2,0}; cB {1} -> {2} -> {3}."""
        _, _, _, _, allocation = figure1
        assert allocation.channel("cA").link_occupancy == (
            (("ni_a", "rl"), 0b0101), (("rl", "rr"), 0b1010),
            (("rr", "ni_b"), 0b0101))
        assert allocation.channel("cB").link_occupancy == (
            (("ni_c", "rl"), 0b0010), (("rl", "rr"), 0b0100),
            (("rr", "ni_b"), 0b1000))

    def test_no_contention_on_shared_links(self, figure1):
        _, _, _, _, allocation = figure1
        allocation.validate()  # raises on any overlap

    def test_shared_link_union_is_disjoint(self, figure1):
        _, _, _, _, allocation = figure1
        shared = ("rl", "rr")
        assert allocation.link_masks[shared] == 0b1110
        assert [allocation.holder_of(allocation.channels.values(), shared,
                                     1 << slot) for slot in range(4)] == \
            [(0, None), (1, "cA"), (2, "cB"), (3, "cA")]

    def test_simulation_confirms_figure(self, figure1):
        topo, spec_a, spec_b, mapping, allocation = figure1
        use_case = UseCase("fig1", (Application("fig1",
                                                (spec_a, spec_b)),))
        from repro.core.configuration import NocConfiguration
        config = NocConfiguration(use_case=use_case, mapping=mapping,
                                  allocation=allocation)
        check_lifetime_contention(static_lifetimes(allocation, 40), 40,
                                  config.table_size)
        result = FlitLevelBackend(config).run(
            SimRequest(n_slots=40, traffic={"cA": Saturating(2, 3),
                                            "cB": Saturating(2, 3)}))
        # cA gets half the slots, cB a quarter.
        assert len(result.stats.channel("cA").deliveries) == 20
        assert len(result.stats.channel("cB").deliveries) == 10

    def test_allocator_reproduces_equivalent_schedule(self, figure1):
        """The automatic flow finds a contention-free 4-slot schedule.

        With cA requesting half the link capacity and cB a quarter, the
        allocator must find the figure's 2-plus-1 slot split.
        """
        topo, _, _, mapping, _ = figure1
        spec_a = ChannelSpec("cA", "ipA", "ipB", 400 * MB,
                             application="fig1")
        spec_b = ChannelSpec("cB", "ipC", "ipB", 200 * MB,
                             application="fig1")
        use_case = UseCase("fig1", (Application("fig1",
                                                (spec_a, spec_b)),))
        config = configure(topo, use_case, table_size=4,
                           frequency_hz=500e6, mapping=mapping)
        config.allocation.validate()
        assert config.allocation.channel("cA").n_slots == 2
        assert config.allocation.channel("cB").n_slots == 1
