"""One link-contention check, on the lifetime table the flit executors read.

``check_lifetime_contention`` reads the lifetime table a run replays: a
channel incarnation that holds table slot ``s`` over
``[start, stop)`` — clipped to the simulated window — and reaches a link
``k`` slots after injection occupies that link at the absolute slots of
``[start + k, stop + k)`` that are ``s + k`` modulo the table size.
Timeline validation checks reservations epoch by epoch, so a channel
started within one traversal of the stop that freed its link slot is
invisible to it; the flits still in flight are what this check adds.  A
brute-force walk that marks every reserved slot of every incarnation is
its oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connection import MB, ChannelSpec
from repro.core.exceptions import SimulationError
from repro.core.path import make_path
from repro.core.placement import ChannelAllocation
from repro.core.timeline import (ReconfigurationTimeline, TimelineEvent,
                                 replay_configuration)
from repro.core.words import WordFormat
from flit_oracle import oracle_run
from repro.simulation.backend import (FlitLevelBackend, SimRequest,
                                      check_lifetime_contention)
from repro.simulation.traffic import Saturating
from repro.topology.builders import mesh

TABLE_SIZE = 4
#: The compiled executor through the backend, and its per-flit oracle.
_EXECUTORS = (lambda config, request: FlitLevelBackend(config).run(request),
              oracle_run)
_EXECUTOR_IDS = ("compiled", "oracle")


def _channel(topology, name, src, dst, slots, table_size=TABLE_SIZE):
    """``name`` from NI ``src`` to NI ``dst`` of a line of routers."""
    step = 1 if dst > src else -1
    path = make_path(topology, topology.nis[src],
                     [topology.routers[index]
                      for index in range(src, dst + step, step)],
                     topology.nis[dst])
    return ChannelAllocation(
        ChannelSpec(name, f"ip{src}", f"ip{dst}", MB, application=name),
        path, tuple(sorted(slots)), table_size)


class TestInFlight:
    """``a`` crosses r0 -> r1 -> r2 in slot 0 and stops at slot 9; ``b``
    crosses r1 -> r2 in slot 1.  ``a``'s flit injected at slot 8 is on
    link r1 -> r2 at slot 10 (shift 2), exactly when ``b``'s first flit
    is (injected at 9, shift 1).  Both epochs are contention-free."""

    @pytest.fixture
    def setup(self):
        topology = mesh(3, 1, nis_per_router=1)
        a = _channel(topology, "a", 0, 2, {0})
        b = _channel(topology, "b", 1, 2, {1})
        assert [link.key for link in a.path.links][2] == ("r1_0", "r2_0")
        assert (a.path.link_shifts[2], b.path.link_shifts[1]) == (2, 1)
        return topology, a, b

    @staticmethod
    def _run(topology, a, b, b_start, run):
        """The checked run: the contention check on the timeline's
        lifetime table, then ``run`` on its replay."""
        timeline = ReconfigurationTimeline(
            topology, [TimelineEvent(0, "start", "a", (a,)),
                       TimelineEvent(9, "stop", "a"),
                       TimelineEvent(b_start, "start", "b", (b,))],
            horizon_slots=40, table_size=TABLE_SIZE, frequency_hz=500e6,
            fmt=WordFormat())
        check_lifetime_contention(timeline.channel_intervals(), 40,
                                  TABLE_SIZE)
        saturating = Saturating(2, 3)
        return run(replay_configuration(timeline), SimRequest(
            n_slots=40, traffic={"a": saturating, "b": saturating},
            timeline=timeline))

    def test_a_start_inside_the_traversal_raises(self, setup):
        def unreached(config, request):
            raise AssertionError("the check runs before any executor")
        with pytest.raises(SimulationError, match=(
                r"link \('r1_0', 'r2_0'\) carries two flits in absolute "
                r"slot 10: 'a' and 'b'")):
            self._run(*setup, 9, unreached)

    @pytest.mark.parametrize("run", _EXECUTORS, ids=_EXECUTOR_IDS)
    def test_a_start_after_the_drain_runs(self, setup, run):
        result = self._run(*setup, 10, run)
        assert result.meta["flits_by_channel"]["b"] > 0


def _walk(lifetimes, window, table_size):
    """The conflict a brute-force walk finds: every reserved slot before
    ``window`` of every incarnation marked at ``(link, absolute slot +
    shift)``."""
    marked = {}
    spans = [span for spans in lifetimes.values() for span in spans]
    for index, (start, stop, ca) in enumerate(spans):
        for slot in range(start, min(stop, window)):
            if slot % table_size in ca.slots:
                for link, shift in zip(ca.path.links, ca.path.link_shifts):
                    if marked.setdefault((link.key, slot + shift),
                                         index) != index:
                        return link.key, slot + shift
    return None


_TOPOLOGIES = {stages: mesh(3, 1, nis_per_router=1, pipeline_stages=stages)
               for stages in (0, 1)}


@st.composite
def _tables(draw):
    """A lifetime table of up to four channels, each a run of disjoint
    incarnations (a static table: one incarnation each over the whole
    horizon), and the window a run simulates of it."""
    topology = _TOPOLOGIES[draw(st.sampled_from(sorted(_TOPOLOGIES)))]
    table_size = draw(st.integers(2, 6))
    n_slots = draw(st.integers(1, 40))
    static = draw(st.booleans())
    lifetimes = {}
    for index in range(draw(st.integers(1, 4))):
        src, dst = draw(st.permutations(range(3)))[:2]
        cursor = 0
        for _ in range(1 if static else draw(st.integers(1, 3))):
            if cursor >= n_slots:
                break
            start = cursor if static else draw(
                st.integers(cursor, n_slots - 1))
            stop = n_slots if static else draw(
                st.integers(start + 1, n_slots))
            slots = draw(st.sets(st.integers(0, table_size - 1),
                                 min_size=1))
            lifetimes.setdefault(f"c{index}", []).append((
                start, stop, _channel(topology, f"c{index}", src, dst,
                                      slots, table_size)))
            cursor = stop
    return lifetimes, draw(st.integers(1, n_slots)), table_size


class TestPlanCheckAgainstTheWalk:
    @settings(max_examples=300, deadline=None)
    @given(case=_tables())
    def test_raises_iff_the_walk_finds_a_conflict(self, case):
        lifetimes, window, table_size = case
        if _walk(lifetimes, window, table_size) is None:
            check_lifetime_contention(lifetimes, window, table_size)
        else:
            with pytest.raises(SimulationError, match=r"carries two flits"):
                check_lifetime_contention(lifetimes, window, table_size)

    def test_a_restart_on_the_same_slots_is_clean(self):
        topology = _TOPOLOGIES[0]
        ca = _channel(topology, "c", 0, 2, {1, 3})
        lifetimes = {"c": ((0, 7, ca), (7, 20, ca), (20, 30, ca))}
        assert _walk(lifetimes, 30, TABLE_SIZE) is None
        check_lifetime_contention(lifetimes, 30, TABLE_SIZE)
