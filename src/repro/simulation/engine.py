"""Discrete-event kernel for multi-clock-domain cycle-accurate simulation.

Components implement the :class:`Clocked` protocol and are registered on a
:class:`~repro.clocking.clock.ClockDomain`.  The kernel advances a global
integer-picosecond timeline; at every instant where one or more clocks have
a rising edge it runs **all** compute callbacks of the components on those
clocks, then **all** commit callbacks, then latches the output wires
registered on those clocks.

This two-phase discipline models edge-triggered hardware exactly: at a
given edge every flip-flop reads its D input as produced by the *previous*
cycle, regardless of Python iteration order.  When edges of different
domains coincide at the same picosecond, they are treated as simultaneous
(compute-all / commit-all), which corresponds to the zero-skew corner;
proper clock-domain-crossing components (the bi-synchronous FIFO) add the
synchronisation latency that real hardware needs in that corner.

Components may raise :class:`~repro.core.exceptions.SimulationError` from
either phase; the kernel annotates it with the simulated time and re-raises.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol, runtime_checkable

from repro.clocking.clock import ClockDomain
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.simulation.signals import WordWire

__all__ = ["Clocked", "Engine"]


@runtime_checkable
class Clocked(Protocol):
    """Protocol for edge-triggered components.

    ``compute(cycle, time_ps)`` must only *read* wires and internal state;
    ``commit(cycle, time_ps)`` latches state and drives output wires.
    ``cycle`` counts this component's own clock edges from 0.
    """

    def compute(self, cycle: int, time_ps: int) -> None:  # pragma: no cover
        ...

    def commit(self, cycle: int, time_ps: int) -> None:  # pragma: no cover
        ...


class _DomainGroup:
    """All components and wires driven by one clock domain."""

    __slots__ = ("clock", "components", "wires", "next_edge_index")

    def __init__(self, clock: ClockDomain):
        self.clock = clock
        self.components: list[Clocked] = []
        self.wires: list[WordWire] = []
        self.next_edge_index = 0


class Engine:
    """Multi-domain two-phase simulation kernel."""

    def __init__(self):
        self._groups: dict[str, _DomainGroup] = {}
        self._watchers: list[Callable[[int], None]] = []
        self.now_ps = 0

    # -- construction ---------------------------------------------------------

    def add_component(self, clock: ClockDomain, component: Clocked) -> None:
        """Register a component on a clock domain."""
        self._group(clock).components.append(component)

    def add_wire(self, clock: ClockDomain, wire: WordWire) -> None:
        """Register an output wire latched on ``clock``'s edges."""
        self._group(clock).wires.append(wire)

    def add_watcher(self, fn: Callable[[int], None]) -> None:
        """Add a callback invoked after every simulated instant.

        Watchers receive the time in ps; they are used for progress /
        deadlock detection and for global invariant checks.
        """
        self._watchers.append(fn)

    def _group(self, clock: ClockDomain) -> _DomainGroup:
        group = self._groups.get(clock.name)
        if group is None:
            group = _DomainGroup(clock)
            self._groups[clock.name] = group
        elif group.clock != clock:
            raise ConfigurationError(
                f"two different clocks registered under name {clock.name!r}")
        return group

    # -- execution --------------------------------------------------------------

    def run_until(self, t_end_ps: int) -> None:
        """Run all edges strictly before ``t_end_ps``."""
        if t_end_ps < self.now_ps:
            raise ConfigurationError(
                f"cannot run backwards: now={self.now_ps}, end={t_end_ps}")
        if not self._groups:
            self.now_ps = t_end_ps
            return
        if len(self._groups) == 1:
            # Synchronous designs share one clock domain (see
            # ``cyclesim``): every edge fires the whole design, so the
            # heap degenerates to a fixed-stride walk.  Edges are
            # strictly uniform (``phase + n * period``), which makes the
            # incremental ``t += period`` exact.
            (group,) = self._groups.values()
            period = group.clock.period_ps
            t = group.clock.edge_time(group.next_edge_index)
            while t < self.now_ps:
                group.next_edge_index += 1
                t += period
            only = [group]
            while t < t_end_ps:
                self.now_ps = t
                self._tick(only, t)
                group.next_edge_index += 1
                t += period
            self.now_ps = t_end_ps
            return
        # Min-heap of (edge_time, group_name); group names are unique.
        heap: list[tuple[int, str]] = []
        for name, group in sorted(self._groups.items()):
            t = group.clock.edge_time(group.next_edge_index)
            while t < self.now_ps:
                group.next_edge_index += 1
                t = group.clock.edge_time(group.next_edge_index)
            heapq.heappush(heap, (t, name))

        while heap and heap[0][0] < t_end_ps:
            now = heap[0][0]
            simultaneous: list[_DomainGroup] = []
            while heap and heap[0][0] == now:
                _, name = heapq.heappop(heap)
                simultaneous.append(self._groups[name])
            self.now_ps = now
            self._tick(simultaneous, now)
            for group in simultaneous:
                group.next_edge_index += 1
                heapq.heappush(
                    heap,
                    (group.clock.edge_time(group.next_edge_index),
                     group.clock.name))
        self.now_ps = t_end_ps

    def _tick(self, groups: list[_DomainGroup], now: int) -> None:
        try:
            for group in groups:
                cycle = group.next_edge_index
                for component in group.components:
                    component.compute(cycle, now)
            for group in groups:
                cycle = group.next_edge_index
                for component in group.components:
                    component.commit(cycle, now)
            for group in groups:
                for wire in group.wires:
                    wire.latch()
        except SimulationError as exc:
            raise SimulationError(f"t={now} ps: {exc}") from exc
        for watcher in self._watchers:
            watcher(now)

    # -- introspection -----------------------------------------------------------

    def __repr__(self) -> str:
        n_comp = sum(len(g.components) for g in self._groups.values())
        return (f"Engine({len(self._groups)} domains, {n_comp} components, "
                f"t={self.now_ps} ps)")
