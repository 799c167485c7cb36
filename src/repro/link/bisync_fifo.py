"""Bi-synchronous FIFO model ([14], [18] in the paper).

The physical FIFO decouples a writer clock from a reader clock using Gray
pointers and brute-force synchronisers; the architectural contract the
paper relies on (Section V) is:

* a nominal rate of one word per cycle on both sides;
* a *forwarding delay* — the time between a write and the earliest read of
  that word — of one to two cycles;
* a fixed capacity (four words in aelite's link stage), chosen so the
  FIFO can never fill, which removes the full/accept handshake entirely.

The model captures exactly that contract on the picosecond timeline: a
word written at time ``t`` becomes readable at ``t + forward_delay_ps``;
writing into a full FIFO is a hard error (in aelite it would mean the
sizing argument of Section V is wrong, so the model treats it as an
invariant violation, not backpressure).
"""

from __future__ import annotations

from collections import deque

from repro.core.exceptions import ConfigurationError, SimulationError
from repro.simulation.signals import Phit

__all__ = ["BisyncFifo"]


class BisyncFifo:
    """Clock-domain-crossing word FIFO with forwarding delay."""

    __slots__ = ("name", "capacity", "forward_delay_ps", "_entries",
                 "max_occupancy", "total_writes")

    def __init__(self, name: str, capacity: int, forward_delay_ps: int):
        if capacity < 1:
            raise ConfigurationError(
                f"FIFO {name!r} capacity must be >= 1, got {capacity}")
        if forward_delay_ps < 0:
            raise ConfigurationError(
                f"FIFO {name!r} forwarding delay must be >= 0")
        self.name = name
        self.capacity = capacity
        self.forward_delay_ps = forward_delay_ps
        self._entries: deque[tuple[int, Phit]] = deque()
        self.max_occupancy = 0
        self.total_writes = 0

    # -- writer side ---------------------------------------------------------

    def write(self, phit: Phit, time_ps: int) -> None:
        """Push one word at writer time ``time_ps``.

        Raises :class:`SimulationError` on overflow: the aelite link stage
        sizes the FIFO so this can never happen, so an overflow here means
        a timing assumption (skew bound, rate) was violated.
        """
        if len(self._entries) >= self.capacity:
            raise SimulationError(
                f"bi-synchronous FIFO {self.name!r} overflow: capacity "
                f"{self.capacity} exceeded at t={time_ps} ps (skew or rate "
                "assumption violated)")
        self._entries.append((time_ps, phit))
        self.total_writes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._entries))

    # -- reader side ---------------------------------------------------------

    def readable(self, time_ps: int) -> int:
        """Words visible to the reader at ``time_ps``."""
        return sum(1 for wt, _ in self._entries
                   if wt + self.forward_delay_ps <= time_ps)

    def peek(self, time_ps: int) -> Phit | None:
        """Oldest readable word, without removing it."""
        if not self._entries:
            return None
        write_time, phit = self._entries[0]
        if write_time + self.forward_delay_ps <= time_ps:
            return phit
        return None

    def pop(self, time_ps: int) -> Phit:
        """Remove and return the oldest readable word.

        Raises :class:`SimulationError` when nothing is readable — the
        mesochronous FSM only pops after committing to a full flit, so an
        empty pop means flit words did not arrive back-to-back.
        """
        phit = self.peek(time_ps)
        if phit is None:
            raise SimulationError(
                f"bi-synchronous FIFO {self.name!r} underflow at "
                f"t={time_ps} ps: reader committed to a flit whose words "
                "are not available (flit words must arrive in consecutive "
                "cycles)")
        self._entries.popleft()
        return phit

    # -- introspection ---------------------------------------------------------

    def __repr__(self) -> str:
        return (f"BisyncFifo({self.name!r}, {len(self._entries)}/"
                f"{self.capacity} words)")
