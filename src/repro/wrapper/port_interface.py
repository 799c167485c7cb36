"""Port interfaces of the asynchronous wrapper (Section VI).

Each router/NI port is managed by a Port Interface:

* an **Input Port Interface (IPI)** holds arriving tokens (flits — data or
  empty) and signals the controller when at least one whole flit is
  present;
* an **Output Port Interface (OPI)** holds produced tokens and tracks how
  much of its FIFO is *not yet reserved*.  The reservation happens at fire
  time — before the router's two-cycle data path delivers the words — so
  the forwarding delay can never overflow the FIFO (the paper's "early
  reservation").

Tokens travel between wrappers over a :class:`TokenChannel`, the model of
the asynchronous link plus handshake: bounded occupancy (the downstream
IPI's capacity provides the back-pressure inherent in the handshake) and a
configurable transfer latency.  Empty tokens flow like data tokens — their
only purpose is to let the neighbour synchronise, exactly as in the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.flits import Flit

__all__ = ["InputPortInterface", "OutputPortInterface", "TokenChannel"]


class InputPortInterface:
    """Token FIFO feeding one router/NI input."""

    def __init__(self, name: str, capacity_tokens: int = 2):
        if capacity_tokens < 1:
            raise ConfigurationError(
                f"IPI {name!r} needs capacity >= 1 token")
        self.name = name
        self.capacity = capacity_tokens
        self._tokens: deque[Flit] = deque()
        self.max_occupancy = 0

    def prime(self, token: Flit) -> None:
        """Insert an initial (reset-time) token in a place of its own."""
        self.capacity += 1
        self.push(token)

    def push(self, token: Flit) -> None:
        """Accept a token from the link; overflow is an invariant failure."""
        if len(self._tokens) >= self.capacity:
            raise SimulationError(
                f"IPI {self.name!r} overflow: link delivered a token with "
                "no space (handshake violated)")
        self._tokens.append(token)
        self.max_occupancy = max(self.max_occupancy, len(self._tokens))

    @property
    def fireable(self) -> bool:
        """True when a whole flit is available (the IPI's firing rule)."""
        return bool(self._tokens)

    @property
    def has_space(self) -> bool:
        """True when the IPI can accept another token from the link."""
        return len(self._tokens) < self.capacity

    def pop(self) -> Flit:
        """Consume the head token (called by the PIC at fire time)."""
        if not self._tokens:
            raise SimulationError(
                f"IPI {self.name!r}: fired without a token")
        return self._tokens.popleft()

    def __len__(self) -> int:
        return len(self._tokens)


class OutputPortInterface:
    """Token FIFO collecting one router/NI output, with early reservation."""

    def __init__(self, name: str, capacity_tokens: int = 2):
        if capacity_tokens < 1:
            raise ConfigurationError(
                f"OPI {name!r} needs capacity >= 1 token")
        self.name = name
        self.capacity = capacity_tokens
        self._tokens: deque[Flit] = deque()
        # "Space not yet reserved": decremented at fire time, incremented
        # when a token leaves towards the link.
        self.unreserved_space = capacity_tokens
        self.max_occupancy = 0

    @property
    def fireable(self) -> bool:
        """True when space for one more flit can be reserved."""
        return self.unreserved_space >= 1

    def reserve(self) -> None:
        """Reserve space for the token the current firing will produce."""
        if self.unreserved_space < 1:
            raise SimulationError(
                f"OPI {self.name!r}: fired without reservable space")
        self.unreserved_space -= 1

    def deliver(self, token: Flit) -> None:
        """Store the token produced by a firing (space was reserved)."""
        if len(self._tokens) >= self.capacity:
            raise SimulationError(
                f"OPI {self.name!r} overflow despite early reservation")
        self._tokens.append(token)
        self.max_occupancy = max(self.max_occupancy, len(self._tokens))

    @property
    def has_token(self) -> bool:
        """True when a token is waiting to be sent on the link."""
        return bool(self._tokens)

    def send(self) -> Flit:
        """Hand the head token to the link; frees reserved space."""
        if not self._tokens:
            raise SimulationError(f"OPI {self.name!r}: send without token")
        self.unreserved_space += 1
        return self._tokens.popleft()


@dataclass
class _InFlight:
    token: Flit
    deliver_at_ps: int


class TokenChannel:
    """The asynchronous link between an OPI and the next wrapper's IPI.

    Models the handshake's intrinsic flow control by bounding the number
    of tokens that are in flight or waiting in the destination IPI, and a
    fixed transfer latency for the clock-domain crossing.
    """

    def __init__(self, name: str, source: OutputPortInterface,
                 sink: InputPortInterface, *, latency_ps: int = 0):
        if latency_ps < 0:
            raise ConfigurationError(
                f"token channel {name!r}: latency must be >= 0")
        self.name = name
        self.source = source
        self.sink = sink
        self.latency_ps = latency_ps
        self._in_flight: deque[_InFlight] = deque()
        self.tokens_transferred = 0

    def service(self, now_ps: int) -> None:
        """Progress the link: deliver arrived tokens, launch new ones.

        Called by both endpoint wrappers on their own clock edges; the
        operation is idempotent per instant and respects token order.
        Runs to a fixpoint so that a zero-latency transfer launched now is
        also delivered now.
        """
        while True:
            progressed = False
            # Deliver tokens whose latency elapsed, while the IPI has room.
            while (self._in_flight and
                   self._in_flight[0].deliver_at_ps <= now_ps and
                   self.sink.has_space):
                self.sink.push(self._in_flight.popleft().token)
                self.tokens_transferred += 1
                progressed = True
            # Launch the next token when the handshake allows: total tokens
            # "owned" by the receiving side (in flight + buffered) must
            # stay within the IPI capacity, or the sender waits.
            while (self.source.has_token and
                   len(self._in_flight) + len(self.sink) <
                   self.sink.capacity):
                token = self.source.send()
                self._in_flight.append(
                    _InFlight(token, now_ps + self.latency_ps))
                progressed = True
            if not progressed:
                return
