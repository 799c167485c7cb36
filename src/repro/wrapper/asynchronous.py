"""The asynchronous wrapper: stallable routers and NIs (Section VI).

The wrapper turns a synchronous element (router or NI) into a *stallable
process* in the sense of latency-insensitive design ([20] in the paper):
the element advances from one flit cycle to the next only when all
neighbours have synchronised, established by the token discipline of the
port interfaces and the PIC.

Model semantics, mirroring the paper:

* The wrapper runs on the element's local clock, three cycles per flit
  cycle (window).  At each window boundary the PIC fires iff every IPI
  holds a token (a whole flit — data or empty) and every OPI can reserve
  space for one.
* A fired **router** window feeds the consumed tokens' words into the
  free-running router pipeline; the fire signal, delayed by the router's
  data-path depth, forms the capture window during which the emerging
  words are assembled into output tokens (one per output port — an
  *empty token* when no data was routed there, so neighbours can always
  synchronise).
* A fired **NI** window advances the NI by one flit cycle of *logical*
  time (its slot table indexes by firing count, not wall cycles) — this
  is what keeps the TDM schedule intact under stalling.
* At reset every IPI is primed with empty tokens (the paper's "a few
  cycles are spent at reset to produce initial empty tokens ...
  otherwise the system deadlocks").  The count is the link's: a flit
  that enters an IPI behind ``k`` primed tokens is consumed ``k``
  firings later, so a link costs ``k`` slots of logical time, and
  :func:`connect_wrappers` primes the ``1 + pipeline_stages`` slots the
  allocator charges a hop (:attr:`~repro.core.path.Path.link_shifts`).
  A link to or from an NI gets one token more: every path starts and
  ends on such a link, so the extra token shifts every channel by the
  same slot and only gives the NI's token loop its second token.  A
  router-to-router link without a stage would get one token, which
  matches the allocator but halves the firing rate, so it is refused.
  Each IPI holds one place per primed token plus one for the link's
  transfer; each OPI holds two tokens.

Because each firing consumes exactly one token per input in FIFO order,
the n-th firing of every element processes exactly the flits that the
globally synchronous network would process in that element's n-th slot,
shifted by the NI links' extra tokens (one slot at a router, two at a
receiving NI) — the same shift for every channel: the network is
*flit-synchronous*, and the allocation's contention-free guarantee
transfers unchanged.  Link and clock latencies shift wall-clock
timing only — which the throughput and schedule tests verify.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

from repro.clocking.clock import ClockDomain
from repro.core.exceptions import ConfigurationError, DeadlockError
from repro.core.flits import Flit, FlitKind
from repro.core.words import WordFormat
from repro.simulation.signals import IDLE, Phit, WordWire
from repro.topology.graph import Link
from repro.wrapper.controller import PortInterfaceController
from repro.wrapper.port_interface import (InputPortInterface,
                                          OutputPortInterface, TokenChannel)

__all__ = ["AsyncWrapper", "connect_wrappers", "DeadlockWatchdog"]


class _Wrappable(Protocol):  # pragma: no cover - typing helper
    name: str
    inputs: list[WordWire]
    outputs: list[WordWire]

    def compute(self, cycle: int, time_ps: int) -> None: ...
    def commit(self, cycle: int, time_ps: int) -> None: ...


@dataclass
class _Capture:
    """An in-progress output-token assembly for one firing."""

    start_cycle: int
    collected: list[list[Phit]] = field(init=False, default_factory=list)


class AsyncWrapper:
    """Wraps one router or NI into a stallable process (``Clocked``)."""

    def __init__(self, name: str, inner: _Wrappable, clock: ClockDomain,
                 fmt: WordFormat, *, is_ni: bool):
        self.name = name
        self.inner = inner
        self.clock = clock
        self.fmt = fmt
        self.is_ni = is_ni
        # One place for the link's transfer; connect_wrappers primes
        # the link's tokens, each with a place of its own.
        self.ipis = [InputPortInterface(f"{name}.ipi{i}", 1)
                     for i in range(len(inner.inputs))]
        self.opis = [OutputPortInterface(f"{name}.opi{o}")
                     for o in range(len(inner.outputs))]
        self.pic = PortInterfaceController(f"{name}.pic", self.ipis,
                                           self.opis)
        self.in_channels: list[TokenChannel] = []
        self.out_channels: list[TokenChannel] = []
        self._window_tokens: list[Flit] | None = None
        self._captures: deque[_Capture] = deque()
        self._virtual_cycle = 0  # NI logical time (advances when fired)
        self.last_fire_time_ps: int | None = None

    # -- Clocked protocol ---------------------------------------------------

    def compute(self, cycle: int, time_ps: int) -> None:
        """Service links, decide firing, feed the inner element."""
        for channel in self.in_channels:
            channel.service(time_ps)
        for channel in self.out_channels:
            channel.service(time_ps)
        pos = cycle % self.fmt.flit_size
        if pos == 0:
            self._begin_window(cycle, time_ps)
        self._feed_inner(pos)
        if not self.is_ni:
            self.inner.compute(cycle, time_ps)
        elif self._window_tokens is not None:
            self.inner.compute(self._virtual_cycle, time_ps)

    def commit(self, cycle: int, time_ps: int) -> None:
        """Advance the inner element and collect output tokens."""
        if not self.is_ni:
            self.inner.commit(cycle, time_ps)
            for wire in self.inner.outputs:
                wire.latch()
            self._collect_outputs(cycle)
        elif self._window_tokens is not None:
            self.inner.commit(self._virtual_cycle, time_ps)
            for wire in self.inner.outputs:
                wire.latch()
            self._collect_outputs(cycle)
            self._virtual_cycle += 1

    # -- firing ----------------------------------------------------------------

    def _begin_window(self, cycle: int, time_ps: int) -> None:
        if self.pic.can_fire:
            self._window_tokens = self.pic.fire()
            self.last_fire_time_ps = time_ps
            # NI emissions are captured within the fired window; router
            # outputs emerge after the data path's delay (the paper's
            # delayed fire signal: flit_size - 1 cycles for the two
            # register stages past the IPI).
            delay = 0 if self.is_ni else self.fmt.flit_size - 1
            self._captures.append(_Capture(start_cycle=cycle + delay))
        else:
            self.pic.note_stall()
            self._window_tokens = None

    def _feed_inner(self, pos: int) -> None:
        tokens = self._window_tokens
        for i, wire in enumerate(self.inner.inputs):
            if tokens is None or tokens[i].is_empty:
                phit = IDLE
            else:
                flit = tokens[i]
                phit = Phit(word=flit.words[pos], valid=True,
                            eop=flit.eop and pos == self.fmt.flit_size - 1,
                            flit=flit, word_index=pos)
            wire.drive(phit)
            wire.latch()

    # -- output collection ---------------------------------------------------------

    def _collect_outputs(self, cycle: int) -> None:
        """Sample the inner element's outputs into the pending capture.

        Captures are strictly ordered and non-overlapping (each spans
        ``flit_size`` cycles and consecutive firings start ``flit_size``
        apart), so only the head capture can be active.
        """
        if not self._captures:
            return
        head = self._captures[0]
        if cycle < head.start_cycle:
            return
        head.collected.append([wire.sample() for wire in self.inner.outputs])
        if len(head.collected) == self.fmt.flit_size:
            self._captures.popleft()
            self._deliver_tokens(head)

    def _deliver_tokens(self, capture: _Capture) -> None:
        for o, opi in enumerate(self.opis):
            phits = [row[o] for row in capture.collected]
            if not any(p.valid for p in phits):
                opi.deliver(Flit.empty(self.fmt))
                continue
            source = next((p.flit for p in phits
                           if p.valid and p.flit is not None), None)
            token = Flit(words=tuple(p.word for p in phits),
                         eop=phits[-1].eop,
                         kind=FlitKind.DATA,
                         has_header=(source.has_header
                                     if source is not None else True),
                         meta=source.meta if source is not None else None)
            opi.deliver(token)

    # -- introspection ------------------------------------------------------------

    @property
    def firings(self) -> int:
        """Completed firings (logical flit cycles) of this element."""
        return self.pic.firings

    def __repr__(self) -> str:
        kind = "NI" if self.is_ni else "router"
        return (f"AsyncWrapper({self.name!r} [{kind}], "
                f"{self.pic.firings} firings)")


def connect_wrappers(source: AsyncWrapper, sink: AsyncWrapper, link: Link,
                     *, latency_ps: int) -> TokenChannel:
    """Create the asynchronous token link ``link`` between two wrapped
    elements and prime the sink's IPI with the link's slot cost.

    Raises :class:`ConfigurationError` for a router-to-router link
    without a pipeline stage: no token count both matches the one slot
    the allocator charges it and sustains one firing per window.
    """
    ni_link = source.is_ni or sink.is_ni
    if link.pipeline_stages == 0 and not ni_link:
        raise ConfigurationError(
            f"link {link.key} joins two routers without a pipeline stage; "
            "asynchronous wrappers need one stage per router-to-router "
            "link")
    ipi = sink.ipis[link.dst_port]
    for _ in range(1 + link.pipeline_stages + ni_link):
        ipi.prime(Flit.empty(sink.fmt))
    channel = TokenChannel(
        f"{source.name}.out{link.src_port}->{sink.name}.in{link.dst_port}",
        source.opis[link.src_port], ipi, latency_ps=latency_ps)
    source.out_channels.append(channel)
    sink.in_channels.append(channel)
    return channel


class DeadlockWatchdog:
    """Engine watcher that detects a stalled wrapper network.

    The wrapper network is deadlock-free by construction (initial tokens
    put a token on every dependency cycle); the watchdog exists to fail
    fast — with a diagnostic — if a modelling or configuration error
    breaks that argument, rather than spinning forever.
    """

    def __init__(self, wrappers: list[AsyncWrapper], *,
                 timeout_ps: int):
        if timeout_ps <= 0:
            raise ConfigurationError("watchdog timeout must be positive")
        self.wrappers = wrappers
        self.timeout_ps = timeout_ps

    def __call__(self, now_ps: int) -> None:
        """Raise :class:`DeadlockError` when an element stopped firing.

        Each wrapper gets an individual grace period: from reset (for its
        first firing) and from its own last firing afterwards.
        """
        stuck: list[AsyncWrapper] = []
        for wrapper in self.wrappers:
            anchor = wrapper.last_fire_time_ps
            if anchor is None:
                if now_ps > self.timeout_ps:
                    stuck.append(wrapper)
            elif now_ps - anchor > self.timeout_ps:
                stuck.append(wrapper)
        if not stuck:
            return
        details = "; ".join(
            f"{w.name}: blocked on {w.pic.blocking_ports()}"
            for w in stuck[:4])
        raise DeadlockError(
            f"{len(stuck)} wrapped element(s) made no progress for "
            f"{self.timeout_ps} ps: {details}")
