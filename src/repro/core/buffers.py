"""NI buffer sizing and end-to-end credit accounting.

aelite avoids buffer overflow in the NIs with end-to-end, credit-based flow
control (Section III): the sending NI holds a credit counter initialised to
the destination queue's capacity, decrements it per payload word sent, and
receives increments piggybacked in the headers of packets travelling on the
reverse channel.

For the reserved throughput to be sustainable, the destination buffer must
cover the full *credit loop*: the words in flight during the time it takes
a word to travel forward plus the time for its credit to return.  The
formulas here are conservative (they round every partial slot up), which is
the right direction for guarantees: a larger buffer can only relax stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.core.placement import ChannelAllocation
from repro.core.words import WordFormat

__all__ = ["CreditLoop", "credit_loop", "required_rx_buffer_words",
           "required_tx_buffer_words", "credit_headroom_ok"]


@dataclass(frozen=True)
class CreditLoop:
    """Worst-case timing of the end-to-end credit cycle, in slots.

    Attributes
    ----------
    forward_slots:
        Slots for a flit to travel source NI -> destination NI.
    credit_wait_slots:
        Worst case slots a freshly produced credit waits in the destination
        NI for a reverse-channel slot (the reverse channel's max gap).
    reverse_slots:
        Slots for the credit-bearing header to travel back.
    """

    forward_slots: int
    credit_wait_slots: int
    reverse_slots: int

    @property
    def total_slots(self) -> int:
        """Full loop length in slots, plus one slot of NI processing."""
        return (self.forward_slots + self.credit_wait_slots +
                self.reverse_slots + 1)


def credit_loop(forward: ChannelAllocation,
                reverse: ChannelAllocation) -> CreditLoop:
    """Worst-case credit loop of a connection's channel pair."""
    if forward.path.source != reverse.path.dest or \
            forward.path.dest != reverse.path.source:
        raise ConfigurationError(
            f"channels {forward.spec.name!r} and {reverse.spec.name!r} do "
            "not form a forward/reverse pair")
    return CreditLoop(
        forward_slots=forward.path.traversal_slots,
        credit_wait_slots=reverse.worst_wait_slots(),
        reverse_slots=reverse.path.traversal_slots,
    )


def required_rx_buffer_words(forward: ChannelAllocation,
                             reverse: ChannelAllocation,
                             fmt: WordFormat) -> int:
    """Destination-queue capacity that sustains full reserved throughput.

    The source may inject up to ``n_slots`` payload-bearing flits per table
    rotation; over a credit loop of ``L`` slots that is
    ``ceil(L / table_size) * n_slots`` flits whose credits are still in
    flight.  One extra flit covers the flit in transit when the loop
    estimate is tight.
    """
    loop = credit_loop(forward, reverse)
    rotations = math.ceil(loop.total_slots / forward.table_size)
    flits_in_flight = rotations * forward.n_slots + 1
    return flits_in_flight * fmt.payload_words_per_flit


def required_tx_buffer_words(forward: ChannelAllocation,
                             fmt: WordFormat, *, burst_bytes: int | None = None
                             ) -> int:
    """Source-queue capacity decoupling the IP from the slot table.

    Sized to absorb the IP's largest burst plus one table rotation's worth
    of reserved traffic, so a conforming IP never observes backpressure.
    """
    burst = burst_bytes if burst_bytes is not None \
        else forward.spec.burst_bytes
    if burst < 0:
        raise ConfigurationError("burst_bytes must be >= 0")
    burst_words = math.ceil(burst / fmt.bytes_per_word)
    rotation_words = forward.n_slots * fmt.payload_words_per_flit
    return burst_words + rotation_words


def credit_headroom_ok(forward: ChannelAllocation,
                       reverse: ChannelAllocation, fmt: WordFormat) -> bool:
    """Can the reverse channel return credits as fast as they are produced?

    Each reverse-channel header carries at most ``fmt.max_credits`` credits
    (in payload words).  Per table rotation the forward channel consumes at
    most ``n_fwd * payload_words_per_flit`` credits while the reverse
    channel can return ``n_rev * max_credits``.
    """
    produced = forward.n_slots * fmt.payload_words_per_flit
    returned = reverse.n_slots * fmt.max_credits
    return returned >= produced
