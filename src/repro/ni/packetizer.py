"""Packet assembly: turning queued messages into flit word streams.

The TX side of a network interface holds a queue of messages per channel.
At every TDM slot owned by the channel, the packetiser produces one flit:

* the **first flit of a packet** carries the header word (source route,
  destination queue id, piggybacked credits) plus ``flit_size - 1``
  payload words;
* **continuation flits** — emitted when the *next* slot also belongs to
  the same channel and the packet has not reached ``max_packet_flits`` —
  carry a full ``flit_size`` payload words, amortising the header exactly
  as Æthereal packets spanning consecutive slots do;
* the explicit end-of-packet marker is set on the last flit of the packet.

Flits never mix payload from two messages; this keeps per-message latency
accounting exact and is (slightly) conservative for throughput, matching
the allocator's header-per-flit worst-case accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError
from repro.core.flits import Flit, FlitMeta
from repro.core.words import WordFormat, encode_header

__all__ = ["TxMessage", "Packetizer"]


@dataclass
class TxMessage:
    """A message waiting in a channel's TX queue.

    ``words`` are the payload words still to be sent; ``created_cycle`` is
    when the producing IP made the message available (latency measurement
    starts there).
    """

    message_id: int
    words: deque[int]
    created_cycle: int
    created_time_ps: int = -1
    total_words: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.words:
            raise ConfigurationError(
                f"message {self.message_id} has no payload words")
        self.total_words = len(self.words)


class Packetizer:
    """Per-channel TX flit builder.

    Parameters
    ----------
    channel:
        Channel name (stamped into flit metadata).
    path_field:
        Pre-encoded source-route field for this channel's path.
    queue_id:
        Destination queue id at the receiving NI.
    fmt:
        Word/flit geometry.
    max_packet_flits:
        Longest packet in flits; 1 disables continuation flits.
    """

    def __init__(self, channel: str, path_field: int, queue_id: int,
                 fmt: WordFormat, *, max_packet_flits: int = 4):
        if max_packet_flits < 1:
            raise ConfigurationError("max_packet_flits must be >= 1")
        self.channel = channel
        self.path_field = path_field
        self.queue_id = queue_id
        self.fmt = fmt
        self.max_packet_flits = max_packet_flits
        self._messages: deque[TxMessage] = deque()
        self._packet_flits_open = 0  # flits already sent in the open packet
        self._sequence = 0
        self.queued_words = 0

    # -- queue management ------------------------------------------------------

    def enqueue(self, message: TxMessage) -> None:
        """Add a message to the back of the TX queue."""
        self._messages.append(message)
        self.queued_words += len(message.words)

    @property
    def pending_words(self) -> int:
        """Payload words waiting to be sent."""
        return self.queued_words

    @property
    def has_data(self) -> bool:
        """True when at least one message is queued."""
        return bool(self._messages)

    @property
    def continuing(self) -> bool:
        """True when the next flit continues an open packet (no header)."""
        return self._packet_flits_open > 0

    def words_for_next_flit(self) -> int:
        """Payload words the next flit would carry (for credit checks)."""
        if not self._messages:
            return 0
        head = self._messages[0]
        capacity = (self.fmt.flit_size if self._packet_flits_open
                    else self.fmt.payload_words_per_flit)
        return min(capacity, len(head.words))

    # -- flit production ---------------------------------------------------------

    def next_flit(self, *, credits: int, next_slot_is_ours: bool) -> Flit:
        """Build the flit for the current slot.

        ``credits`` is the piggyback value for the header (0 on
        continuation flits); ``next_slot_is_ours`` enables keeping the
        packet open into the next slot.  Raises when no data is queued —
        callers must check :attr:`has_data` first.
        """
        if not self._messages:
            raise ConfigurationError(
                f"channel {self.channel!r}: next_flit() without queued data")
        head = self._messages[0]
        continuation = self._packet_flits_open > 0
        if continuation:
            payload_capacity = self.fmt.flit_size
            words: list[int] = []
        else:
            payload_capacity = self.fmt.payload_words_per_flit
            words = [encode_header([], self.queue_id, credits, self.fmt) |
                     self.path_field]
        take = min(payload_capacity, len(head.words))
        payload = [head.words.popleft() for _ in range(take)]
        words.extend(payload)
        self.queued_words -= take

        message_done = not head.words
        if message_done:
            self._messages.popleft()

        flits_after = self._packet_flits_open + 1
        more_data = bool(self._messages) or not message_done
        keep_open = (next_slot_is_ours and more_data and
                     flits_after < self.max_packet_flits and
                     not message_done)
        # A packet never spans two messages: message end forces EoP so the
        # next message starts with a fresh header (and fresh credits).
        eop = not keep_open
        self._packet_flits_open = 0 if eop else flits_after

        meta = FlitMeta(channel=self.channel, sequence=self._sequence,
                        payload_bytes=take * self.fmt.bytes_per_word,
                        created_cycle=head.created_cycle,
                        created_time_ps=head.created_time_ps,
                        message_id=head.message_id,
                        message_last=message_done,
                        message_bytes=(head.total_words *
                                       self.fmt.bytes_per_word))
        self._sequence += 1
        return Flit.data(words, self.fmt, eop=eop,
                         has_header=not continuation, meta=meta)

    def credit_only_flit(self, credits: int) -> Flit:
        """A header-only packet used purely to return credits."""
        words = [encode_header([], self.queue_id, credits, self.fmt) |
                 self.path_field]
        meta = FlitMeta(channel=self.channel, sequence=self._sequence,
                        payload_bytes=0, created_cycle=-1)
        self._sequence += 1
        self._packet_flits_open = 0
        return Flit.data(words, self.fmt, eop=True, has_header=True,
                         meta=meta)
