"""Word-level framing: the phit/flit format and packet-header encoding.

aelite moves data in *phits* (physical digits) of ``data_width`` bits; a
*flit* (flow-control digit) is a fixed number of phits (three throughout the
paper) and corresponds to one TDM slot.  The first word of every packet is a
header that carries

* the **source route**: a sequence of router output ports, consumed
  least-significant-first, one port per router hop.  The header-parsing unit
  (HPU) of each router reads the low ``port_bits`` bits and shifts the path
  right so the next router sees its own port selection in the low bits;
* the **remote queue id** selecting the destination connection queue in the
  receiving network interface; and
* piggybacked **end-to-end credits** for the reverse channel.

The valid and end-of-packet markers are explicit sideband signals in aelite
(one of the differences with Æthereal that removes header decoding from the
router's critical path) and are therefore *not* part of the header word; they
travel alongside each word in the models in :mod:`repro.router` and
:mod:`repro.link`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, Sequence

from repro.core.exceptions import HeaderFormatError, require_whole

__all__ = [
    "WordFormat",
    "encode_path",
    "decode_next_port",
    "shift_path",
    "encode_header",
    "decode_header",
    "header_credits",
    "header_queue",
]


@dataclass(frozen=True)
class WordFormat:
    """Geometry of words, flits and packet headers.

    Parameters
    ----------
    data_width:
        Bits per word (phit).  The paper evaluates 32 through 256.
    flit_size:
        Words per flit; one flit occupies one TDM slot.  Fixed at 3 in the
        paper and defaulted to 3 here, but parametrisable for ablations.

    The header's field widths are the same in every format:
    :attr:`port_bits` per router output port in the source route (3 bits
    supports routers up to arity 8), :attr:`queue_bits` for the
    destination queue (connection) id within the receiving NI and
    :attr:`credit_bits` for piggybacked end-to-end credits.

    >>> fmt = WordFormat()          # the paper's 32-bit, 3-word format
    >>> fmt.payload_bytes_per_flit  # one word per flit is the header
    8
    >>> fmt.max_hops                # path bits / port bits
    7
    """

    data_width: int = 32
    flit_size: int = 3
    port_bits: ClassVar[int] = 3
    queue_bits: ClassVar[int] = 4
    credit_bits: ClassVar[int] = 5

    def __post_init__(self) -> None:
        if self.data_width < 8:
            raise HeaderFormatError(f"data_width must be >= 8, got {self.data_width}")
        if self.flit_size < 2:
            raise HeaderFormatError(f"flit_size must be >= 2, got {self.flit_size}")
        if self.path_bits < self.port_bits:
            raise HeaderFormatError(
                f"header has no room for a path: data_width={self.data_width}, "
                f"queue_bits={self.queue_bits}, credit_bits={self.credit_bits}"
            )
        # NaN and fractions pass the comparisons above.
        for f in fields(self):
            require_whole(f.name, getattr(self, f.name), 0)

    # -- derived geometry ---------------------------------------------------

    @property
    def word_mask(self) -> int:
        """Bit mask of a full word."""
        return (1 << self.data_width) - 1

    @property
    def path_bits(self) -> int:
        """Bits available in the header for the source route."""
        return self.data_width - self.queue_bits - self.credit_bits

    @property
    def max_hops(self) -> int:
        """Maximum number of router hops encodable in one header word."""
        return self.path_bits // self.port_bits

    @property
    def max_port(self) -> int:
        """Largest encodable output-port number."""
        return (1 << self.port_bits) - 1

    @property
    def max_queue(self) -> int:
        """Largest encodable destination queue id."""
        return (1 << self.queue_bits) - 1

    @property
    def max_credits(self) -> int:
        """Largest credit count a single header can piggyback."""
        return (1 << self.credit_bits) - 1 if self.credit_bits else 0

    @property
    def payload_words_per_flit(self) -> int:
        """Payload words in a flit that starts a packet (header occupies one)."""
        return self.flit_size - 1

    @property
    def payload_bytes_per_flit(self) -> int:
        """Conservative payload bytes per slot: header counted in every flit.

        The allocator uses this by default so that reserved throughput is a
        guarantee independent of packet lengths; longer packets (consecutive
        slots) only ever do better.
        """
        return self.payload_words_per_flit * self.data_width // 8

    @property
    def bytes_per_word(self) -> int:
        """Bytes carried by one full word."""
        return self.data_width // 8

    # -- field slicing ------------------------------------------------------

    @property
    def _queue_shift(self) -> int:
        return self.path_bits

    @property
    def _credit_shift(self) -> int:
        return self.path_bits + self.queue_bits


def encode_path(ports: Sequence[int], fmt: WordFormat) -> int:
    """Pack router output ports into a path field, first hop in the low bits.

    Raises :class:`HeaderFormatError` if the path is too long for the header
    or a port number does not fit in ``port_bits``.
    """
    if len(ports) > fmt.max_hops:
        raise HeaderFormatError(
            f"path of {len(ports)} hops exceeds header capacity of "
            f"{fmt.max_hops} hops ({fmt.path_bits} path bits, "
            f"{fmt.port_bits} bits per port)"
        )
    value = 0
    for hop, port in enumerate(ports):
        if not 0 <= port <= fmt.max_port:
            raise HeaderFormatError(
                f"output port {port} at hop {hop} does not fit in "
                f"{fmt.port_bits} bits"
            )
        value |= port << (hop * fmt.port_bits)
    return value


def decode_next_port(path_field: int, fmt: WordFormat) -> int:
    """Return the output port for the current router (the low path bits)."""
    return path_field & fmt.max_port


def shift_path(header_word: int, fmt: WordFormat) -> int:
    """Consume one hop from a header word, as the HPU does.

    Only the path field shifts; queue id and credits are preserved.
    """
    path = header_word & ((1 << fmt.path_bits) - 1)
    rest = header_word & ~((1 << fmt.path_bits) - 1)
    return rest | (path >> fmt.port_bits)


def encode_header(ports: Iterable[int], queue: int, credits: int,
                  fmt: WordFormat) -> int:
    """Build a packet-header word from route, queue id and credits."""
    ports = list(ports)
    if not 0 <= queue <= fmt.max_queue:
        raise HeaderFormatError(
            f"queue id {queue} does not fit in {fmt.queue_bits} bits")
    if not 0 <= credits <= fmt.max_credits:
        raise HeaderFormatError(
            f"credit value {credits} does not fit in {fmt.credit_bits} bits")
    word = encode_path(ports, fmt)
    word |= queue << fmt._queue_shift
    word |= credits << fmt._credit_shift
    return word


def decode_header(header_word: int, fmt: WordFormat) -> tuple[int, int, int]:
    """Split a header word into ``(path_field, queue, credits)``."""
    path = header_word & ((1 << fmt.path_bits) - 1)
    queue = (header_word >> fmt._queue_shift) & fmt.max_queue
    credits = (header_word >> fmt._credit_shift) & fmt.max_credits if \
        fmt.credit_bits else 0
    return path, queue, credits


def header_queue(header_word: int, fmt: WordFormat) -> int:
    """Extract only the destination queue id from a header word."""
    return (header_word >> fmt._queue_shift) & fmt.max_queue


def header_credits(header_word: int, fmt: WordFormat) -> int:
    """Extract only the piggybacked credit count from a header word."""
    if not fmt.credit_bits:
        return 0
    return (header_word >> fmt._credit_shift) & fmt.max_credits
