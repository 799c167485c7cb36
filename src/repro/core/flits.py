"""The flit datatype shared by the hardware models.

A :class:`Flit` is the unit of both flow control and TDM arbitration: one
flit occupies exactly one slot on each link it traverses.  Flits carry their
words plus the explicit sideband markers of aelite (``valid`` on every word is
implied by the flit being present; ``eop`` marks the last flit of a packet).

Two kinds of flits exist:

* **data flits** carry a header word and/or payload words of a packet;
* **empty tokens** carry no useful words.  They exist only in the
  asynchronous-wrapper model (Section VI of the paper), where every output
  must produce one token per flit cycle so that neighbours can synchronise.

The ``meta`` field carries simulation bookkeeping (origin channel, sequence
number, injection timestamps).  Hardware models never branch on ``meta``;
it exists so monitors can measure latency without modifying the data path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.core.exceptions import ConfigurationError
from repro.core.words import WordFormat

__all__ = ["FlitKind", "FlitMeta", "Flit"]


class FlitKind(enum.Enum):
    """Discriminates payload-bearing flits from synchronisation tokens."""

    DATA = "data"
    EMPTY = "empty"


@dataclass(frozen=True)
class FlitMeta:
    """Simulation-only bookkeeping attached to a flit.

    Attributes
    ----------
    channel:
        Name of the connection/channel the flit belongs to.
    sequence:
        Per-channel flit sequence number (0-based), used to check in-order
        delivery.
    payload_bytes:
        Useful payload bytes carried (excludes the header word).
    created_cycle:
        Cycle (in the injecting NI's clock domain) at which the message that
        produced this flit became available for injection.
    message_id:
        Identifier of the message whose payload this flit carries (flits
        never mix messages), or -1 for credit-only traffic.
    message_last:
        True when this flit completes its message; the receiving monitor
        records message latency at this flit's delivery.
    """

    channel: str = ""
    sequence: int = -1
    payload_bytes: int = 0
    created_cycle: int = -1
    created_time_ps: int = -1
    message_id: int = -1
    message_last: bool = False
    message_bytes: int = 0


@dataclass(frozen=True)
class Flit:
    """One flow-control digit: ``flit_size`` words moving as a unit.

    ``words`` always has the full flit length; unused trailing words in a
    short final flit are zero-filled (as the hardware would drive idle
    lines).  ``has_header`` is true for the first flit of a packet, whose
    word 0 is the header.
    """

    words: tuple[int, ...]
    eop: bool = False
    kind: FlitKind = FlitKind.DATA
    has_header: bool = False
    meta: FlitMeta | None = None

    @staticmethod
    def empty(fmt: WordFormat) -> "Flit":
        """Build an empty synchronisation token (Section VI)."""
        return Flit(words=(0,) * fmt.flit_size, eop=True,
                    kind=FlitKind.EMPTY, has_header=False)

    @staticmethod
    def data(words: Sequence[int], fmt: WordFormat, *, eop: bool,
             has_header: bool, meta: FlitMeta | None = None) -> "Flit":
        """Build a data flit, zero-padding ``words`` to the flit size."""
        if len(words) > fmt.flit_size:
            raise ConfigurationError(
                f"flit of {len(words)} words exceeds flit size {fmt.flit_size}")
        padded = tuple(words) + (0,) * (fmt.flit_size - len(words))
        return Flit(words=padded, eop=eop, kind=FlitKind.DATA,
                    has_header=has_header, meta=meta)

    @property
    def is_empty(self) -> bool:
        """True for synchronisation-only tokens."""
        return self.kind is FlitKind.EMPTY
