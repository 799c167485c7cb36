"""Header Parsing Unit: source-route decoding with path shifting.

One HPU sits behind every router input (Section IV).  When a packet's
header word arrives, the HPU reads the low ``port_bits`` bits as the local
output port, shifts the path field right so the next router sees its own
selection, and holds the selected port for every subsequent word until the
explicit end-of-packet marker passes.

Because aelite carries valid and EoP as explicit sideband signals (unlike
Æthereal, which encodes them in-band), the HPU performs no decoding on the
critical path beyond the shift: this is the architectural simplification
the paper credits for the router's speed.
"""

from __future__ import annotations

from repro.core.words import WordFormat, decode_next_port, shift_path
from repro.simulation.signals import IDLE, Phit

__all__ = ["HeaderParsingUnit"]


class HeaderParsingUnit:
    """Stateful per-input route decoder.

    :meth:`process` consumes one input phit per cycle and returns the
    ``(output_port, phit)`` pair to hand to the switch, where the phit of a
    header word has its path already shifted.  Idle phits return
    ``(None, IDLE)``.
    """

    __slots__ = ("_fmt", "_current_port", "name")

    def __init__(self, fmt: WordFormat, name: str = "hpu"):
        self._fmt = fmt
        self._current_port: int | None = None
        self.name = name

    @property
    def busy(self) -> bool:
        """True while a packet is in flight through this input."""
        return self._current_port is not None

    def process(self, phit: Phit) -> tuple[int | None, Phit]:
        """Route one word; see class docstring."""
        if not phit.valid:
            return None, IDLE
        if self._current_port is None:
            # First word of a packet: the header.
            port = decode_next_port(phit.word, self._fmt)
            routed = Phit(word=shift_path(phit.word, self._fmt) &
                          self._fmt.word_mask,
                          valid=True, eop=phit.eop, flit=phit.flit,
                          word_index=phit.word_index)
            if not phit.eop:
                self._current_port = port
            return port, routed
        port = self._current_port
        if phit.eop:
            self._current_port = None
        return port, phit

