"""Links: bi-synchronous FIFOs and mesochronous pipeline stages.

A plain synchronous link is the producing element's output
:class:`~repro.simulation.signals.WordWire` handed to the consumer as its
input wire; it needs no model of its own.
"""

from repro.link.bisync_fifo import BisyncFifo
from repro.link.mesochronous import (MesochronousLinkStage, MesoReader,
                                     MesoWriter, make_stage)

__all__ = ["BisyncFifo", "MesochronousLinkStage", "MesoReader",
           "MesoWriter", "make_stage"]
