"""The mesochronous link pipeline stage (Section V of the paper).

The stage consists of a 4-word bi-synchronous FIFO and an FSM in the
reading clock domain.  The writing clock is sourced along with the data
(source-synchronous), so the writer side simply pushes every valid word it
samples.  The reader-side FSM tracks the position within the current flit
cycle (states 0, 1, 2 for a 3-word flit):

* in state 0 (a flit-cycle boundary of the *reading* clock) it checks
  whether the FIFO holds at least one word;
* if so, it keeps ``valid``/``accept`` high for the whole following flit
  cycle, popping one word per cycle and presenting it to the downstream
  router — re-aligning the flit to the reading clock's slot grid.

The stage therefore always takes exactly one TDM slot (three reading-clock
cycles), absorbing both the FIFO's forwarding delay and up to half a cycle
of skew; this is what makes the network *flit-synchronous* without global
cycle-level synchronicity.  The slot allocator accounts for the stage via
``Link.pipeline_stages``.

Model structure: two ``Clocked`` components sharing one FIFO —
:class:`MesoWriter` on the upstream clock, :class:`MesoReader` on the
downstream clock.  :func:`make_stage` builds and registers the pair.
"""

from __future__ import annotations

from repro.clocking.clock import ClockDomain
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.words import WordFormat
from repro.link.bisync_fifo import BisyncFifo
from repro.simulation.engine import Engine
from repro.simulation.signals import IDLE, Phit, WordWire

__all__ = ["MesoWriter", "MesoReader", "MesochronousLinkStage", "make_stage"]

#: FIFO depth of the paper's link stage ("the FIFO is chosen with
#: sufficient storage capacity to never be full (4 words)").
DEFAULT_FIFO_WORDS = 4

#: Forwarding delay of the bi-synchronous FIFO in writer cycles.  The
#: paper assumes a total forwarding delay "less than the number of words
#: in a flit (1-2 cycles)"; in this model the writer-side sampling
#: register contributes one of those cycles, so the FIFO itself adds one
#: more.  With the total at two cycles and skew bounded by half a cycle,
#: a flit written in slot ``s`` is always — and only — readable at the
#: reader's slot boundary ``s + 1``, making the stage's one-slot latency
#: exact and phase-independent.
FORWARD_DELAY_CYCLES = 1


class MesoWriter:
    """Writer half: samples the upstream wire, pushes valid words."""

    def __init__(self, name: str, fifo: BisyncFifo):
        self.name = name
        self.fifo = fifo
        self.inputs = [WordWire(f"{name}.in")]
        self._pending: Phit = IDLE

    def compute(self, cycle: int, time_ps: int) -> None:
        """Sample the source-synchronous data."""
        self._pending = self.inputs[0].sample()

    def commit(self, cycle: int, time_ps: int) -> None:
        """Push the sampled word at this writer edge."""
        if self._pending.valid:
            self.fifo.write(self._pending, time_ps)
        self._pending = IDLE


class MesoReader:
    """Reader half: the flit re-alignment FSM of Section V."""

    def __init__(self, name: str, fifo: BisyncFifo, fmt: WordFormat):
        self.name = name
        self.fifo = fifo
        self.fmt = fmt
        self.outputs = [WordWire(f"{name}.out")]
        self._forwarding = False
        self._start_next = False
        self.flits_forwarded = 0

    def compute(self, cycle: int, time_ps: int) -> None:
        """At a flit-cycle boundary, decide whether to forward a flit."""
        if cycle % self.fmt.flit_size == 0:
            self._start_next = self.fifo.readable(time_ps) >= 1

    def commit(self, cycle: int, time_ps: int) -> None:
        """Pop and present one word per cycle while forwarding."""
        pos = cycle % self.fmt.flit_size
        if pos == 0:
            self._forwarding = self._start_next
            if self._forwarding:
                self.flits_forwarded += 1
        if self._forwarding:
            phit = self.fifo.pop(time_ps)
            if phit.word_index != pos:
                raise SimulationError(
                    f"{self.name}: flit word {phit.word_index} arrived in "
                    f"flit-cycle position {pos}; the stage lost flit "
                    "alignment")
            self.outputs[0].drive(phit)
        # When not forwarding the wire latches to idle by itself.


class MesochronousLinkStage:
    """The assembled stage: writer + the paper's 4-word FIFO + reader."""

    def __init__(self, name: str, writer_clock: ClockDomain,
                 reader_clock: ClockDomain, fmt: WordFormat):
        if not writer_clock.is_mesochronous_with(reader_clock):
            raise ConfigurationError(
                f"link stage {name!r}: mesochronous stages need equal "
                f"periods ({writer_clock.period_ps} != "
                f"{reader_clock.period_ps} ps); use the asynchronous "
                "wrapper for plesiochronous clocks")
        if DEFAULT_FIFO_WORDS < fmt.flit_size + 1:
            raise ConfigurationError(
                f"link stage {name!r}: FIFO of {DEFAULT_FIFO_WORDS} words "
                f"cannot hold a {fmt.flit_size}-word flit plus slack")
        self.name = name
        self.writer_clock = writer_clock
        self.reader_clock = reader_clock
        self.fifo = BisyncFifo(
            f"{name}.fifo", DEFAULT_FIFO_WORDS,
            FORWARD_DELAY_CYCLES * writer_clock.period_ps)
        self.writer = MesoWriter(f"{name}.wr", self.fifo)
        self.reader = MesoReader(f"{name}.rd", self.fifo, fmt)

    @property
    def outputs(self) -> list[WordWire]:
        """Downstream-facing wire (reader side)."""
        return self.reader.outputs


def make_stage(engine: Engine, name: str, writer_clock: ClockDomain,
               reader_clock: ClockDomain, fmt: WordFormat
               ) -> MesochronousLinkStage:
    """Build a stage of the paper's 4-word FIFO and register both halves
    with the engine."""
    stage = MesochronousLinkStage(name, writer_clock, reader_clock, fmt)
    engine.add_component(writer_clock, stage.writer)
    engine.add_component(reader_clock, stage.reader)
    engine.add_wire(reader_clock, stage.reader.outputs[0])
    return stage
