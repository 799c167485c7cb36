"""Cycle-accurate model of the three-stage aelite router (Section IV).

The router has exactly the paper's structure:

* **stage 1** — one word register per input port (the only buffering);
* **stage 2** — a Header Parsing Unit per input that selects the output
  port from the source route and holds it until end-of-packet;
* **stage 3** — the arbiterless one-hot switch driving registered outputs.

A word presented on an input wire therefore appears on the selected output
wire three cycles later, which is the router's one-slot (one flit cycle)
contribution to the reservation shift.

The model is parametrisable only in its port counts and word format —
exactly the parametrisation the paper allows — and contains no routing
table, no arbiter and no flow control.  It raises
:class:`~repro.core.exceptions.SimulationError` on output contention,
turning every simulation into a check of the contention-free schedule.
"""

from __future__ import annotations

from repro.core.exceptions import ConfigurationError
from repro.core.words import WordFormat
from repro.router.hpu import HeaderParsingUnit
from repro.router.switch import Switch
from repro.simulation.signals import IDLE, Phit, WordWire

__all__ = ["SynchronousRouter"]


class SynchronousRouter:
    """Three-stage pipelined aelite router (implements ``Clocked``).

    Wire protocol: ``inputs[i]`` and ``outputs[o]`` are
    :class:`~repro.simulation.signals.WordWire` objects created by the
    router; the network builder connects neighbouring elements by sharing
    wire objects (an output wire of one element *is* the input wire of the
    next, matching a registered output driving a wire segment).
    """

    def __init__(self, name: str, n_inputs: int, n_outputs: int,
                 fmt: WordFormat | None = None):
        if n_inputs < 1 or n_outputs < 1:
            raise ConfigurationError(
                f"router {name!r} needs at least one input and one output")
        self.name = name
        self.fmt = fmt or WordFormat()
        self.inputs = [WordWire(f"{name}.in{i}") for i in range(n_inputs)]
        self.outputs = [WordWire(f"{name}.out{o}") for o in range(n_outputs)]
        self._hpus = [HeaderParsingUnit(self.fmt, f"{name}.hpu{i}")
                      for i in range(n_inputs)]
        self._switch = Switch(n_outputs, f"{name}.switch")
        # Pipeline registers.
        self._stage1: list[Phit] = [IDLE] * n_inputs
        self._stage2: list[tuple[int | None, Phit]] = \
            [(None, IDLE)] * n_inputs
        # Values prepared in compute, latched in commit.
        self._next_stage1: list[Phit] = [IDLE] * n_inputs
        self._next_outputs: list[Phit] = [IDLE] * n_outputs

    # -- geometry ---------------------------------------------------------

    # -- Clocked protocol ---------------------------------------------------

    def compute(self, cycle: int, time_ps: int) -> None:
        """Read input wires and current pipeline registers."""
        self._next_stage1 = [wire.sample() for wire in self.inputs]
        # Stage 3 decision: the switch is combinational on the stage-2
        # registers; contention raises here, before any state advances.
        self._next_outputs = self._switch.route(self._stage2)

    def commit(self, cycle: int, time_ps: int) -> None:
        """Advance the pipeline and drive output registers."""
        # Stage 3: registered outputs.
        for wire, phit in zip(self.outputs, self._next_outputs):
            wire.drive(phit)
        # Stage 2: run the HPUs on the stage-1 registers (state advances).
        self._stage2 = [hpu.process(phit)
                        for hpu, phit in zip(self._hpus, self._stage1)]
        # Stage 1: latch the input wires.
        self._stage1 = list(self._next_stage1)

    # -- introspection ------------------------------------------------------

    def __repr__(self) -> str:
        return (f"SynchronousRouter({self.name!r}, {len(self.inputs)}x"
                f"{len(self.outputs)}, {self.fmt.data_width}-bit)")
