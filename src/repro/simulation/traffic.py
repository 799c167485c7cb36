"""Traffic patterns and their adapters for both simulators.

A :class:`TrafficPattern` describes *when* messages become available at a
channel's source NI and *how large* they are, in source-NI cycles.  The
same pattern object drives the fast flit-level simulator and (via
:class:`GeneratorComponent`) the detailed word-level simulator, so results
are directly comparable.

All randomness is drawn from per-instance seeded generators: two runs with
equal parameters produce identical event streams.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

from repro.core.exceptions import (ConfigurationError,
                                   require_finite_positive, require_whole)
from repro.core.words import WordFormat
from repro.ni.packetizer import TxMessage

__all__ = ["MessageEvent", "TrafficPattern", "ConstantBitRate",
           "PeriodicBurst", "BernoulliMessages", "Replay", "Saturating",
           "GeneratorComponent"]


@dataclass(frozen=True)
class MessageEvent:
    """One message becoming available for injection."""

    cycle: int
    words: int
    message_id: int


class TrafficPattern(ABC):
    """Deterministic message-arrival schedule for one channel.

    Cycles count from the channel's start, so no built-in pattern
    accepts an arrival before cycle 0: the executors would charge the
    wait since before the channel existed to the NoC's latency.  Message
    ids are distinct: the record log pairs a delivery with its final
    flit by id (:meth:`~repro.simulation.monitors.StatsCollector.
    composability_trace`).
    """

    @abstractmethod
    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        """All events with ``cycle < horizon_cycles``, in cycle order."""


class ConstantBitRate(TrafficPattern):
    """Fixed-size messages at a fixed average interval.

    ``interval_cycles`` may be fractional; arrival cycles are the floor of
    the exact schedule, which keeps the long-run rate exact.
    """

    def __init__(self, message_words: int, interval_cycles: float, *,
                 offset_cycles: int = 0):
        self.message_words = require_whole("message_words", message_words, 1)
        require_finite_positive("interval_cycles", interval_cycles)
        self.interval_cycles = interval_cycles
        self.offset_cycles = require_whole("offset_cycles", offset_cycles, 0)

    @staticmethod
    def from_rate(throughput_bytes_per_s: float, frequency_hz: float,
                  fmt: WordFormat, *,
                  offset_cycles: int = 0) -> "ConstantBitRate":
        """Build a CBR pattern delivering a given payload rate.

        A message is one flit's worth of payload, matching the
        allocator's conservative accounting.
        """
        require_finite_positive("throughput_bytes_per_s",
                                throughput_bytes_per_s)
        words = fmt.payload_words_per_flit
        bytes_per_message = words * fmt.bytes_per_word
        interval = frequency_hz * bytes_per_message / throughput_bytes_per_s
        return ConstantBitRate(words, interval, offset_cycles=offset_cycles)

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        """Arrivals at ``offset + floor(k * interval)``."""
        out: list[MessageEvent] = []
        k = 0
        while True:
            cycle = self.offset_cycles + math.floor(k * self.interval_cycles)
            if cycle >= horizon_cycles:
                break
            out.append(MessageEvent(cycle, self.message_words, k))
            k += 1
        return out


class PeriodicBurst(TrafficPattern):
    """Bursts of back-to-back messages at a fixed period."""

    def __init__(self, burst_messages: int, message_words: int,
                 period_cycles: int, *, offset_cycles: int = 0):
        self.burst_messages = require_whole("burst_messages",
                                            burst_messages, 1)
        self.message_words = require_whole("message_words", message_words, 1)
        self.period_cycles = require_whole("period_cycles", period_cycles, 1)
        self.offset_cycles = require_whole("offset_cycles", offset_cycles, 0)

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        """All burst arrivals; messages of one burst share their cycle."""
        out: list[MessageEvent] = []
        message_id = 0
        burst_start = self.offset_cycles
        while burst_start < horizon_cycles:
            for _ in range(self.burst_messages):
                out.append(MessageEvent(burst_start, self.message_words,
                                        message_id))
                message_id += 1
            burst_start += self.period_cycles
        return out


class BernoulliMessages(TrafficPattern):
    """One message with probability ``p`` at every slot boundary."""

    def __init__(self, probability: float, message_words: int,
                 flit_size: int, *, seed: int = 0):
        if not 0 <= probability <= 1:
            raise ConfigurationError("probability must be in [0, 1]")
        self.probability = probability
        self.message_words = require_whole("message_words", message_words, 1)
        self.flit_size = require_whole("flit_size", flit_size, 1)
        self.seed = seed

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        """Seeded Bernoulli draws, one per slot."""
        rng = random.Random(self.seed)
        out: list[MessageEvent] = []
        message_id = 0
        for slot_start in range(0, horizon_cycles, self.flit_size):
            if rng.random() < self.probability:
                out.append(MessageEvent(slot_start, self.message_words,
                                        message_id))
                message_id += 1
        return out


class Replay(TrafficPattern):
    """An explicit, caller-supplied event list."""

    def __init__(self, events: list[MessageEvent]):
        ordered = sorted(events, key=lambda e: (e.cycle, e.message_id))
        if ordered != list(events):
            raise ConfigurationError(
                "replay events must be sorted by (cycle, message_id)")
        if ordered and ordered[0].cycle < 0:
            raise ConfigurationError(
                "replay events must not arrive before cycle 0")
        if len({e.message_id for e in events}) < len(events):
            raise ConfigurationError(
                "replay message ids must be distinct")
        self._events = list(events)

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        """Events before the horizon."""
        return [e for e in self._events if e.cycle < horizon_cycles]


class Saturating(TrafficPattern):
    """A source that always has one message ready per slot.

    Used for saturation measurements: the channel's delivered rate then
    equals its guaranteed (reserved) throughput exactly.
    """

    def __init__(self, message_words: int, flit_size: int):
        self.message_words = require_whole("message_words", message_words, 1)
        self.flit_size = require_whole("flit_size", flit_size, 1)

    def events(self, horizon_cycles: int) -> list[MessageEvent]:
        """One message at every slot boundary."""
        return [MessageEvent(c, self.message_words, i)
                for i, c in enumerate(
                    range(0, horizon_cycles, self.flit_size))]


class GeneratorComponent:
    """``Clocked`` adapter feeding a pattern into a detailed-model NI.

    Must be registered with the engine *before* its NI so that a message
    arriving exactly at a slot boundary is visible to that slot's
    injection decision (both run in the compute phase of the same edge).
    """

    def __init__(self, ni, channel: str, pattern: TrafficPattern,
                 horizon_cycles: int, clock):
        self.ni = ni
        self.channel = channel
        self._events = deque(pattern.events(horizon_cycles))
        self._clock = clock

    def compute(self, cycle: int, time_ps: int) -> None:
        """Enqueue all messages that become available this cycle."""
        while self._events and self._events[0].cycle <= cycle:
            event = self._events.popleft()
            self.ni.enqueue_message(self.channel, TxMessage(
                message_id=event.message_id,
                words=deque(range(event.words)),
                created_cycle=event.cycle,
                created_time_ps=self._clock.edge_time(event.cycle)))

    def commit(self, cycle: int, time_ps: int) -> None:
        """Generators hold no clocked state."""
