"""Cycle-accurate network-interface model.

The NI is where aelite's guaranteed services are enforced (Section III):

* **TX side** — one queue per outgoing channel, drained only in the
  channel's TDM slots.  At the first cycle of each owned slot the NI takes
  one flit from the packetiser and drives its words in the slot's
  ``flit_size`` cycles.  Unowned or data-less slots leave the link idle:
  unused resources stay idle rather than being redistributed, which is
  precisely what makes the services composable.
* **end-to-end flow control** — a credit counter per TX channel,
  initialised to the remote queue's buffer capacity, decremented per
  payload word sent and replenished by credits piggybacked on headers of
  the paired reverse channel.  When credits run out the channel stalls
  (back-pressure): an oversubscribing application slows *itself* down,
  never its neighbours.
* **RX side** — reassembles packets per destination queue, delivers
  payload to the (modelled) always-ready IP sink, and accumulates
  consumption credits for piggybacking.

The IP-facing side abstracts the paper's bi-synchronous clock-domain
crossing: messages appear in TX queues via :meth:`enqueue_message` (called
by traffic generators) with the GALS decoupling folded into the message's
``created_cycle``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.flits import Flit
from repro.core.words import (WordFormat, header_credits, header_queue)
from repro.ni.packetizer import Packetizer, TxMessage
from repro.simulation.monitors import (DeliveryRecord, InjectionRecord,
                                       StatsCollector)
from repro.simulation.signals import IDLE, Phit, WordWire

__all__ = ["TxChannelConfig", "RxQueueConfig", "NetworkInterface"]


@dataclass(frozen=True)
class TxChannelConfig:
    """Static configuration of one outgoing channel at an NI.

    Attributes
    ----------
    name:
        Channel name (matches the allocation).
    path_field:
        Pre-encoded source route to the destination NI.
    queue_id:
        Destination queue id at the remote NI.
    initial_credits:
        Remote buffer capacity in words, or ``None`` to disable end-to-end
        flow control for this channel.
    credit_source_queue:
        Local RX queue whose consumption credits ride on this channel's
        headers (the reverse channel of a connection), or ``None``.

    Packets are at most the packetiser's default of four flits long.
    """

    name: str
    path_field: int
    queue_id: int
    initial_credits: int | None = None
    credit_source_queue: int | None = None


@dataclass(frozen=True)
class RxQueueConfig:
    """Static configuration of one incoming queue at an NI.

    The IP behind the queue is an always-ready sink: every payload word
    is consumed on arrival and earns one credit for the sender.

    Attributes
    ----------
    queue_id:
        Local queue index (as encoded in arriving headers).
    channel:
        Name of the channel that feeds this queue.
    credit_target_tx:
        Local TX channel whose credit counter is replenished by credits
        arriving in this queue's headers, or ``None``.
    """

    queue_id: int
    channel: str
    credit_target_tx: str | None = None


@dataclass
class _TxState:
    config: TxChannelConfig
    packetizer: Packetizer
    credits: int | None


@dataclass
class _RxState:
    config: RxQueueConfig
    #: Consumed words not yet returned as credits on a header.
    pending_credits: int = field(default=0, init=False)


class NetworkInterface:
    """TDM-scheduled NI (implements ``Clocked``).

    ``row`` is the NI's slot table: per slot, the TX channel that
    injects in it, or ``None`` (:meth:`~repro.core.allocation.
    Allocation.ni_injection_table`); its length is the table size.
    """

    def __init__(self, name: str, row: tuple[str | None, ...],
                 fmt: WordFormat, *,
                 tx_channels: list[TxChannelConfig] | None = None,
                 rx_queues: list[RxQueueConfig] | None = None,
                 stats: StatsCollector | None = None):
        if not row:
            raise ConfigurationError(f"NI {name!r}: empty slot table")
        self.name = name
        self.row = tuple(row)
        self.fmt = fmt
        self.stats = stats
        self.inputs = [WordWire(f"{name}.in")]
        self.outputs = [WordWire(f"{name}.out")]
        self._tx: dict[str, _TxState] = {}
        self._rx: dict[int, _RxState] = {}
        for cfg in tx_channels or []:
            self.add_tx_channel(cfg)
        for cfg in rx_queues or []:
            self.add_rx_queue(cfg)
        strangers = sorted({owner for owner in self.row
                            if owner is not None and owner not in self._tx})
        if strangers:
            raise ConfigurationError(
                f"NI {name!r}: slot table names {strangers} without a TX "
                "channel")
        # TX emission state.
        self._emitting: Flit | None = None
        self._emit_pos = 0
        self._emit_channel: str | None = None
        # RX reassembly state.
        self._rx_expect_header = True
        self._rx_queue_current: int | None = None
        self._pending_input: Phit = IDLE
        # Counters.
        self.slots_seen = 0
        self.flits_injected = 0
        self.flits_received = 0
        self.stalled_slots = 0

    # -- construction -------------------------------------------------------

    def add_tx_channel(self, cfg: TxChannelConfig) -> None:
        """Register an outgoing channel."""
        if cfg.name in self._tx:
            raise ConfigurationError(
                f"NI {self.name!r}: duplicate TX channel {cfg.name!r}")
        packetizer = Packetizer(cfg.name, cfg.path_field, cfg.queue_id,
                                self.fmt)
        self._tx[cfg.name] = _TxState(cfg, packetizer, cfg.initial_credits)

    def add_rx_queue(self, cfg: RxQueueConfig) -> None:
        """Register an incoming queue."""
        if cfg.queue_id in self._rx:
            raise ConfigurationError(
                f"NI {self.name!r}: duplicate RX queue {cfg.queue_id}")
        if cfg.queue_id > self.fmt.max_queue:
            raise ConfigurationError(
                f"NI {self.name!r}: queue id {cfg.queue_id} exceeds header "
                f"field ({self.fmt.queue_bits} bits)")
        self._rx[cfg.queue_id] = _RxState(cfg)

    # -- IP-facing API ---------------------------------------------------------

    def enqueue_message(self, channel: str, message: TxMessage) -> None:
        """Queue a message for transmission (called by traffic generators)."""
        self._tx_state(channel).packetizer.enqueue(message)

    def pending_words(self, channel: str) -> int:
        """Words waiting in a channel's TX queue."""
        return self._tx_state(channel).packetizer.queued_words

    def credits_of(self, channel: str) -> int | None:
        """Current credit counter of a TX channel."""
        return self._tx_state(channel).credits

    def _tx_state(self, channel: str) -> _TxState:
        try:
            return self._tx[channel]
        except KeyError:
            raise ConfigurationError(
                f"NI {self.name!r} has no TX channel {channel!r}")

    # -- Clocked protocol ----------------------------------------------------------

    def compute(self, cycle: int, time_ps: int) -> None:
        """Sample the input wire; pick the flit at slot boundaries."""
        self._pending_input = self.inputs[0].sample()
        if cycle % self.fmt.flit_size == 0:
            self._begin_slot(cycle, time_ps)

    def commit(self, cycle: int, time_ps: int) -> None:
        """Drive the current emission word; absorb the sampled input."""
        self._drive_tx(cycle, time_ps)
        self._absorb_rx(cycle, time_ps)

    # -- TX path ---------------------------------------------------------------

    def _begin_slot(self, cycle: int, time_ps: int) -> None:
        slot_index = cycle // self.fmt.flit_size
        row = self.row
        slot = slot_index % len(row)
        self.slots_seen += 1
        owner = row[slot]
        self._emitting = None
        self._emit_pos = 0
        self._emit_channel = None
        if owner is None:
            return
        tx = self._tx[owner]
        if tx.packetizer.has_data:
            # Credits ride only on headers, so continuation flits collect
            # none (they would be lost otherwise).
            starting_packet = not tx.packetizer.continuing
            credits_to_carry = self._collect_credits(tx) if \
                starting_packet else 0
            needed = tx.packetizer.words_for_next_flit()
            if tx.credits is not None and tx.credits < needed:
                # Data is credit-stalled; the slot is not wasted if there
                # are consumption credits to return — a header-only packet
                # costs no end-to-end credits (as in Æthereal).
                self.stalled_slots += 1
                if credits_to_carry:
                    self._emitting = tx.packetizer.credit_only_flit(
                        credits_to_carry)
                    self._emit_channel = owner
                    self.flits_injected += 1
                return
            next_slot = (slot + 1) % len(row)
            flit = tx.packetizer.next_flit(
                credits=credits_to_carry,
                next_slot_is_ours=row[next_slot] == owner)
            if tx.credits is not None:
                tx.credits -= flit.meta.payload_bytes // \
                    self.fmt.bytes_per_word
            self._emitting = flit
            self._emit_channel = owner
            self.flits_injected += 1
            if self.stats is not None:
                self.stats.record_injection(InjectionRecord(
                    channel=owner, message_id=flit.meta.message_id,
                    sequence=flit.meta.sequence, slot_index=slot_index,
                    cycle=cycle, time_ps=time_ps))
        else:
            credits_to_carry = self._collect_credits(tx)
            if not credits_to_carry:
                return
            # Nothing to send but credits to return: header-only packet.
            self._emitting = tx.packetizer.credit_only_flit(credits_to_carry)
            self._emit_channel = owner
            self.flits_injected += 1

    def _collect_credits(self, tx: _TxState) -> int:
        if tx.config.credit_source_queue is None:
            return 0
        rx = self._rx.get(tx.config.credit_source_queue)
        if rx is None:
            return 0
        take = min(rx.pending_credits, self.fmt.max_credits)
        rx.pending_credits -= take
        return take

    def _drive_tx(self, cycle: int, time_ps: int) -> None:
        if self._emitting is None:
            return
        flit = self._emitting
        pos = self._emit_pos
        last = pos == self.fmt.flit_size - 1
        self.outputs[0].drive(Phit(
            word=flit.words[pos], valid=True,
            eop=flit.eop and last, flit=flit, word_index=pos))
        if last:
            self._emitting = None
            self._emit_pos = 0
        else:
            self._emit_pos += 1

    # -- RX path ------------------------------------------------------------------

    def _absorb_rx(self, cycle: int, time_ps: int) -> None:
        phit = self._pending_input
        self._pending_input = IDLE
        if not phit.valid:
            return
        if self._rx_expect_header:
            queue_id = header_queue(phit.word, self.fmt)
            credits = header_credits(phit.word, self.fmt)
            rx = self._rx.get(queue_id)
            if rx is None:
                raise SimulationError(
                    f"NI {self.name!r}: packet for unknown queue {queue_id}")
            self._rx_queue_current = queue_id
            self._rx_expect_header = False
            if credits and rx.config.credit_target_tx is not None:
                target = self._tx_state(rx.config.credit_target_tx)
                if target.credits is not None:
                    target.credits += credits
        else:
            if self._rx_queue_current is None:
                raise SimulationError(
                    f"NI {self.name!r}: payload word outside any packet")
            # Always-ready sink: consumed immediately, credit granted.
            self._rx[self._rx_queue_current].pending_credits += 1
        # End-of-flit bookkeeping: the last word of each flit closes the
        # word group; EoP additionally closes the packet.
        if phit.word_index == self.fmt.flit_size - 1:
            self.flits_received += 1
            meta = phit.flit.meta if phit.flit is not None else None
            if meta is not None and meta.message_last and \
                    meta.message_id >= 0:
                self._record_delivery(meta, cycle, time_ps)
        if phit.eop:
            self._rx_expect_header = True
            self._rx_queue_current = None

    def _record_delivery(self, meta, cycle: int, time_ps: int) -> None:
        if self.stats is None:
            return
        self.stats.record_delivery(DeliveryRecord(
            channel=meta.channel, message_id=meta.message_id,
            created_cycle=meta.created_cycle,
            created_time_ps=meta.created_time_ps,
            delivered_cycle=cycle, delivered_time_ps=time_ps,
            payload_bytes=meta.message_bytes))

    def __repr__(self) -> str:
        return (f"NetworkInterface({self.name!r}, {len(self._tx)} tx, "
                f"{len(self._rx)} rx)")
