"""Detailed word-level network simulation.

Builds a complete cycle-accurate model of a configured aelite network —
NIs, routers, link pipeline stages, asynchronous wrappers — and runs it on
the multi-domain engine.  Three clocking schemes are supported, matching
the paper's three deployment styles:

* ``"synchronous"`` — one global clock, plain wires (Section IV baseline);
* ``"mesochronous"`` — one clock region per router (its NIs share it),
  equal periods with per-region phase offsets, and a bi-synchronous link
  pipeline stage per ``Link.pipeline_stages`` on every router-router link
  (Section V);
* ``"asynchronous"`` — every router and NI wrapped into a stallable
  process with token-based synchronisation; clocks may be plesiochronous
  (Section VI).  Each link's IPI is primed with the ``1 +
  pipeline_stages`` slots the allocator charges the hop (one more on an
  NI link), so every router-to-router link needs a pipeline stage, as
  mesochronous clocking needs one on a link that crosses regions.

The detailed simulator is the ground truth the fast flit-level simulator
is validated against: integration tests assert both produce identical
logical flit schedules on the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocking.clock import ClockDomain
from repro.clocking.domains import (CLOCKING_MODES, mesochronous_domains,
                                    plesiochronous_domains,
                                    synchronous_domains)
from repro.core.configuration import NocConfiguration
from repro.core.exceptions import ConfigurationError
from repro.link.mesochronous import MesochronousLinkStage, make_stage
from repro.ni.network_interface import (NetworkInterface, RxQueueConfig,
                                        TxChannelConfig)
from repro.router.synchronous import SynchronousRouter
from repro.simulation.engine import Engine
from repro.simulation.monitors import StatsCollector
from repro.simulation.traffic import GeneratorComponent, TrafficPattern
from repro.topology.graph import NodeKind
from repro.wrapper.asynchronous import (AsyncWrapper, DeadlockWatchdog,
                                        connect_wrappers)

__all__ = ["DetailedNetwork", "DetailedSimResult"]

@dataclass
class DetailedSimResult:
    """Measurements from a detailed word-level run."""

    stats: StatsCollector
    simulated_cycles: int
    frequency_hz: float
    fifo_max_occupancy: dict[str, int] = field(default_factory=dict)
    wrapper_firings: dict[str, int] = field(default_factory=dict)
    ni_counters: dict[str, dict[str, int]] = field(default_factory=dict)


class DetailedNetwork:
    """A fully elaborated cycle-accurate network model."""

    def __init__(self, config: NocConfiguration, *,
                 clocking: str = "synchronous",
                 domains: dict[str, ClockDomain] | None = None,
                 mesochronous_seed: int = 1,
                 plesiochronous_ppm: float = 200.0,
                 traffic: dict[str, TrafficPattern] | None = None,
                 horizon_slots: int = 1024,
                 flow_control_pairs: dict[str, str] | None = None,
                 rx_capacity_words: int = 256):
        if clocking not in CLOCKING_MODES:
            raise ConfigurationError(
                f"unknown clocking mode {clocking!r}; expected one of "
                f"{CLOCKING_MODES}")
        self.config = config
        self.clocking = clocking
        self.fmt = config.fmt
        self.engine = Engine()
        self.stats = StatsCollector()
        self.horizon_cycles = horizon_slots * self.fmt.flit_size
        self._traffic = dict(traffic or {})
        self._fc_pairs = dict(flow_control_pairs or {})
        self._rx_capacity_words = rx_capacity_words

        self.domains = domains or self._default_domains(
            mesochronous_seed, plesiochronous_ppm)
        self.nis: dict[str, NetworkInterface] = {}
        self.routers: dict[str, SynchronousRouter] = {}
        self.stages: list[MesochronousLinkStage] = []
        self.wrappers: dict[str, AsyncWrapper] = {}
        self._queue_ids: dict[str, int] = {}

        self._build_elements()
        if clocking == "asynchronous":
            self._wire_asynchronous()
        else:
            self._wire_synchronous_or_meso()
        self._register_components()

    # -- clocking -------------------------------------------------------------

    def _default_domains(self, meso_seed: int,
                         ppm: float) -> dict[str, ClockDomain]:
        topo = self.config.topology
        freq = self.config.frequency_hz
        if self.clocking == "synchronous":
            return synchronous_domains(
                list(topo.routers) + list(topo.nis), freq)
        if self.clocking == "mesochronous":
            region = mesochronous_domains(topo.routers, freq,
                                          seed=meso_seed)
            domains = dict(region)
            for ni in topo.nis:
                domains[ni] = region[topo.attached_router(ni)]
            return domains
        return plesiochronous_domains(
            list(topo.routers) + list(topo.nis), freq, ppm=ppm,
            seed=meso_seed)

    def clock_of(self, node: str) -> ClockDomain:
        """Clock domain of a topology node."""
        return self.domains[node]

    # -- element construction ----------------------------------------------------

    def _build_elements(self) -> None:
        topo = self.config.topology
        allocation = self.config.allocation
        # Destination queue ids: per NI, enumerate incoming channels.
        for ni in topo.nis:
            for qid, ca in enumerate(allocation.channels_to_ni(ni)):
                if qid > self.fmt.max_queue:
                    raise ConfigurationError(
                        f"NI {ni!r} needs more RX queues than the "
                        f"{self.fmt.queue_bits}-bit queue field allows")
                self._queue_ids[ca.spec.name] = qid
        for router in topo.routers:
            self.routers[router] = SynchronousRouter(
                router, n_inputs=len(topo.predecessors(router)),
                n_outputs=len(topo.successors(router)), fmt=self.fmt)
        for ni in topo.nis:
            self.nis[ni] = self._build_ni(ni)

    def _build_ni(self, ni: str) -> NetworkInterface:
        allocation = self.config.allocation
        # fc_pairs maps a flow-controlled channel to the reverse channel
        # that returns its credits; ``inverse`` answers "whose credits does
        # this channel carry?".
        inverse = {rev: fwd for fwd, rev in self._fc_pairs.items()}
        local_sources = {ca.spec.name
                         for ca in allocation.channels_from_ni(ni)}
        tx_configs = []
        for ca in allocation.channels_from_ni(ni):
            name = ca.spec.name
            initial_credits = (self._rx_capacity_words
                               if name in self._fc_pairs else None)
            carried_for = inverse.get(name)
            credit_source = (self._queue_ids.get(carried_for)
                             if carried_for is not None else None)
            tx_configs.append(TxChannelConfig(
                name=name,
                path_field=ca.path.header_path_field(self.fmt),
                queue_id=self._queue_ids[name],
                initial_credits=initial_credits,
                credit_source_queue=credit_source))
        rx_configs = []
        for ca in allocation.channels_to_ni(ni):
            name = ca.spec.name
            # Credits piggybacked on this incoming channel replenish the
            # local TX channel whose credit-return path it is.
            replenishes = inverse.get(name)
            credit_target = replenishes if replenishes in local_sources \
                else None
            rx_configs.append(RxQueueConfig(
                queue_id=self._queue_ids[name], channel=name,
                credit_target_tx=credit_target))
        return NetworkInterface(
            ni, allocation.ni_injection_table(ni), self.fmt,
            tx_channels=tx_configs, rx_queues=rx_configs, stats=self.stats)

    # -- wiring ----------------------------------------------------------------

    def _element(self, node: str):
        if self.config.topology.kind(node) is NodeKind.ROUTER:
            return self.routers[node]
        return self.nis[node]

    def _wire_synchronous_or_meso(self) -> None:
        topo = self.config.topology
        for link in topo.links:
            src = self._element(link.src)
            dst = self._element(link.dst)
            upstream_wire = src.outputs[link.src_port]
            if link.pipeline_stages == 0:
                if self.domains[link.src] != self.domains[link.dst]:
                    raise ConfigurationError(
                        f"link {link.key} crosses clock domains but has no "
                        "pipeline stage; add stages or use synchronous "
                        "clocking")
                dst.inputs[link.dst_port] = upstream_wire
                continue
            # Chain of mesochronous stages; each consumes one TDM slot.
            writer_clock = self.domains[link.src]
            reader_clocks = self._stage_clocks(link)
            wire = upstream_wire
            for index, reader_clock in enumerate(reader_clocks):
                stage = make_stage(
                    self.engine,
                    f"{link.src}->{link.dst}.s{index}",
                    writer_clock, reader_clock, self.fmt)
                stage.writer.inputs[0] = wire
                wire = stage.outputs[0]
                writer_clock = reader_clock
                self.stages.append(stage)
            dst.inputs[link.dst_port] = wire

    def _stage_clocks(self, link) -> list[ClockDomain]:
        """Reader clocks for each stage: interpolate phases, end at dst."""
        src_clock = self.domains[link.src]
        dst_clock = self.domains[link.dst]
        n = link.pipeline_stages
        clocks: list[ClockDomain] = []
        for index in range(1, n):
            frac = index / n
            phase = round(src_clock.phase_ps +
                          (dst_clock.phase_ps - src_clock.phase_ps) * frac)
            clocks.append(ClockDomain(
                name=f"clk_{link.src}->{link.dst}.s{index - 1}",
                period_ps=src_clock.period_ps, phase_ps=phase))
        clocks.append(dst_clock)
        return clocks

    def _wire_asynchronous(self) -> None:
        topo = self.config.topology
        for node in list(topo.routers) + list(topo.nis):
            inner = self._element(node)
            self.wrappers[node] = AsyncWrapper(
                f"w_{node}", inner, self.domains[node], self.fmt,
                is_ni=topo.kind(node) is NodeKind.NI)
        for link in topo.links:
            latency = max(1, self.domains[link.src].period_ps // 2)
            connect_wrappers(self.wrappers[link.src],
                             self.wrappers[link.dst], link,
                             latency_ps=latency)

    # -- registration --------------------------------------------------------------

    def _register_components(self) -> None:
        topo = self.config.topology
        # Traffic generators first: their compute must precede their NI's
        # slot decision on the same edge.
        for channel, pattern in sorted(self._traffic.items()):
            ca = self.config.allocation.channel(channel)
            ni = self.nis[ca.path.source]
            clock = self.domains[ca.path.source]
            self.engine.add_component(clock, GeneratorComponent(
                ni, channel, pattern, self.horizon_cycles, clock))
        if self.clocking == "asynchronous":
            for node, wrapper in sorted(self.wrappers.items()):
                self.engine.add_component(self.domains[node], wrapper)
            self.engine.add_watcher(DeadlockWatchdog(
                list(self.wrappers.values()),
                timeout_ps=self._watchdog_timeout_ps()))
            return
        for ni_name in topo.nis:
            ni = self.nis[ni_name]
            self.engine.add_component(self.domains[ni_name], ni)
            self.engine.add_wire(self.domains[ni_name], ni.outputs[0])
        for router_name in topo.routers:
            router = self.routers[router_name]
            self.engine.add_component(self.domains[router_name], router)
            for wire in router.outputs:
                self.engine.add_wire(self.domains[router_name], wire)

    def _watchdog_timeout_ps(self) -> int:
        slowest = max(c.period_ps for c in self.domains.values())
        # Generous: 32 flit cycles of the slowest clock without a firing
        # indicates deadlock, not congestion (the wrapper network fires
        # every flit cycle in steady state).
        return 32 * self.fmt.flit_size * slowest

    # -- execution -------------------------------------------------------------------

    def run(self, n_slots: int | None = None) -> DetailedSimResult:
        """Run for ``n_slots`` flit cycles (default: the build horizon)."""
        slots = n_slots if n_slots is not None else \
            self.horizon_cycles // self.fmt.flit_size
        cycles = slots * self.fmt.flit_size
        slowest = max(c.period_ps for c in self.domains.values())
        self.engine.run_until(cycles * slowest + slowest)
        fifo_occ = {s.fifo.name: s.fifo.max_occupancy for s in self.stages}
        for node, wrapper in self.wrappers.items():
            for ipi in wrapper.ipis:
                fifo_occ[ipi.name] = ipi.max_occupancy
        return DetailedSimResult(
            stats=self.stats, simulated_cycles=cycles,
            frequency_hz=self.config.frequency_hz,
            fifo_max_occupancy=fifo_occ,
            wrapper_firings={n: w.firings
                             for n, w in self.wrappers.items()},
            ni_counters={
                name: {"flits_injected": ni.flits_injected,
                       "flits_received": ni.flits_received,
                       "stalled_slots": ni.stalled_slots}
                for name, ni in self.nis.items()})
