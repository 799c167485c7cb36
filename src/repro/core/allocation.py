"""Contention-free TDM slot allocation.

This is the software counterpart of the Æthereal resource-allocation tools
the paper reuses ([16]): given a topology, a mapping of IPs to NIs, and a
set of guaranteed-service channels, find for every channel a source route
and a set of injection slots such that **no two flits ever use the same
link in the same slot** (Section III's contention-free routing invariant).

The algorithm is a deterministic greedy allocator in the UMARS tradition:

1. channels are ordered hardest-first (most slots needed, then tightest
   latency, then name for determinism);
2. for each channel a small set of candidate paths is considered —
   k-shortest plus a congestion-aware shortest path that weighs links by
   their current slot occupancy;
3. the placement loop of :mod:`repro.core.placement` intersects, on each
   candidate path, the injection slots free on *every* traversed link
   (after per-hop shifting), and the spreading heuristic of
   :mod:`repro.core.slot_table` picks slots that minimise the worst-case
   injection wait;
4. the first path that satisfies both the slot count and the latency gap
   constraint wins; its reservations are ORed into the per-link
   occupancy masks.

This module holds the allocation (:class:`Allocation`) and the caching
front (:class:`SlotAllocator`); the placement loop and the record it
returns (:class:`~repro.core.placement.ChannelAllocation`) live below
it in :mod:`repro.core.placement`.

Committed allocations are never revisited (no backtracking); this mirrors
the incremental allocation used for undisrupted reconfiguration: channels
of a new application can be added to an existing allocation without
touching running applications, and removed again without leaving state
behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.connection import ChannelSpec
from repro.core.exceptions import (AllocationError, ConfigurationError,
                                   TopologyError, require_finite_positive,
                                   require_whole)
from repro.core.path import Path, make_path
from repro.core.placement import ChannelAllocation, QuoteMemo, place
from repro.core.requirements import latency_bound_ns
from repro.core.slot_table import mask_to_slots, spread_slots
from repro.core.words import WordFormat
from repro.topology.graph import Topology
from repro.topology.mapping import Mapping
from repro.topology.routing import (k_shortest_paths, k_shortest_routes,
                                    merge_load_aware, weighted_shortest_path)

__all__ = ["Allocation", "AllocatorOptions", "SlotAllocator",
           "ChannelVerdict", "RebuildReport", "excluded_link_keys"]

#: Most requirements :attr:`SlotAllocator.quote_memo` keeps a
#: :class:`~repro.core.placement.QuoteMemo` for.  The key holds the raw
#: float requirement and the memo outlives every service sharing the
#: allocator, so jittered requirements would grow it without limit; the
#: oldest-inserted requirement goes first.  Far above the Section VII
#: working set (its 4 QoS classes), which therefore never evicts.
QUOTE_CACHE_CAP = 16384

#: k-shortest candidate routes considered per channel, by the offline
#: allocator, the admission quotes and degraded-mode re-allocation.
PATH_CANDIDATES = 4


def excluded_link_keys(topology: Topology,
                       failed_links=(), failed_routers=()
                       ) -> frozenset[tuple[str, str]]:
    """Normalise a failure set into the directed link keys it disables.

    A failed link disables itself; a failed router disables every link
    incident to it (so any path traversing the router, or any NI hanging
    off it, loses its route).  Unknown links or routers are configuration
    errors — a fault schedule must name real hardware.

    >>> from repro.topology.builders import mesh
    >>> topo = mesh(2, 2, nis_per_router=1)
    >>> sorted(excluded_link_keys(topo, [("r0_0", "r1_0")]))
    [('r0_0', 'r1_0')]
    >>> len(excluded_link_keys(topo, failed_routers=["r0_0"]))
    6
    """
    known = set(topology.iter_link_keys())
    excluded: set[tuple[str, str]] = set()
    for key in failed_links:
        key = (key[0], key[1])
        if key not in known:
            raise ConfigurationError(
                f"failure set names unknown link {key}")
        excluded.add(key)
    routers = set(topology.routers)
    failed_router_set = set(failed_routers)
    unknown = sorted(failed_router_set - routers)
    if unknown:
        raise ConfigurationError(
            f"failure set names unknown router(s) {unknown}")
    if failed_router_set:
        excluded.update(key for key in known
                        if key[0] in failed_router_set
                        or key[1] in failed_router_set)
    return frozenset(excluded)


@dataclass(frozen=True)
class ChannelVerdict:
    """How one channel fared through a degraded-mode re-allocation.

    ``verdict`` is one of:

    * ``"unaffected"`` — the channel's path touches no failed resource;
      its reservations are carried over bit-identically;
    * ``"rerouted_same_bounds"`` — rerouted over surviving links with a
      worst-case latency bound and guaranteed throughput no worse than
      before the fault;
    * ``"rerouted_degraded"`` — rerouted, still meeting the channel's
      stated requirements, but with weaker bounds than pre-fault;
    * ``"dropped"`` — no surviving route can carry the channel.
    """

    channel: str
    verdict: str
    reason: str = ""
    old_latency_ns: float | None = None
    new_latency_ns: float | None = None
    old_n_slots: int | None = None
    new_n_slots: int | None = None

    def to_record(self) -> dict[str, object]:
        """Deterministic JSON-ready form."""
        return {
            "channel": self.channel,
            "verdict": self.verdict,
            "reason": self.reason,
            "old_latency_ns": (None if self.old_latency_ns is None
                               else round(self.old_latency_ns, 3)),
            "new_latency_ns": (None if self.new_latency_ns is None
                               else round(self.new_latency_ns, 3)),
            "old_n_slots": self.old_n_slots,
            "new_n_slots": self.new_n_slots,
        }


@dataclass
class RebuildReport:
    """Outcome of one :meth:`Allocation.rebuild_excluding` call.

    ``allocation`` is the degraded-mode allocation: untouched channels
    keep their exact :class:`ChannelAllocation` objects (the composability
    invariant, re-checked and reported as ``untouched_intact``); affected
    channels are rerouted over surviving paths or dropped, per
    ``verdicts``.
    """

    allocation: "Allocation"
    verdicts: dict[str, ChannelVerdict]
    excluded_links: frozenset[tuple[str, str]]
    failed_routers: tuple[str, ...]
    untouched_intact: bool

    def count(self, verdict: str) -> int:
        """Channels that ended with ``verdict``."""
        return sum(1 for v in self.verdicts.values()
                   if v.verdict == verdict)

    @property
    def n_affected(self) -> int:
        """Channels whose pre-fault path touched a failed resource."""
        return sum(1 for v in self.verdicts.values()
                   if v.verdict != "unaffected")

    @property
    def guarantee_retention(self) -> float:
        """Fraction of affected channels rerouted with unchanged bounds.

        1.0 when the failure touched no channel at all.
        """
        affected = self.n_affected
        if not affected:
            return 1.0
        return self.count("rerouted_same_bounds") / affected

    @property
    def survival_rate(self) -> float:
        """Fraction of affected channels that kept *any* allocation."""
        affected = self.n_affected
        if not affected:
            return 1.0
        return 1.0 - self.count("dropped") / affected

    def to_record(self) -> dict[str, object]:
        """Deterministic JSON-ready form (verdicts sorted by channel)."""
        return {
            "excluded_links": [list(key)
                               for key in sorted(self.excluded_links)],
            "failed_routers": list(self.failed_routers),
            "n_channels": len(self.verdicts),
            "n_affected": self.n_affected,
            "n_unaffected": self.count("unaffected"),
            "n_rerouted_same_bounds": self.count("rerouted_same_bounds"),
            "n_rerouted_degraded": self.count("rerouted_degraded"),
            "n_dropped": self.count("dropped"),
            "guarantee_retention": round(self.guarantee_retention, 4),
            "survival_rate": round(self.survival_rate, 4),
            "untouched_intact": self.untouched_intact,
            "verdicts": [self.verdicts[name].to_record()
                         for name in sorted(self.verdicts)],
        }


@dataclass
class Allocation:
    """A complete, validated set of channel allocations.

    ``channels`` is the one record of who holds what: NI injection
    tables are derived from it and every holder's name is read off it
    (:meth:`holder_of`).  ``link_masks`` — per topology link, the OR of
    the channels' :attr:`ChannelAllocation.link_occupancy` masks (bit
    ``s`` set = slot ``s`` taken) — is the only index derived from it,
    kept in step by :meth:`commit` and :meth:`release` and held to it by
    :meth:`validate`.
    """

    topology: Topology
    table_size: int
    frequency_hz: float
    fmt: WordFormat
    channels: dict[str, ChannelAllocation] = field(
        default_factory=dict, init=False)
    link_masks: dict[tuple[str, str], int] = field(init=False)
    #: XOR of every held channel's :attr:`ChannelAllocation.fingerprint`
    #: — order-independent, folded by :meth:`commit` and :meth:`release`
    #: (the only two writers of ``channels``), so a checker that folds
    #: the one session it expects to change can tell in O(1) whether
    #: any *other* session was added, dropped or replaced.
    channels_digest: int = field(init=False, repr=False, compare=False)
    #: Currently failed fabric and the directed link keys it disables.
    #: Written only by :meth:`set_failed`; every placement on this
    #: allocation — offline extension, online admission, relocation —
    #: reads ``excluded_links`` here, so an allocator shared between
    #: allocations carries no fault state.  Empty on a healthy network,
    #: which pays one emptiness check.
    failed_links: frozenset[tuple[str, str]] = field(
        default=frozenset(), init=False)
    failed_routers: frozenset[str] = field(default=frozenset(), init=False)
    excluded_links: frozenset[tuple[str, str]] = field(
        default=frozenset(), init=False)

    def __post_init__(self) -> None:
        self.table_size = require_whole("table_size", self.table_size, 1)
        self.link_masks = dict.fromkeys(self.topology.iter_link_keys(), 0)
        self.channels_digest = 0

    # -- queries ------------------------------------------------------------

    def channel(self, name: str) -> ChannelAllocation:
        """Allocation of one channel by name."""
        try:
            return self.channels[name]
        except KeyError:
            raise AllocationError(f"channel {name!r} is not allocated",
                                  channel=name)

    def channels_from_ni(self, ni: str) -> tuple[ChannelAllocation, ...]:
        """All channels injecting at ``ni``, sorted by name."""
        return tuple(sorted(
            (ca for ca in self.channels.values() if ca.path.source == ni),
            key=lambda ca: ca.spec.name))

    def channels_to_ni(self, ni: str) -> tuple[ChannelAllocation, ...]:
        """All channels delivering to ``ni``, sorted by name."""
        return tuple(sorted(
            (ca for ca in self.channels.values() if ca.path.dest == ni),
            key=lambda ca: ca.spec.name))

    def ni_injection_table(self, ni: str) -> tuple[str | None, ...]:
        """The TDM table programmed into NI ``ni``: per injection slot,
        the name of the channel that injects in it, or ``None``.

        Read off the channel records, as :meth:`holder_of` reads a
        link's holders.  Refuses a name that is no NI of the topology,
        and a slot two of the NI's channels both claim (which
        :meth:`commit` never lets happen).

        >>> from repro.topology.builders import mesh
        >>> from repro.core.path import make_path
        >>> topo = mesh(1, 1, nis_per_router=2)
        >>> allocation = Allocation(topo, 4, 500e6, WordFormat())
        >>> allocation.commit(ChannelAllocation(
        ...     ChannelSpec("c", "a", "b", 1.0),
        ...     make_path(topo, "ni0_0_0", ["r0_0"], "ni0_0_1"), (1, 3), 4))
        >>> allocation.ni_injection_table("ni0_0_0")
        (None, 'c', None, 'c')
        """
        if ni not in self.topology.nis:
            raise ConfigurationError(
                f"no NI {ni!r} in topology {self.topology.name!r}")
        row: list[str | None] = [None] * self.table_size
        for ca in self.channels_from_ni(ni):
            name = ca.spec.name
            for slot in ca.slots:
                if row[slot] is not None:
                    raise AllocationError(
                        f"NI {ni!r} slot {slot} is claimed by both "
                        f"{row[slot]!r} and {name!r}",
                        channel=name, reason="slot conflict")
                row[slot] = name
        return tuple(row)

    @staticmethod
    def holder_of(channels, key: tuple[str, str], mask: int
                  ) -> tuple[int, str | None]:
        """The lowest slot of ``mask`` and the name of the first of
        ``channels`` whose flits cross link ``key`` in it (``None`` if
        none does): the one place a holder's name is read, off the
        channel records — a link mask names nobody.

        >>> from repro.topology.builders import mesh
        >>> from repro.core.path import make_path
        >>> topo = mesh(1, 1, nis_per_router=2)
        >>> ca = ChannelAllocation(
        ...     ChannelSpec("c", "a", "b", 1.0),
        ...     make_path(topo, "ni0_0_0", ["r0_0"], "ni0_0_1"), (1,), 8)
        >>> Allocation.holder_of([ca], ("r0_0", "ni0_0_1"), 0b1100)
        (2, 'c')
        """
        slot = (mask & -mask).bit_length() - 1
        for ca in channels:
            for link, held in ca.link_occupancy:
                if link == key and held >> slot & 1:
                    return slot, ca.spec.name
        return slot, None

    def link_utilisation(self) -> dict[tuple[str, str], float]:
        """Reserved-slot fraction per link."""
        size = self.table_size
        return {key: mask.bit_count() / size
                for key, mask in self.link_masks.items()}

    def mean_link_utilisation(self) -> float:
        """Average reserved fraction over all links."""
        utils = self.link_utilisation()
        return sum(utils.values()) / len(utils) if utils else 0.0

    def applications(self) -> tuple[str, ...]:
        """All application names with allocated channels, sorted."""
        return tuple(sorted({ca.spec.application
                             for ca in self.channels.values()}))

    # -- mutation (incremental reconfiguration) -------------------------------

    def commit(self, ca: ChannelAllocation) -> None:
        """Add one channel's reservations, or raise on the first link
        (in route order) that is unknown or has a slot another channel
        holds, naming the lowest such slot — checked on every link
        before any is written, so a refused commit leaves every mask as
        it was.  A record placed in a table of another size is refused
        first."""
        name = ca.spec.name
        if name in self.channels:
            raise AllocationError(f"channel {name!r} is already allocated",
                                  channel=name)
        if ca.table_size != self.table_size:
            raise ConfigurationError(
                f"channel {name!r} was placed in a table of size "
                f"{ca.table_size}, this allocation's has {self.table_size}")
        occupancy = ca.link_occupancy
        masks = self.link_masks
        for key, mask in occupancy:
            held = masks.get(key)
            if held is None:
                raise AllocationError(f"unknown link {key} in allocation")
            if held & mask:
                slot, holder = self.holder_of(self.channels.values(), key,
                                              held & mask)
                raise AllocationError(
                    f"slot {slot} already reserved by {holder!r}",
                    channel=name, reason="slot conflict")
        for key, mask in occupancy:
            masks[key] |= mask
        self.channels[name] = ca
        self.channels_digest ^= ca.fingerprint

    def release(self, channel_name: str) -> ChannelAllocation:
        """Remove one channel, freeing its slots on every link."""
        ca = self.channel(channel_name)
        masks = self.link_masks
        for key, mask in ca.link_occupancy:
            masks[key] &= ~mask
        del self.channels[channel_name]
        self.channels_digest ^= ca.fingerprint
        return ca

    def release_application(self, application: str) -> tuple[str, ...]:
        """Remove all channels of one application (use-case transition)."""
        names = tuple(sorted(
            name for name, ca in self.channels.items()
            if ca.spec.application == application))
        for name in names:
            self.release(name)
        return names

    # -- failed fabric ---------------------------------------------------------

    def fabric_after(self, action: str, links=(), routers=()
                     ) -> tuple[frozenset[tuple[str, str]], frozenset[str]]:
        """The failed ``(links, routers)`` once the named fabric has
        failed (``action="fail"``) or been repaired (``"repair"``).

        Writes nothing: hand the result to :meth:`set_failed`, or to
        :meth:`rebuild_excluding` to try the failure out first.
        """
        merge = (frozenset.union if action == "fail"
                 else frozenset.difference)
        return (merge(self.failed_links, ((k[0], k[1]) for k in links)),
                merge(self.failed_routers, routers))

    def set_failed(self, failed_links=(), failed_routers=()
                   ) -> frozenset[tuple[str, str]]:
        """Declare exactly this fabric failed; returns the link keys
        that disables (:func:`excluded_link_keys`, which refuses unknown
        hardware before anything is written).

        Channels already placed stay where they are — relocating them is
        the caller's move (:meth:`rebuild_excluding` offline, the
        session service online).
        """
        links = frozenset((k[0], k[1]) for k in failed_links)
        routers = frozenset(failed_routers)
        self.excluded_links = excluded_link_keys(self.topology, links,
                                                 routers)
        self.failed_links, self.failed_routers = links, routers
        return self.excluded_links

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Re-derive all link occupancy from scratch and compare.

        Raises :class:`AllocationError` on any contention (two channels on
        one link-slot) or bookkeeping divergence.  This is the programmatic
        statement of the paper's contention-free routing invariant.

        One pass over the channels' link masks settles a consistent
        allocation (:meth:`_masks_agree`); only when it disagrees does
        the per-slot re-derivation run, as the diagnostic that names
        the link and slot — and as the oracle the pass is held to.
        """
        if not self._masks_agree():
            self._derive_per_slot()

    def _masks_agree(self) -> bool:
        """True when the link masks hold exactly what the channels
        derive: the masks cover the topology's links, no two channels'
        masks overlap on a link, and each link's mask is the OR of
        theirs.  Implies that :meth:`_derive_per_slot` passes."""
        union = dict.fromkeys(self.topology.iter_link_keys(), 0)
        for ca in self.channels.values():
            for key, mask in ca.link_occupancy:
                held = union.get(key)
                if held is None or held & mask:
                    return False
                union[key] = held | mask
        return union == self.link_masks

    def _derive_per_slot(self) -> None:
        """:meth:`validate`'s diagnostic: every link-slot re-derived into
        an owner map and compared with the link masks."""
        fresh: dict[tuple[str, str], dict[int, str]] = {
            key: {} for key in self.topology.iter_link_keys()}
        for ca in self.channels.values():
            name = ca.spec.name
            for key, mask in ca.link_occupancy:
                owners = fresh.get(key)
                if owners is None:
                    raise AllocationError(
                        f"channel {name!r} uses unknown link {key}",
                        channel=name)
                for slot in mask_to_slots(mask):
                    holder = owners.get(slot)
                    if holder is not None:
                        raise AllocationError(
                            f"contention on link {key} slot {slot}: "
                            f"{holder!r} vs {name!r}",
                            channel=name, reason="slot contention")
                    owners[slot] = name
        if self.link_masks.keys() != fresh.keys():
            raise AllocationError(
                f"occupancy bookkeeping covers {len(self.link_masks)} "
                f"links, the topology has {len(fresh)}")
        for key, owners in fresh.items():
            recorded = dict(self.holder_of(self.channels.values(), key,
                                           1 << s)
                            for s in mask_to_slots(self.link_masks[key]))
            if recorded != owners:
                raise AllocationError(
                    f"occupancy bookkeeping diverged on link {key}: "
                    f"recorded {recorded}, derived {owners}")

    # -- degraded-mode re-allocation ------------------------------------------

    def rebuild_excluding(self, failed_links=(),
                          failed_routers=()) -> RebuildReport:
        """Guarantee-preserving re-allocation around failed resources.

        Builds a *new* allocation in which every channel whose path avoids
        the failed links/routers keeps its exact reservations (same
        :class:`ChannelAllocation` object — the composability invariant
        under degradation), and every affected channel is re-allocated
        over surviving k-shortest paths, hardest-first.  ``self`` is
        never mutated.

        Per-channel outcomes are reported as :class:`ChannelVerdict`\\ s:
        ``rerouted_same_bounds`` (bounds no worse than pre-fault),
        ``rerouted_degraded`` (requirements still met, bounds weaker), or
        ``dropped`` (its ``reason`` carries the per-candidate failures).

        A zero-failure call reproduces the allocation exactly: every
        channel is ``unaffected`` and the rebuilt occupancy is
        byte-identical to the original.
        """
        rebuilt = Allocation(self.topology, self.table_size,
                             self.frequency_hz, self.fmt)
        excluded = rebuilt.set_failed(failed_links, failed_routers)
        verdicts: dict[str, ChannelVerdict] = {}
        affected: list[ChannelAllocation] = []
        for name, ca in sorted(self.channels.items()):
            if excluded and not excluded.isdisjoint(ca.path.link_keys()):
                affected.append(ca)
            else:
                try:
                    rebuilt.commit(ca)
                except AllocationError as exc:
                    raise AllocationError(
                        f"re-allocation bookkeeping failed while carrying "
                        f"over unaffected channel {name!r}: {exc}",
                        channel=name, reason=exc.reason) from exc
                verdicts[name] = ChannelVerdict(
                    channel=name, verdict="unaffected",
                    old_latency_ns=self._latency_bound(ca),
                    new_latency_ns=self._latency_bound(ca),
                    old_n_slots=ca.n_slots, new_n_slots=ca.n_slots)
        # Hardest first, mirroring the offline allocator: most slots
        # held pre-fault, then tightest latency requirement, then name.
        affected.sort(key=lambda ca: (
            -ca.n_slots,
            ca.spec.max_latency_ns if ca.spec.max_latency_ns is not None
            else float("inf"),
            ca.spec.name))
        for ca in affected:
            verdicts[ca.spec.name] = self._reroute_one(rebuilt, ca)
        rebuilt.validate()
        # Composability re-check for untouched channels: every (link,
        # slot) reservation they held before the fault must be set in
        # the rebuilt link masks — read off the masks, not the
        # carried-over objects, so bookkeeping corruption would
        # actually trip it.
        masks = rebuilt.link_masks
        untouched_intact = all(
            (masks.get(key, 0) & mask) == mask
            for name, v in verdicts.items() if v.verdict == "unaffected"
            for key, mask in self.channels[name].link_occupancy)
        return RebuildReport(
            allocation=rebuilt, verdicts=verdicts,
            excluded_links=excluded,
            failed_routers=tuple(sorted(rebuilt.failed_routers)),
            untouched_intact=untouched_intact)

    def _latency_bound(self, ca: ChannelAllocation) -> float:
        """Worst-case latency bound of one channel at this operating
        point (injection wait plus path traversal, in nanoseconds)."""
        return latency_bound_ns(ca.worst_wait_slots(),
                                ca.path, self.frequency_hz, self.fmt)

    def _reroute_one(self, rebuilt: "Allocation",
                     ca: ChannelAllocation) -> ChannelVerdict:
        """Re-allocate one fault-affected channel over surviving paths."""
        spec = ca.spec
        excluded = rebuilt.excluded_links
        old_latency = self._latency_bound(ca)
        placed = None
        failures: list[str] = []
        try:
            paths = [
                p for p in k_shortest_paths(
                    self.topology, ca.path.source, ca.path.dest,
                    PATH_CANDIDATES, exclude_links=excluded)
                if len(p.routers) <= self.fmt.max_hops]
        except TopologyError as exc:
            failures.append(str(exc))
        else:
            placed = place(rebuilt.link_masks, spec, paths,
                           QuoteMemo(spec, self), spread_slots,
                           self.table_size, failures)
        if placed is not None:
            new_ca, _ = placed
            try:
                rebuilt.commit(new_ca)
            except AllocationError as exc:
                raise AllocationError(
                    f"re-allocation commit failed for channel "
                    f"{spec.name!r} on {new_ca.path!r}: {exc}",
                    channel=spec.name, reason=exc.reason) from exc
            return ChannelVerdict(
                channel=spec.name,
                verdict=("rerouted_same_bounds"
                         if new_ca.no_worse_than(ca)
                         else "rerouted_degraded"),
                old_latency_ns=old_latency,
                new_latency_ns=self._latency_bound(new_ca),
                old_n_slots=ca.n_slots, new_n_slots=new_ca.n_slots)
        detail = "; ".join(failures) if failures else "no surviving route"
        return ChannelVerdict(
            channel=spec.name, verdict="dropped", reason=detail,
            old_latency_ns=old_latency, old_n_slots=ca.n_slots)

    def __repr__(self) -> str:
        return (f"Allocation({len(self.channels)} channels, "
                f"table={self.table_size}, "
                f"util={self.mean_link_utilisation():.1%})")


@dataclass(frozen=True)
class AllocatorOptions:
    """Tunables of the greedy allocator (all deterministic).

    Attributes
    ----------
    order:
        Channel processing order: ``"tightness"`` (hardest first — most
        slots, then tightest latency), ``"throughput"`` (highest bandwidth
        first), or ``"input"`` (caller-supplied order, for ablations).
    """

    order: str = "tightness"

    def __post_init__(self) -> None:
        if self.order not in ("tightness", "throughput", "input"):
            raise ConfigurationError(f"unknown order {self.order!r}")


class SlotAllocator:
    """Greedy contention-free slot allocator over a fixed topology."""

    def __init__(self, topology: Topology, *, table_size: int,
                 frequency_hz: float, fmt: WordFormat | None = None,
                 options: AllocatorOptions | None = None):
        table_size = require_whole("table_size", table_size, 1)
        require_finite_positive("frequency_hz", frequency_hz)
        topology.validate()
        self.topology = topology
        self._topology_revision = topology.revision
        self.table_size = table_size
        self.frequency_hz = frequency_hz
        self.fmt = fmt or WordFormat()
        self.options = options or AllocatorOptions()
        # Route candidates are a function of (src, dst) alone for a fixed
        # topology and header format — one search per router pair,
        # attached to its NIs once per NI pair — so they are kept with the
        # topology's geometry of this revision and every allocator built
        # over it, at any operating point, finds them there.  A quote
        # depends on a route only through its traversal time, so quotes
        # are kept per (throughput, latency) requirement at this
        # allocator's operating point — one memo per QoS class in the
        # admission service, at most QUOTE_CACHE_CAP of them.
        geometry = topology.geometry()
        self._kroute_cache: dict[tuple[str, str],
                                 tuple[tuple[str, ...], ...]] = \
            geometry.routes.setdefault(PATH_CANDIDATES, {})
        self._kpath_cache: dict[tuple[str, str], tuple[Path, ...]] = \
            geometry.paths.setdefault(
                (PATH_CANDIDATES, self.fmt.max_hops), {})
        #: (throughput, latency) -> that requirement's quotes
        self.quote_memo: dict[tuple[float, float | None], QuoteMemo] = {}
        # All three are fault-agnostic: failed fabric lives on each
        # Allocation and is applied when candidates are consulted, so
        # repairs need no invalidation and sharing leaks no faults.
        self.set_telemetry(None)

    def set_telemetry(self, telemetry) -> None:
        """(Re)bind the allocator's instrumentation hub.

        Cache hit/miss counters are resolved once per bind, so a lookup
        of an NI pair's candidates pays one cached attribute call; the
        default Null hub makes those calls no-ops.
        """
        from repro.telemetry.hub import coalesce
        tel = coalesce(telemetry)
        self.telemetry = tel
        self._tel_kpath_hit = tel.counter("allocator.kpath_cache",
                                          outcome="hit")
        self._tel_kpath_miss = tel.counter("allocator.kpath_cache",
                                           outcome="miss")
        self._tel_kshortest = tel.counter(
            "allocator.kshortest_expansions")

    # -- public API -----------------------------------------------------------

    def allocate(self, channels: Sequence[ChannelSpec],
                 mapping: Mapping) -> Allocation:
        """Allocate all ``channels``; raises on the first infeasible one."""
        allocation = Allocation(self.topology, self.table_size,
                                self.frequency_hz, self.fmt)
        self.extend(allocation, channels, mapping)
        return allocation

    def extend(self, allocation: Allocation, channels: Sequence[ChannelSpec],
               mapping: Mapping) -> None:
        """Add channels to an existing allocation without disturbing it.

        This is the reconfiguration primitive: running applications keep
        their reservations; only new channels acquire slots, and none on
        a route crossing the allocation's failed fabric.
        """
        self.check_compatible(allocation)
        mapping.validate(self.topology)
        for spec in self._ordered(channels, mapping,
                                  allocation.excluded_links):
            allocation.commit(self._allocate_one(allocation, spec, mapping))
        allocation.validate()

    def check_compatible(self, allocation: Allocation) -> None:
        """Raise :class:`ConfigurationError` unless ``allocation`` was
        built for this allocator's topology object and operating point
        (table size, frequency, word format), and that topology is still
        as the allocator found it.

        Cached routes name links of its topology, with the slot shifts
        those links had when the route was searched, and quotes meet a
        requirement at the allocator's table size, frequency and word
        format, so both are only meaningful against such an
        allocation.
        """
        for attr, what in (("table_size", "table size"),
                           ("frequency_hz", "frequency"),
                           ("fmt", "word format")):
            theirs, ours = getattr(allocation, attr), getattr(self, attr)
            if theirs != ours:
                raise ConfigurationError(
                    f"allocation {what} {theirs!r} != allocator {what} "
                    f"{ours!r}")
        if allocation.topology is not self.topology:
            raise ConfigurationError(
                "allocation was built for a different topology object")
        if self.topology.revision != self._topology_revision:
            raise ConfigurationError(
                f"topology {self.topology.name!r} was modified after this "
                "allocator was built; its cached routes describe the old "
                "fabric — build a new SlotAllocator")

    # -- internals --------------------------------------------------------------

    def _ordered(self, channels: Sequence[ChannelSpec], mapping: Mapping,
                 excluded: frozenset[tuple[str, str]]
                 ) -> list[ChannelSpec]:
        seen: set[str] = set()
        for spec in channels:
            if spec.name in seen:
                raise ConfigurationError(
                    f"duplicate channel name {spec.name!r}")
            seen.add(spec.name)
        if self.options.order == "input":
            return list(channels)
        if self.options.order == "throughput":
            return sorted(channels,
                          key=lambda c: (-c.throughput_bytes_per_s, c.name))

        def tightness(spec: ChannelSpec) -> tuple[float, float, str]:
            # Hardest first: estimate slots on a shortest path, then the
            # latency requirement (tighter = smaller), then name.
            quote = self.route_quotes(spec).quote(
                self._candidates(spec, mapping, excluded)[0])
            if isinstance(quote, str):
                # Let _allocate_one produce the detailed error.
                return (-float("inf"), 0.0, spec.name)
            n_slots, max_gap = quote
            gap_rank = (float(max_gap) if max_gap is not None
                        else float("inf"))
            return (-float(n_slots), gap_rank, spec.name)

        return sorted(channels, key=tightness)

    def shortest_candidates(self, src_ni: str, dst_ni: str
                            ) -> tuple[Path, ...]:
        """Cached k-shortest candidate routes (header-encodable only).

        Load-agnostic, so the result depends on the topology alone and is
        memoised with it, for as long as its structure stands.  May be
        empty when no route fits in the header's hop budget.
        """
        key = (src_ni, dst_ni)
        cached = self._kpath_cache.get(key)
        if cached is None:
            topo = self.topology
            routers = (topo.attached_router(src_ni),
                       topo.attached_router(dst_ni))
            routes = self._kroute_cache.get(routers)
            if routes is None:
                # Tuples, so every NI pair's path over a route shares
                # the route's router sequence.
                routes = self._kroute_cache[routers] = tuple(map(
                    tuple, k_shortest_routes(topo, *routers,
                                             PATH_CANDIDATES)))
                self._tel_kshortest.inc()
            paths = (make_path(topo, src_ni, route, dst_ni)
                     for route in routes)
            cached = tuple(p for p in paths
                           if len(p.routers) <= self.fmt.max_hops)
            self._kpath_cache[key] = cached
            self._tel_kpath_miss.inc()
        else:
            self._tel_kpath_hit.inc()
        return cached

    def route_quotes(self, spec: ChannelSpec) -> QuoteMemo:
        """The :class:`~repro.core.placement.QuoteMemo` of ``spec``'s
        (throughput, latency) requirement, made empty on first request.

        Slot counts and gap constraints depend on neither occupancy nor
        endpoints, so every channel of one requirement — on any NI
        pair, in any service sharing this allocator — reads one memo,
        and a route is quoted when a placement first reaches a route of
        its traversal time.  At most :data:`QUOTE_CACHE_CAP`
        requirements are kept, oldest-inserted evicted first.
        """
        key = (spec.throughput_bytes_per_s, spec.max_latency_ns)
        memo = self.quote_memo
        quotes = memo.get(key)
        if quotes is None:
            if len(memo) >= QUOTE_CACHE_CAP:
                del memo[next(iter(memo))]
            quotes = memo[key] = QuoteMemo(spec, self)
        return quotes

    def _candidates(self, spec: ChannelSpec, mapping: Mapping,
                    excluded: frozenset[tuple[str, str]],
                    masks: dict[tuple[str, str], int] | None = None
                    ) -> list[Path]:
        """Candidate routes of ``spec`` that avoid ``excluded``: the
        cached k-shortest set, led — given occupancy ``masks`` — by the
        least-loaded route."""
        src_ni = mapping.ni_of(spec.src_ip)
        dst_ni = mapping.ni_of(spec.dst_ip)
        if src_ni == dst_ni:
            raise ConfigurationError(
                f"channel {spec.name!r}: both endpoints map to NI "
                f"{src_ni!r}; NI-local communication does not use the NoC")
        cached = self.shortest_candidates(src_ni, dst_ni)
        usable = [p for p in cached
                  if not excluded or excluded.isdisjoint(p.link_keys())]
        exclusion_filtered = len(usable) < len(cached)
        if masks is not None:
            size = self.table_size

            def weight(key: tuple[str, str]) -> float:
                if key in excluded:
                    return 1e9  # failed fabric: effectively unroutable
                return 4.0 * (masks[key].bit_count() / size)

            weighted = weighted_shortest_path(self.topology, src_ni, dst_ni,
                                              weight)
            if len(weighted.routers) <= self.fmt.max_hops and \
                    (not excluded
                     or excluded.isdisjoint(weighted.link_keys())):
                merge_load_aware(usable, weighted)
        if not usable:
            if exclusion_filtered:
                raise AllocationError(
                    f"channel {spec.name!r}: no route from {src_ni!r} "
                    f"to {dst_ni!r} avoids the failed fabric",
                    channel=spec.name,
                    reason="no surviving route avoids failed fabric")
            raise AllocationError(
                f"channel {spec.name!r}: no route from {src_ni!r} to "
                f"{dst_ni!r} fits in {self.fmt.max_hops} header hops",
                channel=spec.name, reason="path too long for header")
        return usable

    def _allocate_one(self, allocation: Allocation, spec: ChannelSpec,
                      mapping: Mapping) -> ChannelAllocation:
        failures: list[str] = []
        paths = self._candidates(spec, mapping, allocation.excluded_links,
                                 allocation.link_masks)
        placed = place(allocation.link_masks, spec, paths,
                       self.route_quotes(spec), spread_slots,
                       self.table_size, failures)
        if placed is not None:
            return placed[0]
        detail = "; ".join(failures) if failures else "no candidate paths"
        raise AllocationError(
            f"cannot allocate channel {spec.name!r} "
            f"({spec.throughput_bytes_per_s / 1e6:.3g} MB/s, "
            f"latency {spec.max_latency_ns} ns): {detail}",
            channel=spec.name, reason=detail)
