"""The admission hot path: cached candidates, bitmask slot search.

Admitting a session is the same contention-free allocation problem the
offline :class:`~repro.core.allocation.SlotAllocator` solves, restricted
to one channel at a time against a live allocation.  What changes is the
cost model: the offline allocator runs once per use case, the admission
controller runs per session event, so everything that does not depend on
the *current* occupancy is precomputed and cached — by the allocator,
once for every service that shares it, never per controller:

* candidate routes come from the allocator's memoised k-shortest cache
  (:meth:`~repro.core.allocation.SlotAllocator.shortest_candidates`),
  each with the keys and slot shifts of the links it traverses;
* per (throughput, latency) requirement, the slot count and
  latency-gap constraint of a route of a given traversal time are
  computed the first time a placement reaches such a route, and kept
  (the requirement's :class:`~repro.core.placement.QuoteMemo` in
  :attr:`~repro.core.allocation.SlotAllocator.quote_memo`), for every
  NI pair at once.  Most admissions place on the first route, so the
  later ones are usually never quoted.  Nothing cached names a table,
  so a fresh controller over a warm allocator starts warm;
* the per-admission work that remains is the placement loop every
  allocation shares (:func:`~repro.core.placement.place`: one
  mask lookup and one OR per link over integer occupancy bitmasks,
  a popcount) with the single-anchor spreading heuristic
  (:func:`~repro.core.slot_table.choose_slots_fast`) as its chooser,
  which reads that free-slot mask as it is and works on its bits,
  and a commit or release that is one AND and one OR (or AND-NOT) per
  link (:attr:`~repro.core.placement.ChannelAllocation.link_occupancy`).

The controller checks once, at construction, that its allocation fits
the allocator (same topology object, same table size, frequency and
word format); that is what makes every key of a candidate route
resolvable in the hot loop, and every quote valid at the allocation's
operating point.

Commits go through :meth:`Allocation.commit`, so the authoritative
bookkeeping — and its rollback-on-conflict guarantee — is shared with
the offline flow and with :class:`~repro.core.reconfiguration.
ReconfigurationManager`.

Under fault injection the controller honours its allocation's failed
fabric (:attr:`~repro.core.allocation.Allocation.excluded_links`):
candidate routes that cross it are skipped at admit time, at zero
cost to the healthy hot path (one emptiness check).  The allocator's
caches are fault-agnostic, so repairs need no invalidation.
"""

from __future__ import annotations

from repro.core.allocation import Allocation, SlotAllocator
from repro.core.connection import ChannelSpec
from repro.core.exceptions import AllocationError
from repro.core.placement import ChannelAllocation, place
from repro.core.slot_table import choose_slots_fast
from repro.telemetry.hub import coalesce

__all__ = ["AdmissionController"]

#: Bucket edges for the free-slot intersection width histogram (slots
#: surviving the per-link AND on the winning candidate).
_WIDTH_BUCKETS = (0, 1, 2, 4, 8, 16, 24, 32)


class AdmissionController:
    """Incremental contention-free admission over one live allocation.

    The allocation is fresh, at ``allocator``'s operating point; the
    allocator's topology must still be as it was built on
    (:meth:`~repro.core.allocation.SlotAllocator.check_compatible`),
    else :class:`~repro.core.exceptions.ConfigurationError` is raised
    here instead of admitting wrong slots later.
    """

    def __init__(self, allocator: SlotAllocator, *, telemetry=None):
        self.allocator = allocator
        allocation = Allocation(
            allocator.topology, allocator.table_size,
            allocator.frequency_hz, allocator.fmt)
        allocator.check_compatible(allocation)
        self.allocation = allocation
        self.admits = 0
        self.rejects = 0
        #: Why: the three causes ``admit`` tells apart; they sum to
        #: ``rejects``.
        self.rejects_no_route = 0
        self.rejects_failed_fabric = 0
        self.rejects_no_capacity = 0
        self.releases = 0
        #: Admissions whose requirement's quote memo the allocator
        #: already held / had to make (it may have been warmed by
        #: another service).
        self.path_hits = 0
        self.path_misses = 0
        # Instruments are resolved once here (the cold path), which
        # also fixes their registry order.  The hot path itself never
        # calls them: decisions/releases/cache outcomes ride the plain
        # integer tallies above and the pending width list below, and
        # :meth:`flush_telemetry` folds the deltas into the registry.
        # An integer increment is several times cheaper than even a
        # no-op instrument call, which keeps the enabled-mode overhead
        # inside the tier-2 gate (bench_telemetry_overhead.py).
        tel = coalesce(telemetry)
        self.telemetry = tel
        self._tel_collect = tel.enabled
        #: (tally attribute, the counter its deltas fold into)
        self._folds = (
            ("admits", tel.counter("admission.decisions", outcome="accept")),
            ("rejects", tel.counter("admission.decisions", outcome="reject")),
            *((f"rejects_{reason}",
               tel.counter("admission.rejects", reason=reason))
              for reason in ("no_route", "failed_fabric", "no_capacity")),
            ("releases", tel.counter("admission.releases")),
            ("path_hits", tel.counter("admission.path_cache", outcome="hit")),
            ("path_misses",
             tel.counter("admission.path_cache", outcome="miss")))
        self._tel_width = tel.histogram("admission.free_slot_width",
                                        bounds=_WIDTH_BUCKETS)
        self._pending_widths: list[int] = []
        self._flushed = dict.fromkeys((attr for attr, _ in self._folds), 0)
        tel.register_flush(self.flush_telemetry)

    # -- hot path -------------------------------------------------------------

    def admit(self, spec: ChannelSpec, src_ni: str,
              dst_ni: str) -> ChannelAllocation:
        """Admit one session channel; raises :class:`AllocationError`.

        Tries the cached candidate routes that avoid failed fabric in
        deterministic (shortest first) order; the first route whose
        free-slot intersection can satisfy both the slot count and the
        gap constraint wins and is committed atomically.  A failed
        admission commits nothing, and only then is its reason worked
        out.
        """
        allocation = self.allocation
        if spec.name in allocation.channels:
            raise AllocationError(
                f"session {spec.name!r} is already admitted",
                channel=spec.name, reason="session already admitted")
        allocator = self.allocator
        quotes = allocator.quote_memo.get(
            (spec.throughput_bytes_per_s, spec.max_latency_ns))
        if quotes is None:
            quotes = allocator.route_quotes(spec)
            self.path_misses += 1
        else:
            self.path_hits += 1
        paths = allocator.shortest_candidates(src_ni, dst_ni)
        excluded = allocation.excluded_links
        usable = paths if not excluded else [
            path for path in paths if excluded.isdisjoint(path.link_keys())]
        placed = place(allocation.link_masks, spec, usable, quotes,
                       choose_slots_fast, allocator.table_size)
        if placed is not None:
            ca, width = placed
            allocation.commit(ca)
            self.admits += 1
            if self._tel_collect:
                self._pending_widths.append(width)
            return ca
        self.rejects += 1
        # Distinguish transient capacity exhaustion (retry later may
        # succeed) from requirements no route can ever meet, and from
        # routes that could meet them but cross failed fabric.
        meeting = [path for path in paths
                   if not isinstance(quotes.quote(path), str)]
        if not meeting:
            reason = "no route can meet the requirements"
            self.rejects_no_route += 1
        elif excluded and not any(excluded.isdisjoint(path.link_keys())
                                  for path in meeting):
            reason = "every candidate route crosses failed fabric"
            self.rejects_failed_fabric += 1
        else:
            reason = "no candidate route has capacity"
            self.rejects_no_capacity += 1
        raise AllocationError(
            f"cannot admit session {spec.name!r} "
            f"({src_ni} -> {dst_ni}, "
            f"{spec.throughput_bytes_per_s / 1e6:.3g} MB/s): {reason}",
            channel=spec.name, reason=reason)

    def release(self, session_id: str) -> ChannelAllocation:
        """Release one admitted session, freeing its slots everywhere."""
        ca = self.allocation.release(session_id)
        self.releases += 1
        return ca

    def flush_telemetry(self) -> None:
        """Fold the hot-path tallies into the telemetry registry.

        Registered with :meth:`Telemetry.register_flush`, so it runs
        whenever the hub is read or exported.  Delta-based and
        therefore idempotent: calling it twice (or after more events)
        only accounts for what happened since the previous flush.
        """
        if not self._tel_collect:
            return
        flushed = self._flushed
        for attr, counter in self._folds:
            delta = getattr(self, attr) - flushed[attr]
            if delta:
                counter.inc(delta)
                flushed[attr] = getattr(self, attr)
        observe = self._tel_width.observe
        for width in self._pending_widths:
            observe(width)
        self._pending_widths.clear()
