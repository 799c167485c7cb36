"""Continuous composability checking under churn.

The paper's composability claim — starting or stopping an application
never touches another application's reservations — is proved statically
by :class:`~repro.core.reconfiguration.TransitionReport` for a single
hand-written transition.  Under churn the claim must hold for *every*
transition, so :class:`CompositionInvariantChecker` rides along with the
admission controller and asserts, after each admit/release, that every
other running session's reservations are bit-identical to what they were
before the transition.

aelite gets that property by construction at O(changed) cost, and so
does the check.  Three mechanisms at three costs:

* **every transition, O(1)**: the checker keeps its own XOR digest of
  the sessions it expects (:attr:`ChannelAllocation.fingerprint`: name,
  slot tuple, traversed links), folds in only the old and the new
  record of the one session the transition names, and compares digest
  and session count with :attr:`Allocation.channels_digest`, which
  :meth:`Allocation.commit` and :meth:`Allocation.release` fold on
  their side.  Any *other* session added, dropped or replaced through
  those two chokepoints mismatches on that very transition.  A record
  replaced by an equal one (same name, slots, route) has the same
  fingerprint and is not a false alarm;
* **on a mismatch, O(active)**: the full rescan — every expected
  record compared with the live one, identity first — runs as the
  *diagnostic* and names each disturbed or unexpected session;
* **every ``validate_every`` transitions and at the end of a run,
  O(active + reserved slots)**: the same rescan next to the full
  :meth:`Allocation.validate` re-derivation, as the *backstop*.  The
  re-derivation catches divergence between channel records and
  per-link occupancy masks; the rescan catches a write that bypassed
  ``commit``/``release`` (``allocation.channels[name] = ...``), which
  no digest can see.

Detection latency: a disturbance through ``commit``/``release`` is
reported on the transition that caused it; a chokepoint-bypassing write
at most ``validate_every`` transitions later, and always by
:meth:`CompositionInvariantChecker.final_check`.  (Two distinct session
sets sharing a 64-bit XOR of hashes is the one way the O(1) check can
miss; the backstop bounds that too.)

Violations are collected, not raised, so a run always produces a report
whose ``invariant`` section states the verdict.
"""

from __future__ import annotations

from repro.core.allocation import Allocation
from repro.core.exceptions import AllocationError, require_whole

__all__ = ["CompositionInvariantChecker"]


class CompositionInvariantChecker:
    """Asserts per-session isolation across a stream of transitions."""

    def __init__(self, allocation: Allocation, *,
                 validate_every: int = 512):
        self.allocation = allocation
        self.validate_every = require_whole("validate_every",
                                            validate_every, 1)
        self.transitions_checked = 0
        self.full_validations = 0
        self.violations: list[str] = []
        #: Plain tallies of which path the checks took (the service
        #: folds them into telemetry; never part of the report):
        #: transitions that needed the rescan — the other
        #: ``transitions_checked`` were settled by the digest alone —
        #: and the expected records every rescan, :meth:`final_check`'s
        #: included, compared.
        self.rescans = 0
        self.records_compared = 0
        self._expected = dict(allocation.channels)
        self._digest = allocation.channels_digest
        self._since_validate = 0

    @property
    def ok(self) -> bool:
        """True while no transition has disturbed a running session."""
        return not self.violations

    def check_transition(self, changed: str) -> bool:
        """Verify isolation after a transition that touched ``changed``.

        ``changed`` is the session admitted, released, or rejected; every
        other session must be exactly as recorded.  Returns whether this
        transition was clean, and updates the expected map to the
        post-transition state.

        O(1) unless something is wrong: only ``changed``'s record is
        folded into the expected digest; the rescan of every session
        runs when digest or count disagree with the allocation's, and on
        the ``validate_every`` cadence — which is also the latest a
        write that bypassed ``commit``/``release`` is reported.
        """
        self.transitions_checked += 1
        allocation = self.allocation
        expected = self._expected
        old = expected.get(changed)
        new = allocation.channels.get(changed)
        if new is not old:
            if old is not None:
                self._digest ^= old.fingerprint
            if new is not None:
                self._digest ^= new.fingerprint
                expected[changed] = new
            else:
                del expected[changed]
        self._since_validate += 1
        mismatch = (self._digest != allocation.channels_digest
                    or len(expected) != len(allocation.channels))
        boundary = self._since_validate >= self.validate_every
        if not (mismatch or boundary):
            return True
        where = f"transition on {changed!r}"
        if not mismatch:
            where = f"a write bypassing commit/release before the {where}"
        self.rescans += 1
        clean = self._rescan(where)
        if mismatch and clean:
            # Same records, different digest: a bypassing write was
            # undone through a chokepoint (or the other way round).
            clean = False
            self.violations.append(
                f"{where} found the allocation's channel digest out of "
                "step with its records")
        if boundary:
            clean = self._validate_tables() and clean
        return clean

    def final_check(self) -> dict[str, object]:
        """Run a terminal full validation and return the JSON verdict."""
        self._rescan("a write bypassing commit/release before the "
                     "final check")
        self._validate_tables()
        return {
            "ok": self.ok,
            "transitions_checked": self.transitions_checked,
            "full_validations": self.full_validations,
            "violations": list(self.violations),
        }

    def _rescan(self, where: str) -> bool:
        """Compare every expected record with the live one, by name.

        The diagnostic behind a digest mismatch and half of the backstop.
        A disturbed session stays in the expected map as it was, so it is
        reported again by every later rescan until it is restored.
        """
        self.records_compared += len(self._expected)
        actual = self.allocation.channels
        clean = True
        for name, expected_ca in self._expected.items():
            current = actual.get(name)
            if current is expected_ca:
                continue
            if (current is None
                    or current.slots != expected_ca.slots
                    or current.path.link_keys()
                    != expected_ca.path.link_keys()):
                clean = False
                self.violations.append(
                    f"{where} disturbed running session {name!r}")
        if len(actual) != len(self._expected):
            for name in actual:
                if name not in self._expected:
                    clean = False
                    self.violations.append(
                        f"{where} materialised unexpected session "
                        f"{name!r}")
        return clean

    def _validate_tables(self) -> bool:
        self._since_validate = 0
        self.full_validations += 1
        try:
            self.allocation.validate()
            return True
        except AllocationError as exc:
            self.violations.append(f"full validation failed: {exc}")
            return False
