"""Arbiters for the best-effort baseline router.

aelite needs no arbiter at all — that is its point.  The Æthereal
combined GS+BE router the paper compares against arbitrates BE packets
per output port with round-robin among requesting inputs; this module
provides that.  It takes the requesting indices in ascending order — the
form the wormhole loop collects them in — and grants one of them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exceptions import ConfigurationError, require_whole

__all__ = ["RoundRobinArbiter"]


class RoundRobinArbiter:
    """Classic rotating-priority arbiter.

    :meth:`grant` picks the first requesting index at or after the
    rotating pointer, wrapping round; the pointer then moves past the
    winner, giving every requester a bounded wait of one full rotation.
    """

    def __init__(self, n_requesters: int):
        refused = ConfigurationError(
            f"arbiter needs a whole number >= 1 of requesters, got "
            f"{n_requesters!r}")
        if isinstance(n_requesters, float):  # a port count: not even 2.0
            raise refused
        try:
            self.n = require_whole("n_requesters", n_requesters, 1)
        except ConfigurationError:
            raise refused from None
        self._pointer = 0

    def grant(self, requests: Sequence[int]) -> int | None:
        """Return the granted index, or ``None`` when nobody requests.

        ``requests`` lists the requesting indices in ascending order, so
        its ends bound every index.
        """
        if not requests:
            return None
        if requests[0] < 0 or requests[-1] >= self.n:
            bad = requests[0] if requests[0] < 0 else requests[-1]
            raise ConfigurationError(
                f"request index {bad} outside {self.n} requesters")
        pointer = self._pointer
        for index in requests:
            if index >= pointer:
                break
        else:
            index = requests[0]
        self._pointer = (index + 1) % self.n
        return index
