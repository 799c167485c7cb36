"""Error hierarchy for the aelite reproduction.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch a single base class.  Errors carry enough structured context (channel
names, link identities, slot numbers) to make allocation and simulation
failures diagnosable without re-running with a debugger.
"""

from __future__ import annotations

import math
import operator


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An inconsistent or unsupported configuration was supplied.

    Raised for structural problems detected before any allocation or
    simulation starts: unknown nodes, mismatched port counts, slot-table
    sizes that do not match between NIs, header formats too small for the
    requested path length, and similar.
    """


def require_finite_positive(name: str, value: float) -> None:
    """Reject a numeric input that is zero, negative, NaN or infinite,
    and anything that is not a number — ``True`` included.

    ``value <= 0`` alone lets ``nan`` and ``inf`` through, and those
    surface later as a NaN timestamp, a crashed worker or a multi-GiB
    allocation; a bool would run as 1.  Every public numeric boundary
    calls this instead.

    >>> require_finite_positive("rate", 2.5)
    >>> for bad in (float("nan"), True, "5"):
    ...     try:
    ...         require_finite_positive("rate", bad)
    ...     except ConfigurationError as exc:
    ...         print(exc)
    rate must be a finite positive number, got nan
    rate must be a finite positive number, got True
    rate must be a finite positive number, got '5'
    """
    try:
        valid = not isinstance(value, bool) and math.isfinite(value) and \
            value > 0
    except TypeError:  # not a number
        valid = False
    if not valid:
        raise ConfigurationError(
            f"{name} must be a finite positive number, got {value!r}")


def require_whole(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, refusing a fraction, NaN, an infinity, a
    bool, anything that is not a number or anything below ``minimum``.

    A count that arrives as ``2.5`` or ``nan`` otherwise surfaces far
    from the caller: as a ``TypeError`` from ``range``, an ``int64``
    executor disagreeing with a scalar one that kept the fraction, or a
    comparison that NaN quietly passes; ``True`` would count as 1.

    >>> require_whole("period_cycles", 40.0, 1)
    40
    >>> for bad in (7.5, True, None):
    ...     try:
    ...         require_whole("period_cycles", bad, 1)
    ...     except ConfigurationError as exc:
    ...         print(exc)
    period_cycles must be a whole number >= 1, got 7.5
    period_cycles must be a whole number >= 1, got True
    period_cycles must be a whole number >= 1, got None
    """
    try:
        whole = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        whole = int(value) if isinstance(value, float) and \
            value.is_integer() else None
    if whole is None:
        raise ConfigurationError(
            f"{name} must be a whole number >= {minimum}, got {value!r}")
    if whole < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, "
                                 f"got {value!r}")
    return whole


class TopologyError(ConfigurationError):
    """The topology graph is malformed (dangling link, duplicate port, ...)."""


class HeaderFormatError(ConfigurationError):
    """A packet header cannot encode the requested path or field value."""


class AllocationError(ReproError):
    """The TDM slot allocator could not satisfy a set of requirements.

    Attributes
    ----------
    channel:
        Name of the first channel that could not be allocated, or ``None``
        when the failure is not attributable to a single channel.
    reason:
        Human-readable explanation (no free slots, no path, latency
        infeasible, ...).
    """

    def __init__(self, message: str, *, channel: str | None = None,
                 reason: str = ""):
        super().__init__(message)
        self.channel = channel
        self.reason = reason or message


class SimulationError(ReproError):
    """An invariant was violated while simulating the network.

    The cycle-accurate models raise this for conditions that correspond to
    hardware failures: two valid flits contending for one output port,
    a bi-synchronous FIFO overflowing, or a flit arriving outside its
    assigned slot.  A passing simulation is therefore also an invariant
    check.
    """


class DeadlockError(SimulationError):
    """The asynchronous wrapper network stopped making progress."""
