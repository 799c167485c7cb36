"""The per-flit oracle's run of a request, as a ``SimResult``.

``FlitLevelBackend`` runs the compiled executor only; the tests hold it
to :func:`repro.simulation.flitsim.execute`, which reads the same
lifetime table one channel incarnation at a time.  This wraps that
oracle's ``(stats, meta)`` the way the backend wraps the compiled one,
so the two results compare field for field.
"""

from __future__ import annotations

from repro.core.timeline import lifetime_boundaries, static_lifetimes
from repro.simulation.backend import SimRequest, SimResult
from repro.simulation.flitsim import execute
from repro.telemetry.hub import NULL_TELEMETRY


def oracle_run(config, request: SimRequest) -> SimResult:
    """``request`` through the per-flit oracle on ``config``: every
    allocated channel over the horizon, or the request's timeline."""
    n_slots = request.n_slots
    lifetimes = (static_lifetimes(config.allocation, n_slots)
                 if request.timeline is None
                 else request.timeline.channel_intervals())
    stats, meta = execute(config, lifetimes, n_slots, dict(request.traffic),
                          NULL_TELEMETRY)
    meta["n_epochs"] = len(lifetime_boundaries(lifetimes, n_slots))
    return SimResult(backend="flit", stats=stats, simulated_slots=n_slots,
                     frequency_hz=config.frequency_hz, fmt=config.fmt,
                     meta=meta)
