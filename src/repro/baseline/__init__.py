"""Best-effort Æthereal-style baseline used by the Section VII comparison.

The wormhole engine (:mod:`repro.baseline.be_network`) is run through
:class:`~repro.simulation.backend.BestEffortBackend`.
"""

from repro.baseline.arbitration import RoundRobinArbiter

__all__ = ["RoundRobinArbiter"]
