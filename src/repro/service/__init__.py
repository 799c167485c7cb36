"""Online NoC control plane: admission-controlled session churn.

The static design flow (:mod:`repro.core`) answers "can this use case be
allocated?" once; this package answers it continuously, for a stream of
millions of user sessions opening and closing against a live network:

* :mod:`repro.service.qos` — per-class session requirements;
* :mod:`repro.service.churn` — seeded Poisson/heavy-tail workloads,
  optionally tagged with a multi-tenant mix;
* :mod:`repro.service.fairness` — the multi-tenant admission policy
  tier: weighted-fair queueing over virtual service credits, windowed
  per-tenant/per-app throttling and QoS-class-aware overload shedding
  with guaranteed per-tenant floors (``policy="wfq"``);
* :mod:`repro.service.admission` — the bitmask + candidate-cache
  admission hot path over the existing contention-free allocator;
* :mod:`repro.service.invariants` — the paper's composability claim
  re-checked after every transition;
* :mod:`repro.service.metrics` — per-event records, windowed time
  series, deterministic JSON reports;
* :mod:`repro.service.controller` — the event loop tying it together,
  including fabric :class:`~repro.faults.model.FaultEvent` handling
  (fault-hit sessions are force-released and re-admitted over
  surviving routes, scored against their original quotes);
* :mod:`repro.service.fairness_demo` — the wfq vs FCFS vs solo
  comparison behind ``mode="fairness"`` scenarios.

Churn scenarios also run inside :mod:`repro.campaign` grids (scenario
``mode="serve"``), sweeping topology × arrival rate × session mix ×
seed like any simulation scenario; ``python -m repro serve --demo``
(``--policy wfq``) runs the one-scenario ``serve_demo``
(``fairness_demo``) preset.
"""

from repro.service.admission import AdmissionController
from repro.service.churn import (ChurnSpec, ChurnWorkload, SessionEvent,
                                 SessionRequest)
from repro.service.controller import SessionService, merge_events
from repro.service.fairness import (FairnessSpec, PolicyEvent, TenantSpec,
                                    WeightedFairScheduler,
                                    abusive_tenant_mix, shed_rank,
                                    tenant_events)
from repro.service.invariants import CompositionInvariantChecker
from repro.service.metrics import ServiceMetrics, ServiceReport
from repro.service.qos import DEFAULT_CLASSES, QosClass, class_by_name

__all__ = [
    "QosClass", "DEFAULT_CLASSES", "class_by_name",
    "ChurnSpec", "ChurnWorkload", "SessionRequest", "SessionEvent",
    "TenantSpec", "FairnessSpec", "PolicyEvent", "WeightedFairScheduler",
    "abusive_tenant_mix", "shed_rank", "tenant_events",
    "AdmissionController", "CompositionInvariantChecker",
    "ServiceMetrics", "ServiceReport", "SessionService", "merge_events",
]
