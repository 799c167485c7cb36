"""Design-space exploration: dimension a NoC from a workload.

The paper hand-picks its Section VII network; this subsystem *finds*
such operating points.  Give it a workload — a
:class:`~repro.core.application.UseCase` or a churn profile via
:func:`~repro.design.space.workload_from_churn` — and a
:class:`~repro.design.space.DesignSpace`; run the space's
:meth:`~repro.design.space.DesignSpace.scenarios` as one campaign
(:class:`~repro.campaign.runner.CampaignRunner`) and
:func:`~repro.design.explorer.pareto_front` of its records is the
byte-deterministic Pareto front over silicon area, operating frequency
and worst-case guarantee slack, using analytical lower-bound pruning,
seeded mapping optimisation, floor-tightened feasibility bisection and
the campaign runner's process pool.  ``python -m repro design --demo``
runs the ``design_demo`` campaign preset: the demo-scale Section VII
workload over :func:`~repro.design.space.demo_space`.
"""

from repro.design.explorer import (evaluate_candidate, execute_design_run,
                                   pareto_front)
from repro.design.mapping_opt import MappingSearchResult, optimize_mapping
from repro.design.prune import (PruneReport, frequency_lower_bound_hz,
                                min_traversal_slots, prune_candidate)
from repro.design.search import min_feasible_configuration
from repro.design.space import (Candidate, DesignSpace, DesignSpec,
                                demo_space, provisioned_use_case,
                                section7_demo_use_case,
                                workload_from_churn)

__all__ = [
    "DesignSpec", "Candidate", "DesignSpace", "workload_from_churn",
    "provisioned_use_case", "section7_demo_use_case", "demo_space",
    "PruneReport", "prune_candidate", "frequency_lower_bound_hz",
    "min_traversal_slots",
    "MappingSearchResult", "optimize_mapping",
    "min_feasible_configuration",
    "pareto_front",
    "evaluate_candidate", "execute_design_run",
]
