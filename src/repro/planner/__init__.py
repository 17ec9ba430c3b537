"""Query planning: query trees -> executable physical plans.

A three-stage pipeline:

1. :mod:`repro.planner.logical` — the query tree's FROM/WHERE decomposes
   into a backend-neutral logical join graph (operands, pushed filters,
   join-conjunct pool);
2. :mod:`repro.planner.stats` / :mod:`repro.planner.cost` — ANALYZE
   statistics and the selectivity/cardinality model estimated over it;
3. :mod:`repro.planner.physical` — cost-based operator choices emit the
   executable plan (:class:`CostBasedPlanner`, the default), with the
   legacy magic-constant path in :mod:`repro.planner.heuristic` kept
   reachable for differential testing.
"""

from typing import Optional

from repro.planner.heuristic import HeuristicPlanner
from repro.planner.physical import CostBasedPlanner, PlannerBase

#: The default planner class.
Planner = CostBasedPlanner


def make_planner(
    catalog,
    cost_based: bool = True,
    vectorize: bool = True,
    outer_varmaps: Optional[list] = None,
    shared=None,
    parallel_workers: int = 1,
    morsel_size: Optional[int] = None,
    fuse_pipelines: bool = True,
    parallel_executor: str = "thread",
) -> PlannerBase:
    """The configured planner: cost-based (default) or legacy heuristic.

    ``parallel_workers > 1`` enables the cost-based planner's
    exchange-insertion post-pass (morsel-driven parallelism,
    :mod:`repro.parallel`); the heuristic planner always plans serial —
    it is the differential oracle for the parallel paths.
    ``parallel_executor`` picks the worker-pool strategy exchanges
    dispatch on (``thread`` / ``process`` / ``serial``).
    ``vectorize`` and ``fuse_pipelines`` are accepted and ignored: every
    plan runs batch-at-a-time with fused scan→filter→project kernels.
    """
    cls = CostBasedPlanner if cost_based else HeuristicPlanner
    planner = cls(catalog, outer_varmaps, shared)
    planner.parallel_workers = parallel_workers
    planner.morsel_size = morsel_size
    planner.parallel_executor = parallel_executor
    return planner


__all__ = [
    "CostBasedPlanner",
    "HeuristicPlanner",
    "Planner",
    "PlannerBase",
    "make_planner",
]
