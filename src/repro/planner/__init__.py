"""Query planning: query trees -> executable physical plans.

A three-stage pipeline:

1. :mod:`repro.planner.logical` — the query tree's FROM/WHERE decomposes
   into a backend-neutral logical join graph (operands, pushed filters,
   join-conjunct pool);
2. :mod:`repro.planner.stats` / :mod:`repro.planner.cost` — ANALYZE
   statistics and the selectivity/cardinality model estimated over it;
3. :mod:`repro.planner.physical` — the one :class:`Planner` makes the
   cost-based operator choices and emits the executable plan.
"""

from typing import Optional

from repro.planner.physical import Planner


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
) -> Planner:
    """A root :class:`Planner` for one statement.

    ``cost_based``, ``vectorize``, ``fuse_pipelines``,
    ``parallel_workers``, ``morsel_size`` and ``parallel_executor`` are
    accepted and ignored: there is one planner, and every plan runs
    serially, batch-at-a-time, with fused scan→filter→project kernels.
    """
    return Planner(catalog, outer_varmaps, shared)


__all__ = ["Planner", "make_planner"]
