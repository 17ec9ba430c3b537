"""Exchange insertion: the cost-based planner's parallelization pass.

Runs once over a finished physical plan (root planner only).  A subtree
is wrapped in an :class:`~repro.parallel.exchange.ExchangeNode` when it
is a *pipeline*: an optional parallel-safe ``HashAggregate`` on top of
a chain of parallel-safe ``FilterNode`` / ``ProjectNode`` /
``SliceNode`` operators bottoming out in a single parallel-safe
``SeqScan`` whose heap is large enough that fan-out pays for dispatch.
Everything in such a pipeline is pure per-chunk work: no sublinks, no
correlated outer references, no shared materialized spools — exactly
the properties the planner's ``parallel_safe`` flags certify.

The pass wraps the *topmost* eligible chain (so filters, projections
and the aggregation's accumulation all move into the workers, not just
the scan) and otherwise recurses through ``child``/``left``/``right``
links — join inputs, set-operation arms and FROM-subquery plans all
parallelize independently.  Subplans reachable only through compiled
expression closures (sublinks) are intentionally left serial: they
execute against per-row outer contexts the exchange cannot fork.
"""

from __future__ import annotations

from typing import Optional

from repro.executor.fusion import FusedPipelineNode
from repro.executor.nodes import (
    FilterNode,
    HashAggregate,
    PlanNode,
    ProjectNode,
    SeqScan,
    SliceNode,
)
from repro.parallel import DEFAULT_MORSEL_SIZE, MIN_PARALLEL_ROWS
from repro.parallel.exchange import ExchangeNode

#: Plan-tree child links rewritten in place by the pass.
_CHILD_ATTRS = ("child", "left", "right")


def _pipeline_scan(node: PlanNode) -> Optional[SeqScan]:
    """The base scan of a parallel-safe pipeline rooted at ``node``, or
    None when the subtree is not a wrappable pipeline.  A fused node
    counts as one pipeline operator: its kernel is pure per-chunk work
    over its bare scan, and the chain's ``parallel_safe`` flags folded
    into its own at fusion time."""
    current = node
    if isinstance(current, HashAggregate):
        if not current.parallel_safe:
            return None
        current = current.child
    while isinstance(
        current, (FusedPipelineNode, FilterNode, ProjectNode, SliceNode)
    ):
        if not current.parallel_safe:
            return None
        current = current.child
    if isinstance(current, SeqScan) and current.parallel_safe:
        return current
    return None


def insert_exchanges(
    plan: PlanNode,
    workers: int,
    morsel_size: Optional[int] = None,
    min_rows: int = MIN_PARALLEL_ROWS,
    strategy: str = "thread",
) -> PlanNode:
    """Wrap eligible pipelines of ``plan`` in exchange nodes.

    ``workers`` is the resolved fan-out; ``morsel_size`` defaults to
    :data:`~repro.parallel.DEFAULT_MORSEL_SIZE`.  ``min_rows`` gates on
    the *actual* heap row count (the scan cost driver — estimated
    output cardinality may be tiny for selective filters whose scans
    are still worth parallelizing).  ``strategy`` names the registered
    worker-pool strategy morsels dispatch on (``thread`` / ``process``
    / ``serial``).
    """
    if workers <= 1:
        return plan
    size = DEFAULT_MORSEL_SIZE if morsel_size is None else max(int(morsel_size), 1)

    scan = _pipeline_scan(plan)
    if scan is not None and scan.table.row_count() >= max(min_rows, size + 1):
        return ExchangeNode(plan, scan, workers, size, strategy=strategy)
    for attr in _CHILD_ATTRS:
        child = getattr(plan, attr, None)
        if isinstance(child, PlanNode):
            setattr(
                plan, attr, insert_exchanges(child, workers, size, min_rows, strategy)
            )
    return plan
