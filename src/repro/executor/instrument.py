"""EXPLAIN ANALYZE support: per-node runtime statistics.

:func:`instrument_plan` wraps every node's ``run_batches`` with a
counting shim (an instance attribute shadows the class method, so inner
nodes calling ``self.child.run_batches(...)`` hit the shims too).  After the
plan is drained, :func:`format_plan_with_stats` renders the usual
EXPLAIN tree annotated with actual row counts, batch counts, wall time,
and loop counts.

Timing is *inclusive* (a node's time contains its children's), measured
as the sum of the per-``next()`` latencies of the node's iterator —  the
same convention as PostgreSQL's ``EXPLAIN ANALYZE``.  ``loops`` counts
how many times the node was started: materialized subplans restart per
consumer, correlated sublink subplans restart per outer row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.executor.nodes import PlanNode


#: A node whose actual row count is off from the estimate by more than
#: this factor (either direction) gets flagged — cheap misestimation
#: debugging: the flagged nodes are where the cost model went wrong.
MISESTIMATE_FACTOR = 10.0


@dataclass
class NodeStats:
    """Actual execution counters for one plan node."""

    rows: int = 0
    batches: int = 0
    loops: int = 0
    seconds: float = 0.0

    def describe(self, estimate: float | None = None) -> str:
        if self.loops == 0:
            return "(never executed)"
        parts = []
        if estimate is not None:
            parts.append(f"est={estimate:.0f}")
        parts.append(f"actual rows={self.rows}")
        if self.batches:
            parts.append(f"batches={self.batches}")
        parts.append(f"time={self.seconds * 1000.0:.3f}ms")
        if self.loops > 1:
            parts.append(f"loops={self.loops}")
        text = "(" + " ".join(parts) + ")"
        if estimate is not None and self._misestimated(estimate):
            ratio = max(self._rows_per_loop(), 1.0) / max(estimate, 1.0)
            if ratio < 1:
                ratio = 1 / ratio
            text += f"  !! misestimate {ratio:.0f}x"
        return text

    def _rows_per_loop(self) -> float:
        """Actual rows per execution — estimates are per execution, so a
        node restarted per outer row compares its average, not the
        accumulated total (PostgreSQL's EXPLAIN convention)."""
        return self.rows / max(self.loops, 1)

    def _misestimated(self, estimate: float) -> bool:
        actual = max(self._rows_per_loop(), 1.0)
        expected = max(estimate, 1.0)
        return (
            actual > expected * MISESTIMATE_FACTOR
            or expected > actual * MISESTIMATE_FACTOR
        )


def instrument_plan(plan: PlanNode) -> dict[int, NodeStats]:
    """Attach counting shims to every node; returns stats keyed by id()."""
    stats: dict[int, NodeStats] = {}
    for node in _walk(plan):
        if id(node) in stats:
            continue  # shared subplans appear under several parents
        stats[id(node)] = _wrap_node(node)
    return stats


def _walk(node: PlanNode):
    yield node
    for child in node.children():
        yield from _walk(child)


def _wrap_node(node: PlanNode) -> NodeStats:
    stats = NodeStats()
    original_batches = node.run_batches
    clock = time.perf_counter

    def run_batches(ctx):
        stats.loops += 1
        iterator = iter(original_batches(ctx))
        while True:
            started = clock()
            try:
                chunk = next(iterator)
            except StopIteration:
                stats.seconds += clock() - started
                return
            stats.seconds += clock() - started
            stats.batches += 1
            stats.rows += len(chunk)
            yield chunk

    node.run_batches = run_batches  # type: ignore[method-assign]
    return stats


def format_plan_with_stats(
    plan: PlanNode, stats: dict[int, NodeStats], indent: int = 0
) -> str:
    """The EXPLAIN tree with per-node estimated/actual counters appended.

    Nodes where actual rows deviate from the planner's estimate by more
    than :data:`MISESTIMATE_FACTOR` are flagged ``!! misestimate Nx``.
    """
    node_stats = stats.get(id(plan))
    suffix = (
        f"  {node_stats.describe(getattr(plan, 'estimate', None))}"
        if node_stats is not None
        else ""
    )
    lines = ["  " * indent + f"-> {plan.label()}{suffix}"]
    lines += [
        format_plan_with_stats(child, stats, indent + 1)
        for child in plan.children()
    ]
    return "\n".join(lines)
