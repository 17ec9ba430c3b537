"""The exchange operator: fan a pipeline out over morsels, merge in order.

An :class:`ExchangeNode` wraps one parallel-safe pipeline whose base is
a single heap scan.  At execution it splits the scan's physical row
range into morsels, runs the *whole* pipeline once per morsel on the
worker pool (each worker gets a forked context restricted to its
range), and merges worker outputs:

* **Streaming pipelines** (scan→filter→project): worker chunks are
  concatenated in morsel order.  Rows therefore appear in exactly the
  serial scan order, so witness-list provenance merges as a plain bag
  union and differential tests compare ordered row lists.
* **Partial aggregation** (pipeline topped by a
  :class:`~repro.executor.nodes.HashAggregate`): each worker
  accumulates private per-group states over its morsels; the exchange
  merges them group-by-group with :meth:`AggState.merge` in morsel
  order.  The merge is semiring-native — polynomial annotation states
  add in ``N[X]``, so ``SELECT PROVENANCE (polynomial)`` aggregates
  parallelize without leaving the provenance algebra.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.executor.context import ExecContext
from repro.executor.nodes import HashAggregate, PlanNode, SeqScan
from repro.parallel.dispatch import WorkerPoolStrategy, get_strategy
from repro.storage.chunk import Chunk


class ExchangeNode(PlanNode):
    """Gather node over a morsel-parallel pipeline."""

    def __init__(
        self,
        child: PlanNode,
        scan: SeqScan,
        workers: int,
        morsel_size: int,
        strategy: str = "thread",
    ) -> None:
        self.child = child
        self.scan = scan
        self.workers = max(int(workers), 1)
        self.morsel_size = max(int(morsel_size), 1)
        self.strategy_name = strategy
        self.output_names = list(child.output_names)
        self.estimate = child.estimate
        self.partial_agg = isinstance(child, HashAggregate)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        mode = "partial-agg" if self.partial_agg else "stream"
        return (
            f"Exchange ({mode}, {self.workers} workers, "
            f"morsel={self.morsel_size})"
        )

    # -- parallel execution --------------------------------------------------

    def _morsels(self, ctx: ExecContext) -> list[tuple[int, int]]:
        start, stop = self.scan._bounds(ctx)
        size = self.morsel_size
        return [
            (lower, min(lower + size, stop)) for lower in range(start, stop, size)
        ]

    def _strategy(self) -> WorkerPoolStrategy:
        return get_strategy(self.strategy_name, self.workers)

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        if ctx.morsel is not None:
            # Already inside a worker (defensive: planning never nests
            # exchanges) — degrade to serial rather than re-fan-out.
            yield from self.child.run_batches(ctx)
            return
        morsels = self._morsels(ctx)
        if self.workers <= 1 or len(morsels) <= 1:
            yield from self.child.run_batches(ctx)
            return
        strategy = self._strategy()
        # Materialize the scan's columnar cache before fan-out: thread
        # workers would race to build it, and fork-based workers inherit
        # the finished cache copy-on-write instead of each transposing
        # its own copy.
        self.scan.table.columnar()
        if self.partial_agg:
            yield from self._run_partial_agg(ctx, morsels, strategy)
            return

        child = self.child

        def task(start: int, stop: int):
            worker_ctx = ctx.fork_morsel(start, stop)
            # compact() detaches selection vectors so the merged stream
            # hands downstream operators plain dense chunks.
            return [
                chunk.compact() for chunk in child.run_batches(worker_ctx)
            ]

        tasks = [
            (lambda start=start, stop=stop: task(start, stop))
            for start, stop in morsels
        ]
        for chunks in strategy.map_ordered(tasks):
            yield from chunks

    def _run_partial_agg(
        self,
        ctx: ExecContext,
        morsels: list[tuple[int, int]],
        strategy: WorkerPoolStrategy,
    ) -> Iterator[Chunk]:
        agg: HashAggregate = self.child  # type: ignore[assignment]

        def task(start: int, stop: int):
            worker_ctx = ctx.fork_morsel(start, stop)
            return agg._accumulate_batches(worker_ctx)

        tasks = [
            (lambda start=start, stop=stop: task(start, stop))
            for start, stop in morsels
        ]
        merged_groups: dict[tuple, list] = {}
        merged_order: list[tuple] = []
        merged_grand: Optional[list] = None
        for groups, order, grand_states in strategy.map_ordered(tasks):
            if grand_states is not None:
                if merged_grand is None:
                    merged_grand = grand_states
                else:
                    for into, part in zip(merged_grand, grand_states):
                        into.merge(part)
            for key in order:
                states = merged_groups.get(key)
                if states is None:
                    # First worker (in morsel order) to produce the group
                    # donates its states — key order across the merged map
                    # is first-encounter order over the concatenated
                    # morsel stream, identical to the serial scan.
                    merged_groups[key] = groups[key]
                    merged_order.append(key)
                else:
                    for into, part in zip(states, groups[key]):
                        into.merge(part)
        yield from agg._emit_batches(merged_groups, merged_order, merged_grand, ctx)
