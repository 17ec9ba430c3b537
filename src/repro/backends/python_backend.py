"""The in-process Python backend: the repro's own physical layer.

This wraps the planner plus executor behind the
:class:`ExecutionBackend` protocol.  It is the default backend and the
semantic reference the other backends are differentially tested against.

Execution is batch-at-a-time: the planner attaches batch kernels to the
plan, fuses scan→filter→project chains into generated kernels, and the
engine pulls columnar :class:`~repro.storage.chunk.Chunk` batches
through ``run_batches``.

Planning is cost-based: the one :class:`~repro.planner.Planner` picks
join orders and operator strategies from ANALYZE statistics, and every
plan runs serially on the calling thread.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.analyzer.query_tree import Query
from repro.backends.base import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import Catalog
    from repro.database import QueryResult


class PythonBackend(ExecutionBackend):
    """Plan and interpret query trees with the built-in executor."""

    name = "python"

    #: The in-process engine honors snapshot/timeout execution controls.
    supports_execution_controls = True

    #: Bound on the number of cached physical plans.
    PLAN_CACHE_SIZE = 64

    #: Constant: there is one planner, and every plan runs serially,
    #: batch-at-a-time, with fused pipelines (callers that plan like
    #: this backend still read the names).
    cost_based = True
    vectorize = True
    fuse_pipelines = True
    parallel_workers = 1
    parallel_executor = "serial"
    morsel_size = None

    def __init__(self, catalog: "Catalog") -> None:
        super().__init__(catalog)
        # Physical plans keyed by query-tree identity.  Plans are
        # re-runnable because all per-execution state (materialized
        # spools, sublink memos) lives in the ExecContext; the cached
        # Query reference keeps the id() key from being recycled.  DDL
        # invalidates via the catalog epoch, fresh statistics via the
        # stats epoch.
        self._plan_cache: "OrderedDict[int, tuple[Query, object]]" = OrderedDict()
        self._plan_cache_epochs: tuple = (-1, -1)
        # A database served by ``start_in_thread`` (``ServerHandle``) plans
        # on the server's engine thread and on the embedding program's
        # own thread, so cache maintenance (epoch flush, LRU eviction) is
        # serialized.
        self._plan_cache_lock = threading.Lock()

    def _plan(self, query: Query):
        from repro.planner import make_planner

        epochs = (
            getattr(self.catalog, "epoch", None),
            getattr(self.catalog, "stats_epoch", None),
        )
        key = id(query)
        with self._plan_cache_lock:
            if epochs != self._plan_cache_epochs:
                self._plan_cache.clear()
                self._plan_cache_epochs = epochs
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
        if entry is not None:
            return entry[1]
        plan = make_planner(self.catalog).plan(query)
        with self._plan_cache_lock:
            if len(self._plan_cache) >= self.PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
            self._plan_cache[key] = (query, plan)
        return plan

    def run_select(
        self,
        query: Query,
        snapshot: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> "QueryResult":
        from repro.database import QueryResult
        from repro.executor.context import ExecContext
        from repro.executor.nodes import run_plan_rows
        from repro.storage.chunk import DEFAULT_BATCH_SIZE

        plan = self._plan(query)
        ctx = ExecContext(
            batch_size=plan.batch_size_hint or DEFAULT_BATCH_SIZE,
            snapshot=snapshot,
            deadline=None if timeout is None else time.monotonic() + timeout,
        )
        rows = run_plan_rows(plan, ctx)
        return QueryResult(
            columns=list(plan.output_names),
            rows=rows,
            annotation_column=query.annotation_column,
        )

    def describe(self) -> str:
        return (
            "in-process Python planner/executor (vectorized, cost-based planner, "
            "reference semantics)"
        )
