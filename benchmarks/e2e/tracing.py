"""Spans recorded from outside the program, and the stepwise pipelines.

The traced pass does not call ``db.execute``.  It walks each statement
through the public function of every layer — ``parse_sql``,
``Analyzer.analyze``, ``traverse_query_tree``, ``optimize_query_tree``,
``make_planner().plan``, ``run_plan_rows``, or the backend-specific
calls — with a span around each call, and takes the
counts at the same boundaries.  ``trace.stepwise_vs_execute_x`` says how
faithful that walk is to ``db.execute``; in-program spans are a later
change that these numbers will judge.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.analyzer.analyzer import Analyzer
from repro.backends.base import collect_base_relations
from repro.core.rewriter import traverse_query_tree
from repro.database import QueryResult
from repro.executor import nodes as executor_nodes
from repro.executor.context import ExecContext
from repro.matview import maintenance
from repro.optimizer import optimize_query_tree
from repro.optimizer.treeutils import walk_query_nodes
from repro.parallel import resolve_worker_count
from repro.planner import make_planner
from repro.sharding.analysis import FallbackDecision, decide
from repro.sharding.merge import merge_results
from repro.sql.deparse import deparse_query
from repro.sql.parser import parse_sql
from repro.storage.chunk import DEFAULT_BATCH_SIZE

#: Span wrapped around one whole statement.
STATEMENT = "stmt"
#: Harness work inside a statement span that is not the program's.
INSTRUMENT = "trace.instrument"

REWRITE_SPAN = {
    "normal": "core.rewrite_normal",
    "witness": "core.rewrite",
    "poly": "semiring.rewrite",
}

#: Plan-node class name -> operator family (unknown classes are "other").
FAMILY = {
    "SeqScan": "scan",
    "OneRow": "scan",
    "ValuesNode": "scan",
    "FusedPipelineNode": "fused",
    "FilterNode": "filter_project",
    "ProjectNode": "filter_project",
    "SliceNode": "filter_project",
    "NestedLoopJoin": "join",
    "HashJoin": "join",
    "HashAggregate": "agg",
    "DistinctNode": "agg",
    "SortNode": "sort_limit",
    "LimitNode": "sort_limit",
    "SetOpPlanNode": "setop",
}


class Tracer:
    """In-memory spans ``{name, stmt_id, parent, start, end}`` + counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stmt_id: Optional[str] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "stmt_id": self.stmt_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def statement(self, stmt_id: str) -> Iterator[dict]:
        self.stmt_id = stmt_id
        try:
            with self.span(STATEMENT) as record:
                yield record
        finally:
            self.stmt_id = None

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["end"] - span["start"]
        return totals

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] += seconds
        return totals

    def coverage(self) -> float:
        """Share of statement wall time that lies inside layer spans
        (harness instrumentation is taken out of both sides)."""
        wall = self.totals()[STATEMENT] - self.totals()[INSTRUMENT]
        return 1.0 - self.self_times()[STATEMENT] / wall if wall > 0 else 0.0

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for name, value in sorted(self.counts.items()):
                out.write(json.dumps({"count": name, "value": value}) + "\n")


# ---------------------------------------------------------------------------
# Frontend: the steps every configuration shares
# ---------------------------------------------------------------------------


def query_nodes(query) -> int:
    return sum(1 for _ in walk_query_nodes(query))


def compile_statement(tracer: Tracer, catalog, kind: str, sql: str):
    """parse → analyze → provenance rewrite → optimize, one span each."""
    with tracer.span("sql.parse"):
        (node,) = parse_sql(sql)
    tracer.count("sql.parse_stmts")
    with tracer.span("analyzer.analyze"):
        query = Analyzer(catalog).analyze(node)
    tracer.count("analyzer.rtes", sum(len(q.range_table) for q, _ in walk_query_nodes(query)))
    width = len(query.output_columns())
    with tracer.span(REWRITE_SPAN[kind]):
        query = traverse_query_tree(query)
    if kind == "witness":
        tracer.count("core.prov_columns", len(query.output_columns()) - width)
    tracer.count("optimizer.nodes_in", query_nodes(query))
    with tracer.span("optimizer.optimize"):
        query = optimize_query_tree(query)
    tracer.count("optimizer.nodes_out", query_nodes(query))
    return query


# ---------------------------------------------------------------------------
# python engine: plan + instrumented execute
# ---------------------------------------------------------------------------


def walk_plan(plan) -> Iterator[Any]:
    """Every plan node once (shared subplans hang under several parents)."""
    seen = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(node.children())


class OperatorClock:
    """Exact self time per operator family during one plan execution.

    Every plan node's ``run``/``run_batches`` is shimmed so that a stack
    always names the node whose code is executing; the time between two
    stack events is credited to the family on top.  (``instrument_plan``'s
    inclusive times cannot give this: a shared subplan hangs under several
    parents but runs under one, so inclusive-minus-children misplaces it.)
    Time with an empty stack is result assembly in ``run_plan_rows``.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.loops: dict[int, int] = defaultdict(int)
        self._running: list[str] = []
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def enter(self, family: str) -> None:
        now = time.perf_counter()
        self.seconds[self._running[-1] if self._running else "other"] += now - self._last
        self._last = now
        self._running.append(family)

    def leave(self) -> None:
        now = time.perf_counter()
        self.seconds[self._running.pop()] += now - self._last
        self._last = now

    def stop(self) -> None:
        self.enter("other")
        self.leave()

    def shim(self, node) -> None:
        family = FAMILY.get(type(node).__name__, "other")

        def tracked(inner):
            def run(ctx):
                self.loops[id(node)] += 1
                iterator = iter(inner(ctx))
                while True:
                    self.enter(family)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    yield item

            return run

        node.run = tracked(node.run)
        node.run_batches = tracked(node.run_batches)

    @contextmanager
    def sublinks(self) -> Iterator[None]:
        """Credit sublink subplans to their own family.  They are closures,
        not plan children, but the engine runs them through the public
        ``repro.executor.nodes.run_plan_rows``, resolved at call time — so
        for the traced execution that name is a timing wrapper."""
        original = executor_nodes.run_plan_rows

        def timed(plan, ctx):
            self.enter("sublink")
            try:
                return original(plan, ctx)
            finally:
                self.leave()

        executor_nodes.run_plan_rows = timed
        try:
            yield
        finally:
            executor_nodes.run_plan_rows = original


def plan_and_execute(tracer: Tracer, catalog, backend, query) -> QueryResult:
    """``make_planner().plan`` then ``run_plan_rows`` on a shimmed plan,
    configured exactly as ``backend`` (a PythonBackend) would."""
    workers = resolve_worker_count(backend.parallel_workers) if backend.vectorize else 1
    with tracer.span("planner.plan"):
        plan = make_planner(
            catalog,
            cost_based=backend.cost_based,
            vectorize=backend.vectorize,
            parallel_workers=workers,
            morsel_size=backend.morsel_size,
            fuse_pipelines=backend.fuse_pipelines,
            parallel_executor=backend.parallel_executor,
        ).plan(query)
    clock = OperatorClock()
    with tracer.span(INSTRUMENT):
        nodes = list(walk_plan(plan))
        for node in nodes:
            clock.shim(node)
    tracer.count("planner.plan_nodes", len(nodes))
    tracer.count("planner.fused_nodes", sum(type(n).__name__ == "FusedPipelineNode" for n in nodes))
    tracer.count("planner.exchange_nodes", sum(type(n).__name__ == "ExchangeNode" for n in nodes))
    ctx = ExecContext(
        batch_size=plan.batch_size_hint or DEFAULT_BATCH_SIZE,
        vectorized=backend.vectorize,
    )
    run_plan_rows = executor_nodes.run_plan_rows
    with tracer.span("executor.execute"), clock.sublinks():
        clock.start()
        rows = run_plan_rows(plan, ctx)
        clock.stop()
    for family, seconds in clock.seconds.items():
        tracer.count(f"executor.{family}_self_s", seconds)
    tracer.count("executor.rows_out", len(rows))
    for node in nodes:
        if type(node).__name__ == "SeqScan":
            tracer.count("executor.rows_scanned", node.table.row_count() * clock.loops[id(node)])
    return QueryResult(
        columns=list(plan.output_names), rows=rows, annotation_column=query.annotation_column
    )


# ---------------------------------------------------------------------------
# Per-configuration statement walks; each returns the QueryResult
# ---------------------------------------------------------------------------


def run_python(tracer: Tracer, db, stmt) -> QueryResult:
    with tracer.statement(stmt.sid):
        query = compile_statement(tracer, db.catalog, stmt.kind, stmt.sql)
        return plan_and_execute(tracer, db.catalog, db.backend, query)


def run_sqlite(tracer: Tracer, db, stmt) -> QueryResult:
    backend = db.backend
    with tracer.statement(stmt.sid):
        query = compile_statement(tracer, db.catalog, stmt.kind, stmt.sql)
        with tracer.span("backends.sqlite_run_select"):
            result = backend.run_select(query)
    # run_select deparses and syncs inside; time the same two public
    # calls again, outside the statement, to split them out of it.
    tracer.stmt_id = stmt.sid
    with tracer.span("sql.deparse"):
        text = deparse_query(query, dialect=backend.dialect)
    with tracer.span("backends.sqlite_sync"):
        backend.sync_tables(collect_base_relations(query))
    tracer.stmt_id = None
    tracer.count("sql.deparse_bytes", len(text.encode()))
    return result


def run_sharded(tracer: Tracer, db, stmt) -> QueryResult:
    backend = db.backend
    with tracer.statement(stmt.sid):
        query = compile_statement(tracer, db.catalog, stmt.kind, stmt.sql)
        appended = backend.partitioner.appended_rows
        with tracer.span("sharding.sync"):
            backend.partitioner.sync()
        tracer.count("sharding.delta_rows", backend.partitioner.appended_rows - appended)
        with tracer.span("sharding.decide"):
            decision = decide(query, backend.partitioner)
        tracer.count("sharding.queries")
        if isinstance(decision, FallbackDecision):
            tracer.count("sharding.fallbacks")
            with tracer.span("sharding.fallback"):
                return plan_and_execute(tracer, db.catalog, backend.local, query)
        tracer.count("sharding.scattered")
        tracer.count("sharding.pruned", decision.pruned)
        tracer.count("sharding.shards_touched", len(decision.shards))
        partials = []
        child_seconds = []
        with tracer.span("sharding.scatter"):
            for shard in decision.shards:
                with tracer.span("sharding.child") as span:
                    partials.append(backend.children[shard].run_select(decision.shard_query))
                child_seconds.append(span["end"] - span["start"])
        if len(child_seconds) > 1:
            tracer.count("sharding.slowest_child_s", max(child_seconds))
            tracer.count("sharding.multi_child_s", sum(child_seconds))
        with tracer.span("sharding.merge"):
            return merge_results(decision, partials)


def run_view_read(tracer: Tracer, db, stmt) -> QueryResult:
    """A provenance read answered by a materialized view, as
    ``db.execute`` routes it."""
    with tracer.statement(stmt.sid):
        with tracer.span("sql.parse"):
            (node,) = parse_sql(stmt.sql)
        tracer.count("sql.parse_stmts")
        with tracer.span("matview.match"):
            view = db.catalog.matview_for_statement(node)
        if view is None:
            raise RuntimeError(f"{stmt.sid}: no materialized view matches the text")
        with view.lock:
            with tracer.span("matview.maintain"):
                action = maintenance.ensure_fresh(db, view)
            tracer.count(f"matview.{action}")
            with tracer.span("matview.serve"):
                return view.result()


def run_write(tracer: Tracer, db, stmt) -> None:
    """DML goes through ``db.execute`` (the only public write path);
    WAL counters are read at the same boundary."""
    before = db.wal_status()
    with tracer.statement(stmt.sid):
        with tracer.span("storage.write"):
            db.execute(stmt.sql)
    after = db.wal_status()
    tracer.count("storage.writes")
    if before is not None:
        tracer.count("wal.bytes", after["appended_bytes"] - before["appended_bytes"])
        tracer.count("wal.fsyncs", after["fsync_count"] - before["fsync_count"])
