"""The PermDatabase facade.

Runs the full pipeline of paper Fig. 5 on every statement::

    parser & analyzer -> (view unfolding) -> provenance rewriter
        -> optimizer -> planner -> executor

The stages up to the optimizer are chained in one place,
:func:`repro.frontend.frontend`.  The provenance rewriter
(``repro.core``) is invoked between analysis and planning, exactly
where the paper places the Perm module: it traverses the
query tree looking for nodes marked ``SELECT PROVENANCE`` and rewrites
them; unmarked queries pass through untouched.  The
``provenance_module_enabled`` switch reproduces the paper's Fig. 9
configurations (Perm module present vs. plain PostgreSQL).

Where the rewritten tree *executes* is pluggable (``repro.backends``):
the default ``python`` backend is the built-in planner/executor; the
``sqlite`` backend deparses the tree to SQLite SQL and runs it on an
embedded ``sqlite3`` database — the paper's actual deployment model,
where ``q+`` is ordinary SQL executed by the host DBMS.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends import BackendSpec
    from repro.wal.recovery import RecoveryReport

from repro.catalog.catalog import Catalog, ViewDefinition
from repro.catalog.schema import Column, TableSchema
from repro.datatypes import SQLType, parse_date, type_from_name
from repro.errors import (
    AnalyzeError,
    CatalogError,
    ExecutionError,
    PermError,
    TypeMismatchError,
)
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.query_tree import Query
from repro.core.registry import DEFAULT_STRATEGY
from repro.executor.context import ExecContext
from repro.executor.expr_eval import ExprCompiler
from repro.executor.nodes import PlanNode
from repro.frontend import frontend, parse_select
from repro.gc_pause import collector_paused
from repro.planner import make_planner
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.sql.printer import format_statement
from repro.storage.relation import Relation
from repro.storage.table import Table


#: Statement kinds the write-ahead log records.  SELECT joins the set
#: only in its ``SELECT INTO`` form (it creates a table); EXPLAIN and
#: plain reads never touch the log.
_DURABLE_STMTS = (
    ast.CreateTableStmt,
    ast.CreateViewStmt,
    ast.CreateMatViewStmt,
    ast.RefreshMatViewStmt,
    ast.InsertStmt,
    ast.DeleteStmt,
    ast.UpdateStmt,
    ast.DropStmt,
    ast.AnalyzeStmt,
)


def _durable_statement(stmt: ast.Statement) -> bool:
    if isinstance(stmt, _DURABLE_STMTS):
        return True
    if isinstance(stmt, (ast.SelectStmt, ast.SetOpSelect)):
        return bool(getattr(stmt, "into", None))
    return False


#: Reusable no-op guard for the non-durable (read) path, so the
#: statement loop stays branch-cheap when no WAL is configured.
_NO_COMMIT_LOCK = nullcontext()


@dataclass
class QueryResult:
    """Result of one statement: column names and materialized rows.

    ``annotation_column`` names the semiring annotation column when the
    statement was rewritten with an annotation-carrying strategy
    (``SELECT PROVENANCE (polynomial)``); :meth:`annotations` and
    :meth:`evaluate_provenance` read and specialize it.
    """

    columns: list[str]
    rows: list[tuple]
    command: str = "SELECT"
    annotation_column: Optional[str] = None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    # -- semiring annotations ---------------------------------------------

    def annotation_index(self) -> int:
        """Position of the annotation column; raises if there is none."""
        if self.annotation_column is None:
            raise PermError(
                "result carries no provenance annotation column "
                "(use SELECT PROVENANCE (polynomial) ...)"
            )
        return self.columns.index(self.annotation_column)

    def annotations(self) -> list[Any]:
        """The provenance polynomial of every result row, in row order."""
        index = self.annotation_index()
        return [row[index] for row in self.rows]

    def evaluate_provenance(
        self, semiring: Any = "counting", valuation: Any = None
    ) -> list[Any]:
        """Evaluate each row's polynomial in a semiring.

        ``semiring`` is a registered name or a
        :class:`repro.semiring.Semiring`; ``valuation`` maps tuple
        variables to semiring values (missing/None = ``semiring.one``).
        """
        from repro.semiring import get_semiring

        if isinstance(semiring, str):
            semiring = get_semiring(semiring)
        return [
            polynomial.evaluate(valuation, semiring)
            for polynomial in self.annotations()
        ]

    def relation(self) -> Relation:
        """The result as a bag-semantics relation (for comparisons)."""
        return Relation.from_rows(self.columns, self.rows)

    def pretty(self, limit: int = 25) -> str:
        return self.relation().pretty(limit)

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


@dataclass
class PreparedQuery:
    """A planned query, ready to execute; exposes pipeline timings.

    ``compile_seconds`` covers parse + analyze + provenance-rewrite + plan,
    the quantity measured by the paper's Fig. 9.

    Each :meth:`run` executes on a fresh :class:`ExecContext`, and all
    per-execution memoization (materialized shared subplans, uncorrelated
    sublink results) lives in that context — so re-running a prepared
    statement after table mutation returns fresh rows.
    """

    plan: PlanNode
    query: Query
    compile_seconds: float
    rewrite_seconds: float = 0.0

    @collector_paused
    def run(self) -> QueryResult:
        from repro.executor.nodes import run_plan_rows
        from repro.storage.chunk import DEFAULT_BATCH_SIZE

        ctx = ExecContext(batch_size=self.plan.batch_size_hint or DEFAULT_BATCH_SIZE)
        rows = run_plan_rows(self.plan, ctx)
        return QueryResult(
            columns=list(self.plan.output_names),
            rows=rows,
            annotation_column=self.query.annotation_column,
        )


@dataclass
class CompiledViewAnswer:
    """A statement-cache entry (and :meth:`PermDatabase.compile_select`
    result) for SQL that restates a materialized provenance view.

    :meth:`PermDatabase.run_compiled` serves the stored rows when the
    view's dependency state matches the request's snapshot token (always,
    without one), and otherwise compiles ``statement`` once — into
    ``query`` — and executes it under the snapshot like any compiled
    statement.  Safe to cache because DML leaves the catalog epoch (part
    of every cache key) untouched — staleness is the *view's* problem,
    handled on every serve — while dropping the view is DDL and rotates
    the key.
    """

    view_name: str
    statement: ast.SelectNode
    query: Optional[Query] = None


class _StatementCache:
    """Tiny LRU keyed on :meth:`PermDatabase.cache_key`.

    Caches analyzed/rewritten/optimized query *trees*, not results: a hit
    skips parse → analyze → rewrite → optimize and goes straight to the
    backend, which re-executes against the live data.  DDL bumps the
    catalog epoch, so schema changes produce new keys and stale entries
    age out via the LRU bound.  Entries may also be
    :class:`CompiledViewAnswer` entries routing the SQL to a materialized
    provenance view instead of a tree.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        # A database served by ``start_in_thread`` (``ServerHandle``) is
        # used by the server's engine thread and by the embedding
        # program's own thread; OrderedDict reordering + eviction is not
        # atomic, so all cache operations serialize on this lock (they
        # are dict-speed — the lock is never held across parsing or
        # execution).
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                # Misses are counted at ``put`` time instead: every statement
                # probes the cache before parsing, so counting here would let
                # DDL/DML noise swamp the hit rate ``\stats`` reports.
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, query: Any) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self.misses += 1  # a cacheable statement that wasn't cached yet
            self._entries[key] = query
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class PermDatabase:
    """An in-memory relational database with the Perm provenance module.

    >>> db = PermDatabase()
    >>> db.execute("CREATE TABLE t (a integer, b text)")
    >>> db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    >>> db.execute("SELECT PROVENANCE a FROM t").columns
    ['a', 'prov_t_a', 'prov_t_b']
    """

    def __init__(
        self,
        provenance_module_enabled: bool = True,
        backend: "BackendSpec" = "python",
        statement_cache_size: int = 64,
        shards: Optional[int] = None,
        shard_keys: Optional[dict] = None,
        auto_analyze: bool = True,
        wal_dir: Optional[str] = None,
        wal_sync: str = "always",
        wal_checkpoint_interval: Optional[int] = None,
    ) -> None:
        from repro.backends import create_backend

        self.catalog = Catalog()
        self.provenance_module_enabled = provenance_module_enabled
        #: Refresh stale ANALYZE statistics automatically once a table
        #: grows past the catalog's auto-ANALYZE threshold.
        self.auto_analyze_enabled = auto_analyze
        if shards is not None:
            # Sharded deployment: wrap the requested backend as the
            # child engine of a hash-partitioned scatter-gather layer.
            from repro.sharding.backend import ShardedBackend

            child_spec = backend

            def backend(catalog, _child=child_spec):  # type: ignore[no-redef]
                return ShardedBackend(
                    catalog, shards=shards, shard_keys=shard_keys, child=_child
                )

        self._backend = create_backend(backend, self.catalog)
        self._stmt_cache = _StatementCache(statement_cache_size)
        # Durability last: attaching recovers any existing WAL directory
        # by replaying statements through this (fully constructed) db.
        self._durability = None
        if wal_dir is not None:
            from repro.wal.manager import Durability

            self._durability = Durability(
                self,
                wal_dir,
                sync=wal_sync,
                checkpoint_interval=wal_checkpoint_interval,
            )
            self._durability.attach()

    # -- execution backends ----------------------------------------------------

    @property
    def backend(self):
        """The active :class:`~repro.backends.ExecutionBackend`."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def set_backend(self, backend: "BackendSpec") -> None:
        """Switch execution backends; catalog data is untouched."""
        from repro.backends import create_backend

        replacement = create_backend(backend, self.catalog)
        self._backend.close()
        self._backend = replacement

    # -- statistics (ANALYZE) ---------------------------------------------------

    def analyze(self, table: Optional[str] = None) -> QueryResult:
        """Collect planner statistics (``ANALYZE [table]``).

        Returns a per-table summary of what was collected.  The
        statistics feed the cost-based planner's selectivity and
        cardinality estimates; collected numbers go stale only on
        TRUNCATE / re-creation (appends merely lag until the next run).
        """
        collected = self.catalog.analyze(table)
        return QueryResult(
            columns=["table", "rows", "columns"],
            rows=[
                (stats.table_name, stats.row_count, len(stats.columns))
                for stats in collected
            ],
            command=f"ANALYZE {len(collected)}",
        )

    def _maybe_auto_analyze(self) -> None:
        """Auto-ANALYZE hook, run before statement compilation.

        Must run before :meth:`cache_key` is computed: a refresh bumps
        the catalog's ``stats_epoch`` (part of every cache key), so a
        statement compiled this call is keyed against the statistics it
        was actually planned with.
        """
        if self.auto_analyze_enabled:
            self.catalog.maybe_auto_analyze()

    # -- durability (write-ahead log) -------------------------------------------

    @property
    def durable(self) -> bool:
        """Whether this database writes a WAL (``wal_dir`` was given)."""
        return self._durability is not None

    @property
    def last_recovery(self) -> Optional["RecoveryReport"]:
        """What the attach-time recovery pass found, when durable."""
        if self._durability is None:
            return None
        return self._durability.report

    def checkpoint(self) -> int:
        """Snapshot the catalog and truncate the WAL (``\\checkpoint``).

        Returns the new active segment number.  Also the way to make
        *programmatic* loads durable: ``create_table()``/``load_table()``
        bypass the SQL pipeline and therefore the log — checkpoint after
        bulk-loading so the snapshot carries the rows.
        """
        if self._durability is None:
            raise PermError(
                "checkpoint() requires a durable database (wal_dir=...)"
            )
        return self._durability.checkpoint()

    def wal_status(self) -> Optional[dict]:
        """WAL counters for the shell's ``\\wal``; None when not durable."""
        if self._durability is None:
            return None
        return self._durability.status()

    def close(self) -> None:
        """Flush and close the WAL (when durable) and the backend."""
        if self._durability is not None:
            self._durability.close()
        self._backend.close()

    # -- statement execution ---------------------------------------------------

    @collector_paused
    def execute(self, sql: "str | list[ast.Statement]") -> QueryResult:
        """Execute one or more ``;``-separated statements.

        Returns the result of the last statement (DDL returns an empty
        result with a command tag).  A single SELECT goes through the
        statement cache (:meth:`lookup_or_compile`): a repeat of the same
        text on the same backend and catalog epoch skips the whole
        frontend pipeline.  ``sql`` may also be the parsed statements
        (the server hands over the DDL/DML it parsed); without the text
        there is no cache key, so they bypass the statement cache.
        """
        if isinstance(sql, str):
            entry, _, statements = self.lookup_or_compile(sql)
            if entry is not None:
                return self.run_compiled(entry)
        else:
            self._maybe_auto_analyze()
            statements = sql
        result = QueryResult(columns=[], rows=[], command="EMPTY")
        for stmt in statements:
            # Commit protocol for durable statements: apply, then append
            # the canonical printed form to the WAL, both under the
            # commit lock so a concurrent checkpoint always snapshots at
            # a statement boundary.  A failed statement is never logged
            # (its partial effects are atomically absent after recovery);
            # reads take the no-op guard and never serialize.
            durable = self._durability is not None and _durable_statement(stmt)
            guard = self._durability.commit_lock if durable else _NO_COMMIT_LOCK
            with guard:
                result = self._execute_statement(stmt)
                if durable:
                    self._durability.log_statement(format_statement(stmt))
        return result

    def query(self, sql: str) -> QueryResult:
        """Alias of :meth:`execute` for read queries."""
        return self.execute(sql)

    @collector_paused
    def provenance(self, sql: str, semantics: Optional[str] = None) -> QueryResult:
        """Compute the provenance of a plain SELECT.

        Equivalent to adding the ``PROVENANCE`` keyword to the outermost
        select-clause (SQL-PLE, paper section IV-A.2).  ``semantics``
        selects a registered rewrite strategy by name (``"polynomial"``
        for semiring annotations); ``None`` keeps the default witness-list
        semantics.
        """
        entry, _, _ = self.lookup_or_compile(sql, semantics or DEFAULT_STRATEGY)
        return self.run_compiled(entry)

    # -- prepared-statement cache ------------------------------------------

    def lookup_or_compile(
        self, sql: str, provenance: Optional[str] = None
    ) -> tuple["Query | CompiledViewAnswer | None", bool, Optional[list[ast.Statement]]]:
        """The compiled form of one SELECT text, from the statement cache.

        The one cache step that :meth:`execute`, :meth:`provenance` and
        the server share.  ``provenance`` names the semantics to mark the
        outermost SELECT with (``None``: compile the text as written).
        Returns ``(entry, cached, statements)``: ``entry`` is a
        :meth:`compile_select` result for :meth:`run_compiled` — taken
        from the cache (``cached``) or compiled and stored now — or None
        when the text is not a single SELECT; ``statements`` then holds
        its parse, for :meth:`execute`.  Auto-ANALYZE runs first, so the
        key names the statistics the statement is planned with.
        """
        self._maybe_auto_analyze()
        mode = "plain" if provenance is None else provenance.lower()
        key = self.cache_key(sql, mode)
        entry = self._stmt_cache.get(key)
        if entry is not None:
            return entry, True, None
        statements = parse_sql(sql)
        stmt = statements[0] if len(statements) == 1 else None
        if not isinstance(stmt, (ast.SelectStmt, ast.SetOpSelect)) or stmt.into:
            if provenance is not None:
                raise PermError("provenance semantics require a single SELECT statement")
            return None, False, statements
        entry = self.compile_select(stmt, provenance=None if provenance is None else mode)
        self._stmt_cache.put(key, entry)
        return entry, False, None

    def cache_key(self, sql: str, mode: str) -> tuple:
        """The key a compiled form of ``sql`` is cached under: ``mode`` is
        ``"plain"`` or the lower-cased provenance semantics it was
        compiled with, and DDL, fresh statistics and the Perm module
        switch all rotate the key."""
        return (
            sql,
            mode,
            self._backend.name,
            self.catalog.epoch,
            self.catalog.stats_epoch,
            self.provenance_module_enabled,
        )

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the prepared-statement cache."""
        return {
            "hits": self._stmt_cache.hits,
            "misses": self._stmt_cache.misses,
            "entries": len(self._stmt_cache),
            "capacity": self._stmt_cache.maxsize,
        }

    def prepare(self, sql: str) -> PreparedQuery:
        """Parse, analyze, provenance-rewrite and plan without executing."""
        self._maybe_auto_analyze()
        return self._prepare_select(parse_select(sql, "prepare"))

    # -- compiled execution (server-facing) ---------------------------------

    def snapshot(self) -> dict[int, tuple[int, int]]:
        """A snapshot token: ``{table.uid: (table epoch, visible rows)}``.

        Heaps are append-only within a table epoch, so a recorded row
        count is a consistent read boundary: a query executed under the
        token (:meth:`run_compiled`) sees exactly the rows present when
        it was taken, regardless of concurrent inserts.  TRUNCATE /
        re-creation bumps the table epoch and makes the token fail
        loudly (``snapshot too old``) instead of reading rewritten rows.

        Backends owning derived state (the sharded backend's shard
        mirrors) mint the token themselves so it stays consistent with
        what their workers will actually read.
        """
        token = getattr(self._backend, "snapshot_token", None)
        if token is not None:
            return token()
        return {
            table.uid: (table.epoch, table.row_count())
            for table in self.catalog.tables()
        }

    @collector_paused
    def compile_select(
        self, sql: "str | ast.SelectNode", provenance: Optional[str] = None
    ) -> "Query | CompiledViewAnswer":
        """Frontend pipeline only: parse → analyze → rewrite → optimize.

        Returns the executable query tree for :meth:`run_compiled`.
        ``sql`` is the text of one SELECT or its parse tree.
        ``provenance`` marks the outermost SELECT like
        :meth:`provenance` does (``"witness"``, ``"polynomial"``, or a
        registered strategy name).  A cold call: it neither reads nor
        fills the statement cache (:meth:`lookup_or_compile` does both).

        When the statement restates a registered materialized
        provenance view the result is a :class:`CompiledViewAnswer`
        instead, and the frontend does not run: :meth:`run_compiled`
        serves the stored rows when the snapshot allows and compiles the
        fallback tree only when it does not.
        """
        self._maybe_auto_analyze()
        stmt = parse_select(sql, "compile_select") if isinstance(sql, str) else sql
        if provenance is not None:
            stmt.provenance = True
            stmt.provenance_type = provenance
        if stmt.into:
            raise PermError("compile_select() does not support SELECT INTO")
        if stmt.provenance:
            view = self.catalog.matview_for_statement(stmt)
            if view is not None:
                return CompiledViewAnswer(view_name=view.name, statement=stmt)
        return self._analyze_and_rewrite(stmt)[0]

    @collector_paused
    def run_compiled(
        self,
        query: "Query | CompiledViewAnswer",
        snapshot: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Execute a tree from :meth:`compile_select` on the backend.

        ``snapshot`` is a :meth:`snapshot` token for consistent reads;
        ``timeout`` (seconds) arms cooperative per-query cancellation.
        Both require the in-process Python backend — data-shipping
        backends execute deparsed SQL and cannot honor engine-level
        execution controls.

        A :class:`CompiledViewAnswer` is first brought current (a view
        over a dropped base table raises here), then serves the
        materialized rows when there is no snapshot or the view's
        recorded dependency states equal it (the stored result *is* the
        state the snapshot names).  Any other mismatch compiles and
        executes the view's statement under the snapshot instead,
        preserving the typed ``snapshot too old`` contract for
        deleted-from tables.
        """
        if isinstance(query, CompiledViewAnswer):
            result = self._run_compiled_view(query, snapshot)
            if result is not None:
                return result
            if query.query is None:
                query.query = self._analyze_and_rewrite(query.statement)[0]
            query = query.query
        if snapshot is None and timeout is None:
            return self._backend.run_select(query)
        if not getattr(self._backend, "supports_execution_controls", False):
            raise PermError(
                f"backend {self._backend.name!r} does not support "
                "snapshot/timeout execution controls"
            )
        return self._backend.run_select(query, snapshot=snapshot, timeout=timeout)

    def _run_compiled_view(
        self, compiled: "CompiledViewAnswer", snapshot: Optional[dict]
    ) -> Optional[QueryResult]:
        """Serve a compiled view answer, or None to use the fallback tree."""
        from repro.matview import maintenance

        if not self.catalog.has_matview(compiled.view_name):
            return None
        view = self.catalog.matview(compiled.view_name)
        with view.lock:
            maintenance.ensure_fresh(self, view)
            if snapshot is None or view.matches_snapshot(snapshot):
                view.served_reads += 1
                return view.result()
        return None

    @collector_paused
    def explain(self, sql: str, analyze: bool = False) -> str:
        """Logical query trees (before/after optimization) + physical plan.

        Shows the optimizer's work on the provenance-rewritten tree: the
        tree as the rewriter left it, the tree after the rule-based
        optimizer, and the plan the backend-independent planner builds
        from it.  The SQL is parsed once.

        ``analyze=True`` additionally *executes* the plan (with the
        in-process engine) and annotates every node with actual row
        counts, batch counts and inclusive wall time.
        """
        from repro.optimizer import format_query_tree

        stmt = parse_select(sql, "explain")
        sections = self._explain_matview_sections(stmt)
        stages = frontend(self.catalog, stmt, self.provenance_module_enabled)
        next(stages)
        sections += [
            "-- logical query tree (after rewrite) --",
            format_query_tree(next(stages)),
        ]
        query = next(stages)
        sections += [
            "-- logical query tree (after optimization) --",
            format_query_tree(query),
        ]
        plan = make_planner(self.catalog).plan(query)
        describe_scatter = getattr(self._backend, "describe_scatter", None)
        if describe_scatter is not None:
            sections += ["-- sharding --", describe_scatter(query)]
        if not analyze:
            sections += ["-- physical plan --", plan.explain()]
            return "\n".join(sections)

        from repro.executor.instrument import (
            format_plan_with_stats,
            instrument_plan,
        )

        from repro.storage.chunk import DEFAULT_BATCH_SIZE

        stats = instrument_plan(plan)
        ctx = ExecContext(batch_size=plan.batch_size_hint or DEFAULT_BATCH_SIZE)
        start = time.perf_counter()
        total_rows = sum(len(chunk) for chunk in plan.run_batches(ctx))
        elapsed = time.perf_counter() - start
        sections += [
            "-- physical plan (analyzed, vectorized) --",
            format_plan_with_stats(plan, stats),
            f"-- execution: {total_rows} rows in {elapsed * 1000.0:.3f}ms --",
        ]
        return "\n".join(sections)

    def _explain_matview_sections(self, stmt: ast.SelectNode) -> list[str]:
        """Explain header when the SQL is answered from a materialized
        provenance view (the tree sections that follow describe the
        fallback pipeline the view replaces)."""
        if not getattr(stmt, "provenance", False):
            return []
        view = self.catalog.matview_for_statement(stmt)
        if view is None:
            return []
        from repro.matview import maintenance

        state = maintenance.status(view, self.catalog)
        detail = (
            "served as stored"
            if state == "fresh"
            else "maintained before serving"
        )
        return [
            f"-- answered from materialized provenance view {view.name!r} "
            f"({state}; {len(view.rows)} stored rows; {detail}) --"
        ]

    def rewritten_sql(
        self,
        sql: str,
        dialect: Optional[str] = None,
        optimized: Optional[bool] = None,
    ) -> str:
        """The SQL text of the provenance-rewritten query tree.

        Makes the paper's central point inspectable: ``q+`` is an ordinary
        SQL query over the same schema (null-safe join predicates render
        as ``IS NOT DISTINCT FROM``, which the repro parser re-parses).
        ``dialect`` selects the target syntax (``"postgres"`` — the
        default — or ``"sqlite"``, the form the SQLite backend executes).
        The text is of the optimized tree (``optimized=None`` or
        ``True``), exactly what the SQLite backend ships;
        ``optimized=False`` shows the rewrite as the rewriter left it.
        """
        from repro.sql.deparse import deparse_query, get_dialect

        stages = frontend(
            self.catalog,
            parse_select(sql, "rewritten_sql"),
            self.provenance_module_enabled,
        )
        next(stages)
        query = next(stages)
        if optimized or optimized is None:
            query = next(stages)
        chosen = get_dialect(dialect) if dialect is not None else None
        return deparse_query(query, dialect=chosen)

    # -- programmatic helpers -----------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        return self.catalog.create_table(schema)

    def load_table(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.catalog.table(name).insert_many(rows)

    def table_relation(self, name: str) -> Relation:
        return self.catalog.table(name).to_relation()

    # -- pipeline ---------------------------------------------------------------------

    def _analyze_and_rewrite(self, stmt: ast.SelectNode) -> tuple[Query, float]:
        """Parse tree → analyzed, provenance-rewritten, optimized tree,
        with the seconds the provenance rewriter took."""
        stages = frontend(self.catalog, stmt, self.provenance_module_enabled)
        next(stages)
        start = time.perf_counter()
        next(stages)
        rewrite_seconds = time.perf_counter() - start
        if not self.provenance_module_enabled:
            rewrite_seconds = 0.0
        return next(stages), rewrite_seconds

    def _prepare_select(self, stmt: ast.SelectNode) -> PreparedQuery:
        start = time.perf_counter()
        query, rewrite_seconds = self._analyze_and_rewrite(stmt)
        plan = make_planner(self.catalog).plan(query)
        compile_seconds = time.perf_counter() - start
        return PreparedQuery(
            plan=plan,
            query=query,
            compile_seconds=compile_seconds,
            rewrite_seconds=rewrite_seconds,
        )

    def _run_select(self, stmt: ast.SelectNode) -> tuple[Query, QueryResult]:
        """Analyze, rewrite, and execute a SELECT on the active backend."""
        query, _ = self._analyze_and_rewrite(stmt)
        return query, self._backend.run_select(query)

    def _execute_select(self, stmt: ast.SelectNode) -> QueryResult:
        """Run one SELECT of a script (uncached: there is no text to key
        it by); ``SELECT INTO`` stores its result as a new table."""
        if not stmt.into:
            return self.run_compiled(self.compile_select(stmt))
        query, result = self._run_select(stmt)
        self._store_into(query.into, query, result)
        return QueryResult(columns=[], rows=[], command=f"SELECT INTO {len(result)}")

    def _execute_statement(self, stmt: ast.Statement) -> QueryResult:
        if isinstance(stmt, (ast.SelectStmt, ast.SetOpSelect)):
            return self._execute_select(stmt)
        if isinstance(stmt, ast.CreateTableStmt):
            return self._execute_create_table(stmt)
        if isinstance(stmt, ast.CreateViewStmt):
            return self._execute_create_view(stmt)
        if isinstance(stmt, ast.InsertStmt):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.DeleteStmt):
            return self._execute_delete(stmt)
        if isinstance(stmt, ast.UpdateStmt):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.CreateMatViewStmt):
            return self._execute_create_matview(stmt)
        if isinstance(stmt, ast.RefreshMatViewStmt):
            return self._execute_refresh_matview(stmt)
        if isinstance(stmt, ast.DropStmt):
            return self._execute_drop(stmt)
        if isinstance(stmt, ast.ExplainStmt):
            prepared = self._prepare_select(stmt.query)
            lines = prepared.plan.explain().splitlines()
            return QueryResult(
                columns=["query plan"], rows=[(line,) for line in lines]
            )
        if isinstance(stmt, ast.AnalyzeStmt):
            return self.analyze(stmt.table)
        raise PermError(f"unsupported statement {stmt!r}")

    # -- DDL / DML -------------------------------------------------------------------------

    def _execute_create_table(self, stmt: ast.CreateTableStmt) -> QueryResult:
        columns = []
        for col in stmt.columns:
            try:
                col_type = type_from_name(col.type_name)
            except ValueError as exc:
                raise AnalyzeError(str(exc)) from None
            columns.append(Column(col.name.lower(), col_type))
        schema = TableSchema(stmt.name.lower(), columns, tuple(stmt.primary_key))
        self.catalog.create_table(schema)
        return QueryResult(columns=[], rows=[], command="CREATE TABLE")

    def _execute_create_view(self, stmt: ast.CreateViewStmt) -> QueryResult:
        # Validate the view body analyzes cleanly before storing it.
        Analyzer(self.catalog).analyze(stmt.query)
        view = ViewDefinition(
            name=stmt.name.lower(),
            sql=stmt.sql_text,
            statement=stmt.query,
            provenance_attributes=tuple(stmt.provenance_attrs),
        )
        self.catalog.create_view(view)
        return QueryResult(columns=[], rows=[], command="CREATE VIEW")

    def _execute_insert(self, stmt: ast.InsertStmt) -> QueryResult:
        table = self.catalog.table(stmt.table)
        if stmt.columns:
            indexes = [table.schema.column_index(c) for c in stmt.columns]
        else:
            indexes = list(range(len(table.schema.columns)))
        width = len(table.schema.columns)
        # Text bound for a DATE column (``'1997-01-01'``) is parsed, so
        # the heap never holds a str where comparisons expect a date.
        columns = table.schema.columns
        date_columns = [i for i in indexes if columns[i].type is SQLType.DATE]

        if stmt.query is not None:
            source_rows = self._run_select(stmt.query)[1].rows
        else:
            source_rows = [self._eval_values_row(row) for row in stmt.values]

        # Every row is checked before the first one lands, so a rejected
        # statement leaves the table untouched.
        full_rows: list[tuple] = []
        for values in source_rows:
            if len(values) != len(indexes):
                raise ExecutionError(
                    f"INSERT has {len(values)} expressions but "
                    f"{len(indexes)} target columns"
                )
            row: list[Any] = [None] * width
            for index, value in zip(indexes, values):
                row[index] = value
            for index in date_columns:
                text = row[index]
                if isinstance(text, str):
                    try:
                        row[index] = parse_date(text)
                    except ValueError:
                        raise TypeMismatchError(
                            f"INSERT INTO {table.name}: column "
                            f"{columns[index].name!r} is DATE, got {text!r}"
                        ) from None
            full_rows.append(tuple(row))
        inserted = table.insert_many(full_rows)
        if inserted:
            table.record_delta("INSERT", inserted=full_rows)
        return QueryResult(columns=[], rows=[], command=f"INSERT {inserted}")

    def _execute_delete(self, stmt: ast.DeleteStmt) -> QueryResult:
        table = self.catalog.table(stmt.table)
        matched = self._dml_matched_rows(stmt.table, stmt.where)
        removed = table.remove_rows(matched)
        if removed:
            table.record_delta("DELETE", deleted=matched)
        return QueryResult(columns=[], rows=[], command=f"DELETE {removed}")

    def _execute_update(self, stmt: ast.UpdateStmt) -> QueryResult:
        table = self.catalog.table(stmt.table)
        assigned: dict[str, ast.Expr] = {}
        for column, expr in stmt.assignments:
            if not table.schema.has_column(column):
                raise AnalyzeError(
                    f"UPDATE {stmt.table}: no column {column!r}"
                )
            if column.lower() in assigned:
                raise ExecutionError(
                    f"UPDATE assigns column {column!r} more than once"
                )
            assigned[column.lower()] = expr
        # One scan computes both images: the matched pre-image rows and,
        # per row, the post-image with SET expressions substituted.
        new_exprs = [
            ast.ResTarget(
                expr=assigned.get(col.name, ast.ColumnRef(name=col.name))
            )
            for col in table.schema.columns
        ]
        select = ast.SelectStmt(
            target_list=[ast.ResTarget(expr=ast.Star())] + new_exprs,
            from_clause=[ast.RangeVar(name=stmt.table)],
            where=stmt.where,
        )
        width = len(table.schema.columns)
        paired = self._prepare_select(select).run().rows
        old_rows = [row[:width] for row in paired]
        new_rows = [row[width:] for row in paired]
        removed = table.remove_rows(old_rows)
        if removed:
            table.insert_many(new_rows)
            table.record_delta("UPDATE", inserted=new_rows, deleted=old_rows)
        return QueryResult(columns=[], rows=[], command=f"UPDATE {removed}")

    def _dml_matched_rows(self, table_name: str, where: Optional[ast.Expr]) -> list[tuple]:
        """The full rows a DML predicate matches, evaluated in-process.

        Always runs on the Python engine (never a data-shipping backend):
        the rows come back by value and are matched against the heap, so
        any backend-side value conversion would silently miss rows.
        """
        select = ast.SelectStmt(
            target_list=[ast.ResTarget(expr=ast.Star())],
            from_clause=[ast.RangeVar(name=table_name)],
            where=where,
        )
        return self._prepare_select(select).run().rows

    def _eval_values_row(self, exprs: list[ast.Expr]) -> tuple:
        analyzer = Analyzer(self.catalog)
        compiler = ExprCompiler({}, [], plan_subquery=None)
        ctx = ExecContext()
        values = []
        for item in exprs:
            analyzed = analyzer._analyze_expr(item, scopes=[], allow_aggs=False)
            values.append(compiler.compile(analyzed)((), ctx))
        return tuple(values)

    def _execute_drop(self, stmt: ast.DropStmt) -> QueryResult:
        if stmt.kind == "table":
            self.catalog.drop_table(stmt.name, missing_ok=stmt.if_exists)
            return QueryResult(columns=[], rows=[], command="DROP TABLE")
        if stmt.kind == "matview":
            self.catalog.drop_matview(stmt.name, missing_ok=stmt.if_exists)
            return QueryResult(
                columns=[], rows=[], command="DROP MATERIALIZED PROVENANCE VIEW"
            )
        self.catalog.drop_view(stmt.name, missing_ok=stmt.if_exists)
        return QueryResult(columns=[], rows=[], command="DROP VIEW")

    # -- materialized provenance views ------------------------------------

    def _execute_create_matview(self, stmt: ast.CreateMatViewStmt) -> QueryResult:
        from repro.matview import maintenance, normalize_semantics
        from repro.matview.view import MaterializedProvenanceView
        from repro.sql.printer import format_statement

        if not self.provenance_module_enabled:
            raise PermError(
                "materialized provenance views require the provenance "
                "module (provenance_module_enabled=True)"
            )
        maintenance.validate_definition(stmt.query)
        view = MaterializedProvenanceView(
            name=stmt.name.lower(),
            sql=stmt.sql_text or format_statement(stmt),
            statement=stmt.query,
            semantics=normalize_semantics(stmt.query.provenance_type),
        )
        # Materialize before registering: a definition that fails to
        # analyze/rewrite/plan must not leave a broken catalog entry.
        maintenance.full_refresh(self, view)
        self.catalog.create_matview(view)
        return QueryResult(
            columns=[], rows=[], command="CREATE MATERIALIZED PROVENANCE VIEW"
        )

    def _execute_refresh_matview(self, stmt: ast.RefreshMatViewStmt) -> QueryResult:
        from repro.matview import maintenance

        view = self.catalog.matview(stmt.name)
        with view.lock:
            maintenance.full_refresh(self, view)
        return QueryResult(
            columns=[], rows=[], command="REFRESH MATERIALIZED PROVENANCE VIEW"
        )

    def _store_into(self, name: str, query: Query, result: QueryResult) -> None:
        """SELECT INTO: materialize a result (e.g. stored provenance)."""
        if self.catalog.has_relation(name):
            raise CatalogError(f"relation {name!r} already exists")
        types = query.output_types()
        columns = [
            Column(col, SQLType.TEXT if t == SQLType.NULL else t)
            for col, t in zip(result.columns, types)
        ]
        schema = TableSchema(name.lower(), columns)
        table = self.catalog.create_table(schema)
        table.insert_many(result.rows)


def connect(
    provenance_module_enabled: bool = True,
    backend: "BackendSpec" = "python",
    shards: Optional[int] = None,
    shard_keys: Optional[dict] = None,
    auto_analyze: bool = True,
    wal_dir: Optional[str] = None,
    wal_sync: str = "always",
    wal_checkpoint_interval: Optional[int] = None,
) -> PermDatabase:
    """Create a fresh in-memory Perm database.

    Every SELECT runs the paper's whole frontend — analyze, provenance
    rewrite, logical optimization (``docs/optimizer.md``) — before it
    reaches a backend; ``explain()`` and ``rewritten_sql(optimized=False)``
    show the tree before the optimizer.
    The Python engine always runs batch-at-a-time with scan→filter→
    project chains fused into generated kernels (``docs/executor.md``).
    Planning is cost-based: one planner orders joins and picks operators
    from ANALYZE statistics (``docs/planner.md``).  Every statement runs
    serially, on the calling thread.
    ``auto_analyze=False`` disables automatic
    refresh of stale ANALYZE statistics.

    ``shards=N`` runs queries on the hash-partitioned sharded backend:
    every catalog table is mirrored across N child instances of
    ``backend`` (partitioned by ``shard_keys[table]``, defaulting to
    the first primary-key column; ``None`` replicates), rewritten
    queries scatter to the relevant shards — pruned by shard-key
    predicates — and the partial results gather-merge semiring-natively.
    See ``docs/sharding.md``.

    ``wal_dir`` makes the database durable: committed DML/DDL is
    write-ahead logged there, any state a previous process left in the
    directory is recovered before this call returns, and
    :meth:`PermDatabase.checkpoint` snapshots + truncates the log.
    ``wal_sync`` picks the fsync policy (``"always"`` — commit implies
    durable — or ``"batch"``/``"never"``); ``wal_checkpoint_interval``
    auto-checkpoints after that many logged statements (0 disables).
    See ``docs/durability.md``.
    """
    return PermDatabase(
        provenance_module_enabled=provenance_module_enabled,
        backend=backend,
        shards=shards,
        shard_keys=shard_keys,
        auto_analyze=auto_analyze,
        wal_dir=wal_dir,
        wal_sync=wal_sync,
        wal_checkpoint_interval=wal_checkpoint_interval,
    )
