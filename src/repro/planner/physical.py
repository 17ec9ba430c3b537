"""Stage 3 of the planner pipeline: logical join graphs -> physical plans.

:class:`PlannerBase` owns all plan-*emission* machinery — compiling
expressions against slot layouts, building scans/joins/aggregates,
sublink and set-operation planning, shared-subplan materialization, the
aggregation-fusion shape — while delegating the plan-*choice* questions
to hooks:

* :meth:`PlannerBase._order_joins` — in which order the free inner-join
  set is joined;
* :meth:`PlannerBase._choose_sides` — which input builds the hash table;
* :meth:`PlannerBase._make_slice` — how far projections are pushed down;
* the ``_annotate_*`` hooks — the cardinality estimates written onto
  every emitted node (rendered as ``est=`` by ``EXPLAIN``).

:class:`CostBasedPlanner` (the default) answers them with the
statistics-driven cost model of :mod:`repro.planner.cost`: exact
dynamic-programming join ordering over operand subsets (greedy operator
ordering above ``DP_MAX_RELATIONS`` operands), build-side swapping,
late-materialization slice pushdown through hash joins, width-driven
column- vs row-backed join output, and batch sizes bounded by the
largest estimated intermediate.  The legacy heuristic answers live in
:mod:`repro.planner.heuristic` and stay reachable through
``PermDatabase(cost_based=False)``.

The plan output layout always equals the query's *full* target list
(including resjunk sort entries); junk columns are sliced away at the
very end.  Set-operation nodes plan each leaf subquery and fold the
set-operation tree into SetOpPlanNode instances.  Sublinks are planned
through a callback handed to the expression compiler; correlated
sublinks receive the stack of enclosing layouts so their free Vars
compile into reads of the executor's outer-row stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.catalog.catalog import Catalog
from repro.errors import PlanError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    Query,
    RangeTableEntry,
    RTEKind,
    SetOpRangeRef,
    SetOpTreeNode,
)
from repro.executor.expr_eval import ExprCompiler, VarMap
from repro.executor.nodes import (
    DistinctNode,
    FilterNode,
    HashAggregate,
    HashJoin,
    LimitNode,
    NestedLoopJoin,
    OneRow,
    PlanNode,
    ProjectNode,
    SetOpPlanNode,
    SliceNode,
    SortNode,
)
from repro.planner.logical import (
    LogicalFusedJoin,
    LogicalJoinGraph,
    LogicalOuterJoin,
    LogicalScan,
    LogicalSubquery,
    LogicalUnit,
    conjoin,
    decompose_from_where,
    extract_equi_keys,
)
from repro.storage.chunk import DEFAULT_BATCH_SIZE

if TYPE_CHECKING:
    from repro.planner.cost import ConjunctFacts

# Synthetic varno for post-aggregation slots (group keys + agg results).
_POST_AGG_VARNO = -1


def _slot_reader(slot: int):
    """A compiled expression that reads one input slot."""
    return lambda row, ctx: row[slot]


def _slot_column(slot: int):
    """The batch-mode twin of :func:`_slot_reader`: one chunk column."""
    return lambda chunk, ctx: chunk.column(slot)


def _conjoin_predicates(first, second):
    """Combine two compiled predicates into one three-valued AND.

    Filter semantics only keep rows where the predicate is exactly True,
    so short-circuiting on ``is not True`` preserves NULL handling.
    """

    def combined(row, ctx):
        verdict = first(row, ctx)
        if verdict is not True:
            return verdict
        return second(row, ctx)

    return combined


class _Unit:
    """A placed or placeable join operand: subplan + var layout.

    ``from_subquery`` marks units derived from subquery RTEs (directly or
    inside an outer-join subtree); the heuristic join order attaches them
    last.  ``scope`` (cost-based planning only) maps ``(varno, varattno)``
    to the :class:`~repro.planner.stats.ColumnStats` of the base column a
    slot carries, threaded through joins and subquery target lists so the
    cost model can see NDVs and value ranges across operator boundaries.
    """

    __slots__ = (
        "plan",
        "varmap",
        "rtindexes",
        "from_subquery",
        "scope",
        "range_bounds",
    )

    def __init__(
        self,
        plan: PlanNode,
        varmap: VarMap,
        rtindexes: set[int],
        from_subquery: bool = False,
        scope: Optional[dict] = None,
    ) -> None:
        self.plan = plan
        self.varmap = varmap
        self.rtindexes = rtindexes
        self.from_subquery = from_subquery
        self.scope = scope
        # Tightest stats-backed range-bound selectivities pushed so far,
        # per column: (varno, attno) -> {'lo': s, 'hi': s, 'applied': s}.
        # The cost-based planner pairs opposite bounds on one column so
        # their interval mass replaces the independence product.
        self.range_bounds: Optional[dict] = None


class _SharedSubplans:
    """Statement-scoped registry for common-subplan deduplication.

    The provenance rewrite duplicates whole subqueries (the original
    sublink and its rewritten copy, q_agg's inputs inside d, TPC-H Q15's
    twice-inlined revenue view).  Structurally identical, uncorrelated
    subqueries plan once and share a materialized result — the spool/CTE
    sharing a cost-based DBMS applies to common subexpressions.

    The registry doubles as the statement-wide accumulator for the
    cost model's intermediate-cardinality bounds (``max_scan_rows`` /
    ``max_intermediate_rows``), since exactly one instance spans all
    planner recursions of a statement.
    """

    __slots__ = ("entries", "max_scan_rows", "max_intermediate_rows")

    def __init__(self) -> None:
        # (cheap signature, query tree, shared materialized plan)
        self.entries: list[tuple[tuple, Query, PlanNode]] = []
        self.max_scan_rows = 0.0
        self.max_intermediate_rows = 0.0

    @staticmethod
    def signature(query: Query) -> tuple:
        return (
            query.node_class().value,
            len(query.target_list),
            len(query.range_table),
            tuple(query.output_columns()),
        )

    def lookup(self, query: Query) -> Optional[PlanNode]:
        from repro.optimizer.treeutils import queries_structurally_equal

        signature = self.signature(query)
        for entry_signature, entry_query, node in self.entries:
            if entry_signature != signature:
                continue
            if entry_query is query or queries_structurally_equal(
                query, entry_query
            ):
                return node
        return None

    def remember(self, query: Query, plan: PlanNode) -> PlanNode:
        from repro.executor.nodes import MaterializeNode

        node = MaterializeNode(plan)
        node.estimate = plan.estimate
        self.entries.append((self.signature(query), query, node))
        return node


def _expr_parallel_safe(expr: ex.Expr) -> bool:
    """Whether an expression may evaluate inside a morsel worker.

    Sublinks are excluded because their subplans execute against
    per-execution caches and (when correlated) the outer-row stack;
    outer Vars (``levelsup > 0``) are excluded for the same reason —
    both read context state an exchange worker does not carry.
    """
    return not any(
        isinstance(node, ex.SubLink)
        or (isinstance(node, ex.Var) and node.levelsup > 0)
        for node in ex.walk(expr)
    )


class PlannerBase:
    """Shared plan-emission machinery; subclasses answer the choices."""

    #: Morsel-parallel fan-out for the exchange-insertion post-pass
    #: (:mod:`repro.parallel.planning`); 1 disables it.  Set by
    #: :func:`repro.planner.make_planner` on root planners only — child
    #: planners (sublinks, set-op arms) keep the default, the root's
    #: post-pass walks the whole reachable tree anyway.
    parallel_workers: int = 1
    #: Morsel size override for inserted exchanges (None = default).
    morsel_size: Optional[int] = None
    #: Worker-pool strategy inserted exchanges dispatch on
    #: (``thread`` / ``process`` / ``serial``).
    parallel_executor: str = "thread"
    #: Pipeline-fusion post-pass toggle (vectorized plans only): when
    #: set, scan→filter→project chains collapse into one generated
    #: kernel (:mod:`repro.executor.fusion`).  ``connect`` threads the
    #: user's ``fuse_pipelines`` flag here through ``make_planner``.
    fuse_pipelines: bool = True

    def __init__(
        self,
        catalog: Catalog,
        outer_varmaps: Optional[list[VarMap]] = None,
        shared: Optional[_SharedSubplans] = None,
        vectorize: bool = False,
    ) -> None:
        self.catalog = catalog
        self.outer_varmaps = list(outer_varmaps or [])
        # Root planners (fresh shared-subplan registry) own statement-
        # level post-passes such as exchange insertion; spawned child
        # planners inherit the registry and skip them.
        self._root = shared is None
        self.shared = shared if shared is not None else _SharedSubplans()
        # When set, every expression is additionally compiled to a batch
        # kernel and attached to the plan nodes, enabling the vectorized
        # ``run_batches`` protocol on the whole tree.  Subtrees whose
        # expressions resist vectorization degrade per-expression (the
        # kernel falls back to the row closure internally) or per-node
        # (conditional nested loops bridge to the row protocol).
        self.vectorize = vectorize
        # Output column statistics of the most recently planned query
        # (parallel to its visible+junk target list); consumed by parent
        # planners to thread stats through subquery boundaries.
        self.output_stats: Optional[list] = None

    def _spawn(self, outer_varmaps: Optional[list[VarMap]] = None) -> "PlannerBase":
        """A child planner of the same concrete class."""
        child = type(self)(
            self.catalog, outer_varmaps, self.shared, vectorize=self.vectorize
        )
        child.fuse_pipelines = self.fuse_pipelines
        return child

    # -- decision hooks (answered by subclasses) ------------------------------

    def _order_joins(self, units: list[_Unit], pool: list[ex.Expr]) -> _Unit:
        """Join the free inner-join set; consumes the conjunct pool."""
        raise NotImplementedError

    def _choose_sides(
        self, left: _Unit, right: _Unit, join_type: str, conjuncts: list[ex.Expr]
    ) -> tuple[_Unit, _Unit]:
        """Probe/build side assignment (the build side is the right)."""
        return left, right

    def _annotate_scan(self, unit: _Unit, rte: RangeTableEntry) -> None:
        """Estimate/statistics bookkeeping for a fresh scan unit."""

    def _annotate_join(
        self,
        unit: _Unit,
        left: _Unit,
        right: _Unit,
        join_type: str,
        conjuncts: list[ex.Expr],
        estimate: Optional[float] = None,
    ) -> None:
        """Estimate/statistics bookkeeping for a fresh join unit
        (``estimate``: the output estimate, when join ordering already
        priced this very join)."""

    def _annotate_aggregate(
        self, node: PlanNode, query: Query, joined: _Unit
    ) -> None:
        """Estimate bookkeeping for a fresh aggregation node."""

    def _finalize_plan(self, plan: PlanNode) -> PlanNode:
        """Last look at a finished (sub)plan root."""
        return plan

    # -- public API -----------------------------------------------------------

    def plan(self, query: Query, joined: Optional["_Unit"] = None) -> PlanNode:
        """Plan a query; output columns = visible target entries.

        ``joined`` (internal, aggregation-join fusion) substitutes an
        already-planned FROM/WHERE unit: the query's own join tree and
        quals are skipped and its aggregation/projection/sort pipeline is
        planned on top of the given subplan.
        """
        plan = self._plan_query(query, joined)
        if self.vectorize and self.fuse_pipelines:
            from repro.executor.fusion import fuse_pipelines

            plan = fuse_pipelines(plan)
        return plan

    def _plan_query(
        self, query: Query, joined: Optional["_Unit"] = None
    ) -> PlanNode:
        if query.set_operations is not None:
            self.output_stats = None
            plan = self._plan_setop_query(query)
            plan = self._apply_sort(query, plan)
            plan = self._apply_limit(query, plan)
            return self._finalize_plan(self._slice_junk(query, plan))
        # SELECT DISTINCT with ORDER BY expressions outside the select
        # list: sort the junk-extended projection first, slice the junk,
        # then deduplicate — DistinctNode keeps first occurrences, so the
        # output is ordered by each distinct row's first sort position.
        defer_distinct = query.distinct and any(
            t.resjunk for t in query.target_list
        )
        plan = self._plan_plain_query(
            query, skip_distinct=defer_distinct, joined=joined
        )
        if defer_distinct:
            plan = self._apply_sort(query, plan)
            plan = self._slice_junk(query, plan)
            plan = DistinctNode(plan)
            return self._finalize_plan(self._apply_limit(query, plan))
        plan = self._apply_sort(query, plan)
        plan = self._apply_limit(query, plan)
        return self._finalize_plan(self._slice_junk(query, plan))

    # -- helpers shared with the expression compiler ----------------------------

    def _plan_sublink(self, query: Query, outer_varmaps: list[VarMap]) -> PlanNode:
        if query.share_candidate:
            return self._plan_shared_subquery(query)
        return self._spawn(outer_varmaps).plan(query)

    def _sub_planner(self) -> "PlannerBase":
        """A child planner for closed subqueries (no enclosing layouts)."""
        return self._spawn()

    def _plan_shared_subquery(self, query: Query) -> PlanNode:
        """Plan a closed subquery; optimizer-marked duplicates share one
        materialized plan (``share_candidate`` implies the query is
        closed and occurs structurally repeated in the statement)."""
        if not query.share_candidate:
            child = self._sub_planner()
            plan = child.plan(query)
            plan.output_stats = child.output_stats  # type: ignore[attr-defined]
            return plan
        cached = self.shared.lookup(query)
        if cached is not None:
            return cached
        child = self._sub_planner()
        plan = child.plan(query)
        node = self.shared.remember(query, plan)
        node.output_stats = child.output_stats  # type: ignore[attr-defined]
        return node

    def _compiler(self, varmap: VarMap) -> ExprCompiler:
        return ExprCompiler(varmap, self.outer_varmaps, plan_subquery=self._plan_sublink)

    # -- batch-kernel compilation helpers --------------------------------------

    def _batch_compile(self, compiler: ExprCompiler, expr: ex.Expr):
        """The expression's batch kernel, or None when not vectorizing."""
        return compiler.compile_batch(expr) if self.vectorize else None

    def _batch_compile_all(
        self, compiler: ExprCompiler, exprs: list[ex.Expr]
    ) -> Optional[list]:
        if not self.vectorize:
            return None
        return [compiler.compile_batch(e) for e in exprs]

    def _batch_target_exprs(
        self,
        compiler: ExprCompiler,
        exprs: list[ex.Expr],
        slots: list[Optional[int]],
    ) -> Optional[list]:
        """Projection kernels; slot-covered positions pass through as None."""
        if not self.vectorize:
            return None
        return [
            None if slot is not None else compiler.compile_batch(expr)
            for expr, slot in zip(exprs, slots)
        ]

    def _filter_node(
        self, plan: PlanNode, compiler: ExprCompiler, conjunct: ex.Expr
    ) -> FilterNode:
        """A FilterNode with both row and (when vectorizing) batch forms."""
        batch = self._batch_compile(compiler, conjunct)
        node = FilterNode(
            plan,
            compiler.compile(conjunct),
            [batch] if batch is not None else None,
        )
        if batch is not None:
            node.fusion = (compiler.varmap, [conjunct])
        if not _expr_parallel_safe(conjunct):
            node.parallel_safe = False
        return node

    def _push_conjunct(self, unit: "_Unit", conjunct: ex.Expr) -> None:
        """Compile a conjunct against a unit's layout and push it down."""
        compiler = self._compiler(unit.varmap)
        batch = self._batch_compile(compiler, conjunct)
        self._push_filter(unit, compiler.compile(conjunct), batch)
        self._note_fusion_conjunct(unit.plan, unit.varmap, conjunct, batch)
        if not _expr_parallel_safe(conjunct):
            # The push either merged into unit.plan (scan/filter) or
            # wrapped it in a fresh FilterNode; either way the node now
            # carrying this conjunct must not run inside a morsel worker.
            unit.plan.parallel_safe = False

    @staticmethod
    def _note_fusion_conjunct(
        plan: PlanNode, varmap: VarMap, conjunct: ex.Expr, batch
    ) -> None:
        """Record a pushed conjunct's analyzed form on the node now
        carrying it, in parallel with its batch kernel — the fusion
        pass re-emits it as inline source.  A conjunct without a batch
        form poisons the metadata exactly as it poisons batch mode."""
        from repro.executor.nodes import SeqScan

        if not isinstance(plan, (SeqScan, FilterNode)):
            return
        if batch is None or plan.batch_predicates is None:
            plan.fusion = None
            return
        if plan.fusion is None:
            plan.fusion = (varmap, [conjunct])
        else:
            plan.fusion[1].append(conjunct)

    # -- RTE plans ------------------------------------------------------------------

    def _plan_rte(self, rtindex: int, rte: RangeTableEntry) -> _Unit:
        if rte.kind is RTEKind.RELATION:
            table = self.catalog.table(rte.relation_name)
            from repro.executor.nodes import SeqScan

            if rte.used_attnos is not None and len(rte.used_attnos) < rte.width():
                # Optimizer projection-pruning hint: emit only the columns
                # this query references, so joins concatenate short tuples.
                keep = sorted(rte.used_attnos)
                plan: PlanNode = SeqScan(
                    table, [rte.column_names[i] for i in keep], columns=keep
                )
                varmap = {
                    (rtindex, attno): slot for slot, attno in enumerate(keep)
                }
                unit = _Unit(plan, varmap, {rtindex})
                self._annotate_scan(unit, rte)
                return unit
            plan = SeqScan(table, list(rte.column_names))
        else:
            # FROM subqueries are uncorrelated (no LATERAL), so they plan
            # with an empty enclosing-layout stack — and being closed,
            # structurally identical ones share one materialized plan.
            plan = self._plan_shared_subquery(rte.subquery)
        varmap = {(rtindex, attno): attno for attno in range(rte.width())}
        unit = _Unit(
            plan, varmap, {rtindex}, from_subquery=rte.kind is RTEKind.SUBQUERY
        )
        self._annotate_scan(unit, rte)
        return unit

    # -- plain (A)SPJ queries -----------------------------------------------------------

    def _plan_plain_query(
        self,
        query: Query,
        skip_distinct: bool = False,
        joined: Optional[_Unit] = None,
    ) -> PlanNode:
        if joined is None:
            joined = self._plan_from_where(query)
        if query.has_aggs or query.group_clause:
            plan, varmap, target_exprs = self._plan_aggregation(query, joined)
            scope: dict = {}
        else:
            plan, varmap = joined.plan, joined.varmap
            target_exprs = [t.expr for t in query.target_list]
            scope = joined.scope or {}
        self.output_stats = [
            scope.get((t.varno, t.varattno))
            if isinstance(t, ex.Var) and t.levelsup == 0
            else None
            for t in target_exprs
        ]
        # Project the full target list (visible + junk).  A target list of
        # plain column references — the dominant shape in provenance
        # rewrites — becomes a SliceNode (C-level row rearrangement)
        # instead of per-expression closure calls.
        names = [t.name for t in query.target_list]
        slots = self._var_only_slots(target_exprs, varmap)
        if slots is not None:
            plan = self._make_slice(plan, slots, names)
        else:
            compiler = self._compiler(varmap)
            exprs = [compiler.compile(e) for e in target_exprs]
            slot_hints = self._slot_hints(target_exprs, varmap)
            plan = ProjectNode(
                plan, exprs, names,
                slots=slot_hints,
                batch_exprs=self._batch_target_exprs(
                    compiler, target_exprs, slot_hints
                ),
            )
            if self.vectorize:
                plan.fusion = (varmap, list(target_exprs))
            if not all(_expr_parallel_safe(e) for e in target_exprs):
                plan.parallel_safe = False
        if query.distinct and not skip_distinct:
            plan = DistinctNode(plan)
        return plan

    @staticmethod
    def _var_only_slots(
        target_exprs: list[ex.Expr], varmap: VarMap
    ) -> Optional[list[int]]:
        """Input slots when every target is a local Var; None otherwise."""
        slots: list[int] = []
        for expr in target_exprs:
            if not isinstance(expr, ex.Var) or expr.levelsup != 0:
                return None
            slot = varmap.get((expr.varno, expr.varattno))
            if slot is None:
                return None
            slots.append(slot)
        return slots

    @staticmethod
    def _slot_hints(
        target_exprs: list[ex.Expr], varmap: VarMap
    ) -> list[Optional[int]]:
        """Per-position input slots for plain-Var targets (mixed lists)."""
        return [
            varmap.get((expr.varno, expr.varattno))
            if isinstance(expr, ex.Var) and expr.levelsup == 0
            else None
            for expr in target_exprs
        ]

    # -- FROM/WHERE: logical graph -> joined unit ---------------------------------

    def _plan_from_where(self, query: Query) -> _Unit:
        graph = decompose_from_where(query)
        if not graph.units:
            base: PlanNode = OneRow()
            unit = _Unit(base, {}, set())
            for conjunct in graph.late:
                unit = _Unit(
                    self._filter_node(unit.plan, self._compiler({}), conjunct),
                    {},
                    set(),
                )
            return unit
        return self._plan_graph(graph, query)

    def _plan_graph(self, graph: LogicalJoinGraph, query: Query) -> _Unit:
        units = [self._plan_logical_unit(u, query) for u in graph.units]
        if len(units) == 1 and not graph.pool and not graph.late:
            return units[0]
        joined = self._order_joins(units, list(graph.pool))
        for conjunct in graph.late:
            joined.plan = self._filter_node(
                joined.plan, self._compiler(joined.varmap), conjunct
            )
        return joined

    def _plan_logical_unit(self, lunit: LogicalUnit, query: Query) -> _Unit:
        if isinstance(lunit, (LogicalScan, LogicalSubquery)):
            unit = self._plan_rte(lunit.rtindex, lunit.rte)
        elif isinstance(lunit, LogicalFusedJoin):
            unit = self._plan_fused_unit(query, lunit.pair)
        elif isinstance(lunit, LogicalOuterJoin):
            unit = self._plan_outer_unit(lunit, query)
        else:  # pragma: no cover - exhaustive
            raise PlanError(f"unknown logical unit {lunit!r}")
        for conjunct in lunit.conjuncts:
            self._push_conjunct(unit, conjunct)
        return unit

    def _plan_outer_unit(self, louter: LogicalOuterJoin, query: Query) -> _Unit:
        left = self._plan_graph(louter.left, query)
        right = self._plan_graph(louter.right, query)
        for conjunct in louter.left_top:
            self._push_conjunct(left, conjunct)
        for conjunct in louter.right_top:
            self._push_conjunct(right, conjunct)
        return self._join_units(
            left,
            right,
            louter.join_type,
            list(louter.conditions),
            from_subquery=left.from_subquery or right.from_subquery,
        )

    @staticmethod
    def _push_filter(unit: _Unit, predicate, batch_predicate=None) -> None:
        """Attach a single-unit filter, merging into an existing scan
        predicate or filter node — conjuncts arrive one at a time and a
        stack of generator frames costs more than one combined check.

        Batch kernels accumulate as a list (applied in order over
        selection vectors); a conjunct without a batch form poisons the
        node's batch predicate so execution falls back to the row bridge
        rather than silently dropping the conjunct.
        """
        from repro.executor.nodes import SeqScan

        plan = unit.plan
        if isinstance(plan, SeqScan):
            had_predicate = plan.predicate is not None
            if not had_predicate:
                plan.predicate = predicate
            else:
                plan.predicate = _conjoin_predicates(plan.predicate, predicate)
            if batch_predicate is None:
                plan.batch_predicates = None
            elif had_predicate and plan.batch_predicates is None:
                pass  # earlier row-only conjunct already poisoned batch mode
            else:
                if plan.batch_predicates is None:
                    plan.batch_predicates = []
                plan.batch_predicates.append(batch_predicate)
            plan.estimate = max(plan.estimate * 0.25, 1.0)
            return
        if isinstance(plan, FilterNode):
            plan.predicate = _conjoin_predicates(plan.predicate, predicate)
            if batch_predicate is None or plan.batch_predicates is None:
                plan.batch_predicates = None
            else:
                plan.batch_predicates.append(batch_predicate)
            plan.estimate = max(plan.estimate * 0.25, 1.0)
            return
        unit.plan = FilterNode(
            plan,
            predicate,
            [batch_predicate] if batch_predicate is not None else None,
        )

    # -- aggregation-join fusion (Query.agg_share) -----------------------------

    def _plan_fused_unit(
        self, query: Query, pair: tuple[int, int, tuple[int, ...]]
    ) -> _Unit:
        """Plan the ``q_agg ⋈ d+`` pair over one shared, materialized core.

        The optimizer verified that both subqueries' FROM/WHERE produce
        the same bag of rows and that their range tables are numbered
        isomorphically (the provenance side only appends output columns),
        so the aggregate side's expressions compile directly against the
        core's variable layout.  The core runs once: the aggregation
        consumes the materialization, then the provenance projection
        re-reads it while hash-joining the aggregate rows back on the
        (null-safe) group keys.
        """
        from repro.executor.nodes import MaterializeNode

        agg_index, prov_index, positions = pair
        agg = query.range_table[agg_index].subquery
        prov = query.range_table[prov_index].subquery
        assert agg is not None and prov is not None

        inner = self._sub_planner()
        core = inner._plan_from_where(prov)
        mat = MaterializeNode(core.plan)
        mat.estimate = core.plan.estimate

        # Provenance-side projection over the core.  When every output is
        # a plain column reference (the rewriter's usual shape) no
        # projection runs at all — the parent's Vars map straight onto
        # core slots and the join emits raw core rows.
        names = [t.name for t in prov.target_list]
        target_exprs = [t.expr for t in prov.target_list]
        slots = self._var_only_slots(target_exprs, core.varmap)
        if slots is not None:
            left: PlanNode = mat
            b_slots = slots
        else:
            compiler = inner._compiler(core.varmap)
            slot_hints = self._slot_hints(target_exprs, core.varmap)
            left = ProjectNode(
                mat,
                [compiler.compile(e) for e in target_exprs],
                names,
                slots=slot_hints,
                batch_exprs=self._batch_target_exprs(
                    compiler, target_exprs, slot_hints
                ),
            )
            b_slots = list(range(len(target_exprs)))

        # Aggregate-side pipeline (agg + having + targets + sort/limit)
        # over the same materialization.  A structurally shared twin
        # elsewhere in the statement (Q13's inner aggregate, a HAVING
        # sublink's body) reuses one plan through the subplan registry.
        agg_plan: Optional[PlanNode] = None
        if agg.share_candidate:
            agg_plan = self.shared.lookup(agg)
        if agg_plan is None:
            agg_plan = self._sub_planner().plan(
                agg,
                joined=_Unit(
                    mat, dict(core.varmap), set(core.rtindexes), scope=core.scope
                ),
            )
            if agg.share_candidate:
                agg_plan = self.shared.remember(agg, agg_plan)

        if positions:
            left_keys = [_slot_reader(b_slots[i]) for i in range(len(positions))]
            right_keys = [_slot_reader(p) for p in positions]
            join: PlanNode = HashJoin(
                left,
                agg_plan,
                "inner",
                left_keys,
                right_keys,
                None,
                [True] * len(positions),
                batch_left_keys=(
                    [_slot_column(b_slots[i]) for i in range(len(positions))]
                    if self.vectorize
                    else None
                ),
                batch_right_keys=(
                    [_slot_column(p) for p in positions]
                    if self.vectorize
                    else None
                ),
            )
            join.left_key_slots = [b_slots[i] for i in range(len(positions))]
            join.right_key_slots = list(positions)
            join.estimate = max(left.estimate, 1.0)
        else:
            # Grand aggregate: a single aggregate row attaches to every
            # core row (and none when the core is empty — footnote 4).
            join = NestedLoopJoin(left, agg_plan, "inner", None)
            join.estimate = max(left.estimate, 1.0)

        b_width = left.width()
        varmap: VarMap = {
            (prov_index, p): b_slots[p] for p in range(len(target_exprs))
        }
        for slot in range(agg_plan.width()):
            varmap[(agg_index, slot)] = b_width + slot
        scope = None
        if core.scope:
            scope = {
                (prov_index, p): core.scope.get((t.varno, t.varattno))
                for p, t in enumerate(target_exprs)
                if isinstance(t, ex.Var) and t.levelsup == 0
            }
        return _Unit(
            join,
            varmap,
            {agg_index, prov_index},
            from_subquery=True,
            scope=scope,
        )

    # -- join construction --------------------------------------------------------

    def _join_units(
        self,
        left: _Unit,
        right: _Unit,
        join_type: str,
        conjuncts: list[ex.Expr],
        from_subquery: bool = False,
        estimate: Optional[float] = None,
    ) -> _Unit:
        """Join two placed units; the single site every join flows through."""
        left, right = self._choose_sides(left, right, join_type, conjuncts)
        merged_map = dict(left.varmap)
        offset = left.plan.width()
        for key, slot in right.varmap.items():
            merged_map[key] = slot + offset
        plan = self._make_join(left, right, merged_map, join_type, conjuncts)
        unit = _Unit(
            plan,
            merged_map,
            left.rtindexes | right.rtindexes,
            from_subquery=from_subquery,
        )
        self._annotate_join(unit, left, right, join_type, conjuncts, estimate)
        return unit

    def _make_join(
        self,
        left: _Unit,
        right: _Unit,
        merged_map: VarMap,
        join_type: str,
        conjuncts: list[ex.Expr],
    ) -> PlanNode:
        # ``ON TRUE`` (the rewriter's unconditional join marker) adds
        # nothing: dropping it turns the join into the condition-free
        # nested loop, which has the cheap vectorized cross-product path.
        conjuncts = [
            c
            for c in conjuncts
            if not (isinstance(c, ex.Const) and c.value is True)
        ]
        left_keys, right_keys, null_safe, residual = extract_equi_keys(
            conjuncts, left.rtindexes, right.rtindexes
        )
        compiler = self._compiler(merged_map)
        if left_keys:
            left_compiler = self._compiler(left.varmap)
            right_compiler = self._compiler(right.varmap)
            residual_fn = (
                compiler.compile(conjoin(residual)) if residual else None
            )
            join = HashJoin(
                left.plan,
                right.plan,
                join_type,
                [left_compiler.compile(k) for k in left_keys],
                [right_compiler.compile(k) for k in right_keys],
                residual_fn,
                null_safe,
                batch_left_keys=self._batch_compile_all(left_compiler, left_keys),
                batch_right_keys=self._batch_compile_all(
                    right_compiler, right_keys
                ),
                # Outer-join residuals ride the two-phase filter-then-
                # reconcile kernel only in the fused configuration, so
                # ``fuse_pipelines=False`` reproduces the pre-fusion
                # executor (per-pair residual closures) for differential
                # testing and benchmarking.
                batch_residual=(
                    self._batch_compile(compiler, conjoin(residual))
                    if residual
                    and (join_type == "inner" or self.fuse_pipelines)
                    else None
                ),
            )
            join.left_key_slots = self._var_key_slots(left_keys, left.varmap)
            join.right_key_slots = self._var_key_slots(right_keys, right.varmap)
            return join
        condition_fn = compiler.compile(conjoin(conjuncts)) if conjuncts else None
        return NestedLoopJoin(
            left.plan,
            right.plan,
            join_type,
            condition_fn,
            batch_condition=(
                self._batch_compile(compiler, conjoin(conjuncts))
                if conjuncts
                else None
            ),
        )

    @staticmethod
    def _var_key_slots(
        keys: list[ex.Expr], varmap: VarMap
    ) -> Optional[list[int]]:
        """Input slots when every hash key is a plain Var; None otherwise.

        The metadata late-materialization slice pushdown needs to remap
        keys onto narrowed join inputs.
        """
        slots: list[int] = []
        for key in keys:
            if not isinstance(key, ex.Var) or key.levelsup != 0:
                return None
            slot = varmap.get((key.varno, key.varattno))
            if slot is None:
                return None
            slots.append(slot)
        return slots

    # -- aggregation ---------------------------------------------------------------------

    def _plan_aggregation(
        self, query: Query, joined: _Unit
    ) -> tuple[PlanNode, VarMap, list[ex.Expr]]:
        from repro.executor.aggregates import make_aggregate_factory

        aggrefs: list[ex.Aggref] = []

        def collect(expr: ex.Expr) -> None:
            for node in ex.walk(expr):
                if isinstance(node, ex.Aggref) and node not in aggrefs:
                    aggrefs.append(node)

        for target in query.target_list:
            collect(target.expr)
        if query.having is not None:
            collect(query.having)

        input_compiler = self._compiler(joined.varmap)
        group_fns = [input_compiler.compile(g) for g in query.group_clause]
        agg_factories = []
        agg_args: list[Optional[Callable]] = []
        # Distinct argument expressions are compiled (and evaluated) once;
        # sum(x) and avg(x) share one evaluation of x per input row.
        arg_slots: list[Optional[int]] = []
        unique_arg_exprs: list[ex.Expr] = []
        unique_arg_fns: list[Callable] = []
        for aggref in aggrefs:
            agg_factories.append(
                make_aggregate_factory(aggref.aggname, aggref.star, aggref.distinct)
            )
            if aggref.arg is None:
                agg_args.append(None)
                arg_slots.append(None)
                continue
            try:
                slot = unique_arg_exprs.index(aggref.arg)
            except ValueError:
                slot = len(unique_arg_exprs)
                unique_arg_exprs.append(aggref.arg)
                unique_arg_fns.append(input_compiler.compile(aggref.arg))
            agg_args.append(unique_arg_fns[slot])
            arg_slots.append(slot)
        group_count = len(query.group_clause)
        output_names = [f"g{i}" for i in range(group_count)] + [
            f"agg{i}" for i in range(len(aggrefs))
        ]
        agg_plan: PlanNode = HashAggregate(
            joined.plan,
            group_fns,
            agg_factories,
            agg_args,
            output_names,
            arg_slots=arg_slots,
            unique_args=unique_arg_fns,
            batch_group_exprs=self._batch_compile_all(
                input_compiler, list(query.group_clause)
            ),
            batch_unique_args=self._batch_compile_all(
                input_compiler, unique_arg_exprs
            ),
        )
        if not all(
            _expr_parallel_safe(e)
            for e in [*query.group_clause, *unique_arg_exprs]
        ):
            agg_plan.parallel_safe = False
        self._annotate_aggregate(agg_plan, query, joined)
        post_varmap: VarMap = {
            (_POST_AGG_VARNO, slot): slot for slot in range(group_count + len(aggrefs))
        }

        # Rewrite post-aggregation expressions: whole-group-expr matches and
        # Aggrefs become Vars over the aggregate output.
        group_slots = list(enumerate(query.group_clause))

        def replace(expr: ex.Expr) -> ex.Expr:
            for slot, group_expr in group_slots:
                if expr == group_expr:
                    return ex.Var(
                        varno=_POST_AGG_VARNO,
                        varattno=slot,
                        type=expr.type,
                        name=f"g{slot}",
                    )
            if isinstance(expr, ex.Aggref):
                slot = group_count + aggrefs.index(expr)
                return ex.Var(
                    varno=_POST_AGG_VARNO, varattno=slot, type=expr.type, name=f"agg{slot}"
                )
            children = expr.children()
            if not children:
                return expr
            from repro.analyzer.expressions import rebuild_with_children

            return rebuild_with_children(expr, [replace(c) for c in children])

        target_exprs = [replace(t.expr) for t in query.target_list]
        if query.having is not None:
            agg_plan = self._filter_node(
                agg_plan, self._compiler(post_varmap), replace(query.having)
            )
        return agg_plan, post_varmap, target_exprs

    # -- set operations ---------------------------------------------------------------------

    def _plan_setop_query(self, query: Query) -> PlanNode:
        plan = self._plan_setop_tree(query.set_operations, query)
        plan = self._rename_output(plan, [t.name for t in query.target_list])
        return plan

    def _plan_setop_tree(self, node: SetOpTreeNode, query: Query) -> PlanNode:
        if isinstance(node, SetOpRangeRef):
            rte = query.range_table[node.rtindex]
            # Leaf subqueries are analyzed against the same outer scopes as
            # the set-operation node (no extra level), so the enclosing
            # layouts pass through unchanged — a correlated sublink whose
            # body is a set operation reads the same outer-row stack.
            return self._spawn(self.outer_varmaps).plan(rte.subquery)
        left = self._plan_setop_tree(node.left, query)
        right = self._plan_setop_tree(node.right, query)
        return SetOpPlanNode(node.op, node.all, left, right)

    @staticmethod
    def _rename_output(plan: PlanNode, names: list[str]) -> PlanNode:
        plan.output_names = list(names)
        return plan

    # -- sort / limit / junk removal -------------------------------------------------------------

    def _apply_sort(self, query: Query, plan: PlanNode) -> PlanNode:
        if query.sort_clause:
            specs = [
                (clause.tlist_index, clause.descending, clause.nulls_first)
                for clause in query.sort_clause
            ]
            plan = SortNode(plan, specs)
        return plan

    def _apply_limit(self, query: Query, plan: PlanNode) -> PlanNode:
        if query.limit_count is not None or query.limit_offset is not None:
            count = self._const_int(query.limit_count)
            offset = self._const_int(query.limit_offset) or 0
            plan = LimitNode(plan, count, offset)
        return plan

    @staticmethod
    def _const_int(expr: Optional[ex.Expr]) -> Optional[int]:
        if expr is None:
            return None
        if not isinstance(expr, ex.Const):
            raise PlanError("LIMIT/OFFSET must be constants")
        return int(expr.value)

    def _slice_junk(self, query: Query, plan: PlanNode) -> PlanNode:
        if not any(t.resjunk for t in query.target_list):
            return plan
        keep = [i for i, t in enumerate(query.target_list) if not t.resjunk]
        names = [query.target_list[i].name for i in keep]
        return self._make_slice(plan, keep, names)

    def _make_slice(
        self, plan: PlanNode, keep: list[int], names: list[str]
    ) -> PlanNode:
        """A SliceNode, pushed through unconditional nested loops.

        Slicing commutes with a condition-free cross product (the output
        is left columns followed by right columns) as long as the
        requested order keeps the sides contiguous, so the rearrangement
        runs on the operands — typically orders of magnitude fewer rows
        than the product.  :class:`CostBasedPlanner` extends this with
        late-materialization pushdown through hash joins.
        """
        left_width = plan.left.width() if isinstance(plan, NestedLoopJoin) else 0
        if (
            isinstance(plan, NestedLoopJoin)
            and plan.condition is None
            # Every left-side slot must precede every right-side slot.
            and all(
                not (a >= left_width and b < left_width)
                for a, b in zip(keep, keep[1:])
            )
        ):
            keep_left = [i for i in keep if i < left_width]
            keep_right = [i - left_width for i in keep if i >= left_width]
            left = plan.left
            right = plan.right
            if keep_left != list(range(left_width)):
                left = self._make_slice(
                    left, keep_left, [plan.left.output_names[i] for i in keep_left]
                )
            if keep_right != list(range(plan.right.width())):
                right = self._make_slice(
                    right,
                    keep_right,
                    [plan.right.output_names[i] for i in keep_right],
                )
            pushed = NestedLoopJoin(left, right, plan.join_type, None)
            pushed.output_names = list(names)
            pushed.estimate = plan.estimate
            return pushed
        return SliceNode(plan, keep, names)


class CostBasedPlanner(PlannerBase):
    """Statistics-driven physical planning (the default).

    Decisions and the estimates behind them:

    * **Join order** — exact dynamic programming over operand subsets
      (DPsub) up to :data:`DP_MAX_RELATIONS` operands: the bushy tree
      with the smallest summed per-join score (estimated output plus
      evaluation work), connected joins strictly before cross products.
      Larger sets fall back to greedy operator ordering (GOO), which
      merges the cheapest pair by the same score round by round.  Both
      price candidates from per-conjunct facts classified once per
      ordering problem (:meth:`_order_joins`).  This is what routes
      TPC-H Q9's provenance core through the selective ``part`` filter
      before touching ``lineitem``, and joins Q7's two ``nation`` scans
      on their OR-of-name-pairs condition first (25×25 pairs, ~2
      survivors) instead of last.
    * **Build side** — inner hash joins build on the smaller estimated
      input.
    * **Late materialization** — projections push through hash joins
      (key slots remapped onto the narrowed inputs), so dropped columns
      never ride through the join.
    * **Output backing** — narrow inner hash joins feeding an
      aggregation emit column-backed chunks; wide provenance joins keep
      the row-backed concatenation path.
    * **Batch size** — bounded by the largest estimated intermediate,
      so a fanning-out join streams bounded chunks instead of
      table-sized ones.
    """

    #: Column-backed join output pays off only while the per-column
    #: gather loops stay cheaper than one row concatenation per match.
    COLUMNAR_OUTPUT_MAX_WIDTH = 8
    #: Floor for cost-bounded batch sizes.
    MIN_BATCH_SIZE = 4096

    def __init__(
        self,
        catalog: Catalog,
        outer_varmaps: Optional[list[VarMap]] = None,
        shared: Optional[_SharedSubplans] = None,
        vectorize: bool = False,
    ) -> None:
        super().__init__(catalog, outer_varmaps, shared, vectorize=vectorize)
        from repro.planner.cost import CostModel

        self._cost = CostModel(catalog)

    def plan(self, query: Query, joined: Optional[_Unit] = None) -> PlanNode:
        plan = super().plan(query, joined)
        if self._root and self.parallel_workers > 1 and self.vectorize:
            # Statement-level parallelization: wrap parallel-safe
            # scan→filter→project(→partial-aggregate) pipelines in
            # exchange nodes.  Root planners only — the pass reaches
            # subquery plans through the finished tree, and vectorized
            # kernels are a precondition for morsel workers.
            from repro.parallel.planning import insert_exchanges

            plan = insert_exchanges(
                plan,
                self.parallel_workers,
                self.morsel_size,
                strategy=self.parallel_executor,
            )
        return plan

    # -- estimate/statistics annotations -------------------------------------

    def _annotate_scan(self, unit: _Unit, rte: RangeTableEntry) -> None:
        if rte.kind is RTEKind.RELATION:
            table = self.catalog.table(rte.relation_name)
            unit.plan.estimate = float(max(table.row_count(), 1))
            stats = self.catalog.stats_for(rte.relation_name)
            if stats is not None:
                rtindex = next(iter(unit.rtindexes))
                names = (
                    rte.schema.column_names
                    if rte.schema is not None
                    else rte.column_names
                )
                unit.scope = {
                    (rtindex, attno): stats.column(name)
                    for attno, name in enumerate(names)
                }
            self.shared.max_scan_rows = max(
                self.shared.max_scan_rows, unit.plan.estimate
            )
            return
        # Subquery scan: the child planner already estimated the plan;
        # thread its per-output-column statistics into this scope.
        stats_list = getattr(unit.plan, "output_stats", None)
        if stats_list:
            rtindex = next(iter(unit.rtindexes))
            unit.scope = {
                (rtindex, position): column_stats
                for position, column_stats in enumerate(stats_list)
                if column_stats is not None
            }

    def _push_conjunct(self, unit: _Unit, conjunct: ex.Expr) -> None:
        before = max(unit.plan.estimate, 1.0)
        super()._push_conjunct(unit, conjunct)
        sel = self._cost.conjunct_selectivity(conjunct, unit.scope)
        bound = self._cost.range_bound(conjunct, unit.scope)
        if bound is not None:
            # Re-derive this column's combined selectivity from the
            # tightest bounds seen so far and apply only the delta, so
            # ``col >= lo AND col < hi`` contributes the interval mass
            # rather than the product of two large marginals.
            key, kind, bound_sel = bound
            if unit.range_bounds is None:
                unit.range_bounds = {}
            bucket = unit.range_bounds.setdefault(key, {"applied": 1.0})
            bucket[kind] = min(bound_sel, bucket.get(kind, 1.0))
            lo, hi = bucket.get("lo"), bucket.get("hi")
            if lo is not None and hi is not None:
                desired = self._cost.combine_range_bounds(lo, hi)
            else:
                desired = lo if lo is not None else hi
            sel = desired / bucket["applied"]
            bucket["applied"] = desired
        unit.plan.estimate = max(before * sel, 1.0)

    def _annotate_join(
        self,
        unit: _Unit,
        left: _Unit,
        right: _Unit,
        join_type: str,
        conjuncts: list[ex.Expr],
        estimate: Optional[float] = None,
    ) -> None:
        if estimate is None:
            estimate = self._cost.join_estimate(left, right, conjuncts, join_type)
        unit.plan.estimate = estimate
        scope: dict = {}
        if left.scope:
            scope.update(left.scope)
        if right.scope:
            scope.update(right.scope)
        unit.scope = scope or None
        self.shared.max_intermediate_rows = max(
            self.shared.max_intermediate_rows, estimate
        )

    def _annotate_aggregate(
        self, node: PlanNode, query: Query, joined: _Unit
    ) -> None:
        node.estimate = self._cost.group_estimate(
            query.group_clause, joined.scope, max(joined.plan.estimate, 1.0)
        )
        # Width-driven backing choice: a narrow residual-free inner hash
        # join feeding an aggregation emits column-backed chunks — the
        # aggregate reads whole columns anyway, so skipping the row
        # concatenation saves one materialization per match.
        child = joined.plan
        if (
            self.vectorize
            and isinstance(child, HashJoin)
            and child.join_type == "inner"
            and child.residual is None
            and child.width() <= self.COLUMNAR_OUTPUT_MAX_WIDTH
        ):
            child.columnar_output = True

    # -- cost-based decisions -------------------------------------------------

    def _choose_sides(
        self, left: _Unit, right: _Unit, join_type: str, conjuncts: list[ex.Expr]
    ) -> tuple[_Unit, _Unit]:
        # The right input builds the hash table (and is spooled by
        # nested loops): put the smaller estimated input there.  Only
        # inner joins may swap — outer join types encode sidedness —
        # and only on a clear margin: near-tie estimates are noise, and
        # honoring the incoming order keeps plans stable.
        if (
            join_type == "inner"
            and left.plan.estimate * 1.5 < right.plan.estimate
        ):
            return right, left
        return left, right

    #: Largest free inner-join set ordered by exact dynamic programming;
    #: larger sets fall back to greedy operator ordering.  3^12 split
    #: enumerations is the classic practical ceiling for DPsub.
    DP_MAX_RELATIONS = 12

    def _order_joins(self, units: list[_Unit], pool: list[ex.Expr]) -> _Unit:
        """Join ordering: exact DP over subsets, GOO above the cutoff.

        Up to :data:`DP_MAX_RELATIONS` operands the order is chosen by
        dynamic programming over operand subsets (DPsub), minimizing the
        summed per-join score of the whole tree — the same
        :meth:`~repro.planner.cost.CostModel.price_join` score GOO
        minimizes one merge at a time, so the two agree whenever greedy
        happens to be optimal and differ exactly where greediness loses.
        Larger sets keep the O(n³)-per-round greedy ordering.

        Either way the pool is read exactly once, here: every conjunct
        becomes a :class:`~repro.planner.cost.ConjunctFacts` record
        (operand ``i`` = ``units[i]``), and the enumeration below prices
        candidate joins from those records with integer and float
        arithmetic only.
        """
        bit_of: dict[int, int] = {}
        scope: dict = {}
        for i, unit in enumerate(units):
            for rtindex in unit.rtindexes:
                bit_of[rtindex] = i
            if unit.scope:
                scope.update(unit.scope)
        facts = self._cost.classify_conjuncts(pool, bit_of, scope)
        if 2 <= len(units) <= self.DP_MAX_RELATIONS:
            return self._order_joins_dp(units, facts)
        return self._order_joins_goo(units, facts)

    def _order_joins_dp(
        self, units: list[_Unit], facts: list[ConjunctFacts]
    ) -> _Unit:
        """Exact bushy join ordering by dynamic programming over subsets.

        Enumeration is estimate-only — per operand subset a row estimate,
        a cost and the winning split, all in arrays indexed by the
        subset's bitmask — and the winning tree is reconstructed through
        :meth:`_join_units` afterwards so plan emission stays on the
        single shared path.  A pool conjunct is consumed at the unique
        join where its referenced operands first land in one subtree;
        conjuncts referencing a single operand are filtered onto it up
        front, var-free leftovers wrap the final plan — the same
        placement rules GOO applies incrementally.

        Conjunct placement is bitset algebra over conjunct indexes:
        ``inside[m]`` holds the conjuncts whose operands all lie in
        subset ``m``, so the ones a split ``sub | other`` of ``mask``
        evaluates are ``inside[mask] & ~inside[sub] & ~inside[other]``.
        Cost entries are ``(cartesian joins, summed pair score)`` so
        connected splits beat cross products lexicographically,
        mirroring GOO's connected-first rule; a subset with any conjunct
        inside has a connected split (every such conjunct spans two
        operands, and some split separates them), so there the splits
        without a connecting conjunct are skipped before anything is
        priced.
        """
        n = len(units)
        price_join = self._cost.price_join
        joinable: list[ConjunctFacts] = []
        stragglers: list[ex.Expr] = []
        for fact in facts:
            mask = fact.mask
            if mask == 0:
                # Var-free, or references something outside the free
                # join set (GOO never consumes these either).
                stragglers.append(fact.conjunct)
            elif mask & (mask - 1) == 0:
                unit = units[mask.bit_length() - 1]
                before = max(unit.plan.estimate, 1.0)
                unit.plan = self._filter_node(
                    unit.plan, self._compiler(unit.varmap), fact.conjunct
                )
                unit.plan.estimate = max(before * fact.selectivity, 1.0)
            else:
                joinable.append(fact)

        size = 1 << n
        inside = [0] * size
        for index, fact in enumerate(joinable):
            inside[fact.mask] |= 1 << index
        for i in range(n):
            bit = 1 << i
            for mask in range(size):
                if mask & bit:
                    inside[mask] |= inside[mask ^ bit]

        picked: dict[int, list[ConjunctFacts]] = {0: []}

        def pick(bits: int) -> list[ConjunctFacts]:
            chosen = picked.get(bits)
            if chosen is None:
                chosen = picked[bits] = [
                    fact for index, fact in enumerate(joinable) if bits >> index & 1
                ]
            return chosen

        # Per subset: row estimate, (cartesian joins, summed score), the
        # winning split's low half (0 = a single operand) and conjuncts.
        rows = [0.0] * size
        cartesian = [0] * size
        score = [0.0] * size
        split = [0] * size
        placed = [0] * size
        for i, unit in enumerate(units):
            rows[1 << i] = float(max(unit.plan.estimate, 1.0))
        for mask in range(3, size):
            if mask & (mask - 1) == 0:
                continue
            low = mask & -mask
            within = inside[mask]
            best: Optional[tuple[int, float]] = None
            sub = (mask - 1) & mask
            while sub:
                # Canonical halves: the lowest operand stays in ``sub``.
                if sub & low:
                    other = mask ^ sub
                    cross = within & ~inside[sub] & ~inside[other]
                    if cross or not within:
                        estimate, pair = price_join(
                            rows[sub], rows[other], sub, other, pick(cross)
                        )
                        cost = (
                            cartesian[sub] + cartesian[other] + (0 if cross else 1),
                            score[sub] + score[other] + pair,
                        )
                        if best is None or cost < best:
                            best = cost
                            rows[mask] = estimate
                            split[mask] = sub
                            placed[mask] = cross
                sub = (sub - 1) & mask
            assert best is not None
            cartesian[mask], score[mask] = best

        def build(mask: int) -> _Unit:
            sub = split[mask]
            if sub == 0:
                return units[mask.bit_length() - 1]
            return self._join_units(
                build(sub),
                build(mask ^ sub),
                "inner",
                [fact.conjunct for fact in pick(placed[mask])],
                estimate=rows[mask],
            )

        current = build(size - 1)
        for conjunct in stragglers:
            current.plan = self._filter_node(
                current.plan, self._compiler(current.varmap), conjunct
            )
        return current

    def _order_joins_goo(
        self, units: list[_Unit], facts: list[ConjunctFacts]
    ) -> _Unit:
        """Greedy operator ordering by estimated output cardinality.

        Each round scores every operand pair — connected pairs (some
        pool conjunct touches both sides) strictly before cartesian
        ones — and merges the cheapest, consuming the pool conjuncts
        that became fully covered.  O(n³) pair scoring is irrelevant at
        SQL join counts; the payoff is bushy orders the left-deep
        heuristic cannot express.
        """
        price_join = self._cost.price_join
        remaining = list(units)
        masks = [1 << i for i in range(len(units))]
        pool = list(facts)
        while len(remaining) > 1:
            best_key: Optional[tuple] = None
            best_merge: Optional[tuple[int, int, list[ConjunctFacts], float]] = None
            for j in range(1, len(remaining)):
                for i in range(j):
                    a, b = masks[i], masks[j]
                    outside = ~(a | b)
                    conds = [f for f in pool if f.mask and not f.mask & outside]
                    connected = any(f.mask & a and f.mask & b for f in conds)
                    estimate, score = price_join(
                        remaining[i].plan.estimate,
                        remaining[j].plan.estimate,
                        a,
                        b,
                        conds,
                    )
                    key = (not connected, score, i, j)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_merge = (i, j, conds, estimate)
            assert best_merge is not None
            i, j, conds, estimate = best_merge
            remaining[i] = self._join_units(
                remaining[i],
                remaining[j],
                "inner",
                [f.conjunct for f in conds],
                estimate=estimate,
            )
            masks[i] |= masks[j]
            del remaining[j], masks[j]
            consumed = {id(f) for f in conds}
            pool = [f for f in pool if id(f) not in consumed]
        current = remaining[0]
        for fact in pool:
            # Conjuncts referencing no vars (constants) or left over.
            current.plan = self._filter_node(
                current.plan, self._compiler(current.varmap), fact.conjunct
            )
        return current

    # -- late-materialization slice pushdown ----------------------------------

    def _make_slice(
        self, plan: PlanNode, keep: list[int], names: list[str]
    ) -> PlanNode:
        pushed = self._push_slice_through_hash_join(plan, keep, names)
        if pushed is not None:
            return pushed
        return super()._make_slice(plan, keep, names)

    def _push_slice_through_hash_join(
        self, plan: PlanNode, keep: list[int], names: list[str]
    ) -> Optional[PlanNode]:
        """Push a column selection below a hash join, remapping key slots.

        Requires Var-only keys (slot metadata present), no residual
        condition (its compiled closure reads the merged layout), and a
        side-contiguous ``keep`` order.  Key slots missing from ``keep``
        ride along in the narrowed inputs and are dropped by a thin
        slice above the rebuilt join — the join itself then concatenates
        only surviving payload columns (late materialization).
        """
        if not isinstance(plan, HashJoin) or plan.residual is not None:
            return None
        left_slots = getattr(plan, "left_key_slots", None)
        right_slots = getattr(plan, "right_key_slots", None)
        if left_slots is None or right_slots is None:
            return None
        left_width = plan.left.width()
        right_width = plan.right.width()
        if any(a >= left_width and b < left_width for a, b in zip(keep, keep[1:])):
            return None
        keep_left = [i for i in keep if i < left_width]
        keep_right = [i - left_width for i in keep if i >= left_width]
        need_left = keep_left + [s for s in left_slots if s not in keep_left]
        need_right = keep_right + [s for s in right_slots if s not in keep_right]
        # Only narrow when the pushdown drops a substantial share of the
        # join's columns: the narrowed side costs one extra gather pass,
        # which a marginal width win (a junk column or two) never repays.
        total_width = left_width + right_width
        dropped = total_width - len(need_left) - len(need_right)
        if dropped < 3 or dropped * 4 < total_width:
            return None
        left_child = plan.left
        right_child = plan.right
        if need_left != list(range(left_width)):
            left_child = self._make_slice(
                left_child,
                need_left,
                [plan.left.output_names[i] for i in need_left],
            )
        if need_right != list(range(right_width)):
            right_child = self._make_slice(
                right_child,
                need_right,
                [plan.right.output_names[i] for i in need_right],
            )
        new_left_slots = [need_left.index(s) for s in left_slots]
        new_right_slots = [need_right.index(s) for s in right_slots]
        join = HashJoin(
            left_child,
            right_child,
            plan.join_type,
            [_slot_reader(s) for s in new_left_slots],
            [_slot_reader(s) for s in new_right_slots],
            None,
            list(plan.null_safe),
            batch_left_keys=(
                [_slot_column(s) for s in new_left_slots]
                if plan.batch_left_keys is not None
                else None
            ),
            batch_right_keys=(
                [_slot_column(s) for s in new_right_slots]
                if plan.batch_right_keys is not None
                else None
            ),
        )
        join.left_key_slots = new_left_slots
        join.right_key_slots = new_right_slots
        join.estimate = plan.estimate
        if need_left == keep_left and need_right == keep_right:
            join.output_names = list(names)
            return join
        # Key slots rode along: drop them with a thin slice on top.
        positions = [
            keep_left.index(i)
            if i < left_width
            else len(need_left) + keep_right.index(i - left_width)
            for i in keep
        ]
        return SliceNode(join, positions, names)

    # -- batch-size bounding ---------------------------------------------------

    def _finalize_plan(self, plan: PlanNode) -> PlanNode:
        plan.batch_size_hint = self._batch_size_hint()
        return plan

    def _batch_size_hint(self) -> int:
        """Batch size bounded by the estimated intermediate blow-up.

        When joins fan out beyond the largest scan, scan chunks shrink
        proportionally so a single probe chunk's output stays near
        :data:`DEFAULT_BATCH_SIZE` rows instead of scaling with the
        whole table.
        """
        scans = self.shared.max_scan_rows
        intermediate = self.shared.max_intermediate_rows
        if intermediate <= max(scans, float(DEFAULT_BATCH_SIZE)):
            return DEFAULT_BATCH_SIZE
        fanout = intermediate / max(scans, 1.0)
        bounded = int(DEFAULT_BATCH_SIZE / fanout)
        bounded = max(self.MIN_BATCH_SIZE, min(DEFAULT_BATCH_SIZE, bounded))
        # Round to the next power of two for stable chunk shapes.
        return 1 << (bounded - 1).bit_length()
