"""Stage 1 of the planner pipeline: query trees -> logical join graphs.

This module is purely *logical*: it decomposes one query node's
FROM/WHERE component into a backend-neutral operator DAG without
touching the catalog or building any physical operator.  The result of
:func:`decompose_from_where` is a :class:`LogicalJoinGraph`:

* ``units`` — the join operands: base-relation scans
  (:class:`LogicalScan`), subquery scans (:class:`LogicalSubquery`),
  whole outer-join subtrees (:class:`LogicalOuterJoin`, with their own
  operand graphs), and the optimizer's fused aggregation pairs
  (:class:`LogicalFusedJoin`).  Single-unit WHERE conjuncts are already
  attached to their owning unit (``unit.conjuncts``) — the logical form
  of filter pushdown.
* ``pool`` — multi-unit, sublink-free conjuncts: the join predicates the
  physical stage orders joins around.
* ``late`` — conjuncts that must see the fully joined row (correlated
  sublinks, var-free leftovers).

The decomposition encodes the outer-join safety rules the old monolith
implemented inline: WHERE conjuncts over the preserved side of an outer
join sink below it, ON conjuncts over only the null-producing side
pre-filter that operand, and nothing ever moves below a null-producing
side.

The physical stage (:mod:`repro.planner.physical`) walks this graph and
makes the operator/order decisions; the cost model
(:mod:`repro.planner.cost`) estimates cardinalities over it.  The
conjunct utilities at the bottom (:func:`split_conjuncts`,
:func:`conjoin`, :func:`equi_sides`, :func:`extract_equi_keys`) are
shared by both stages and by the logical optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import PlanError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RangeTableEntry,
    RangeTableRef,
    jointree_rtindexes,
)


# ---------------------------------------------------------------------------
# The logical operator DAG
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LogicalScan:
    """A base-relation join operand with its pushed-down filters."""

    rtindex: int
    rte: RangeTableEntry
    conjuncts: list[ex.Expr] = field(default_factory=list)

    @property
    def rtindexes(self) -> set[int]:
        return {self.rtindex}


@dataclass(eq=False)
class LogicalSubquery:
    """A FROM-subquery join operand (closed; no LATERAL)."""

    rtindex: int
    rte: RangeTableEntry
    conjuncts: list[ex.Expr] = field(default_factory=list)

    @property
    def rtindexes(self) -> set[int]:
        return {self.rtindex}


@dataclass(eq=False)
class LogicalFusedJoin:
    """The optimizer's ``q_agg ⋈ d+`` pair planned over one shared core.

    ``pair`` is the :attr:`Query.agg_shares` entry
    ``(agg_rtindex, prov_rtindex, agg_key_positions)``.
    """

    pair: tuple[int, int, tuple[int, ...]]
    conjuncts: list[ex.Expr] = field(default_factory=list)

    @property
    def rtindexes(self) -> set[int]:
        return set(self.pair[:2])


@dataclass(eq=False)
class LogicalOuterJoin:
    """A left/right/full/cross join subtree, planned as one unit.

    ``left``/``right`` are the operand join graphs; ``conditions`` the
    ON conjuncts that must stay in the join (they decide null
    extension); ``left_top``/``right_top`` are ON conjuncts over only
    the null-producing side, applied as a pre-filter *on top of* the
    built operand (never pushed into a nested outer join's innards).
    """

    join_type: str
    left: "LogicalJoinGraph"
    right: "LogicalJoinGraph"
    conditions: list[ex.Expr] = field(default_factory=list)
    left_top: list[ex.Expr] = field(default_factory=list)
    right_top: list[ex.Expr] = field(default_factory=list)
    conjuncts: list[ex.Expr] = field(default_factory=list)
    rtindex_set: set[int] = field(default_factory=set)

    @property
    def rtindexes(self) -> set[int]:
        return self.rtindex_set


LogicalUnit = Union[LogicalScan, LogicalSubquery, LogicalFusedJoin, LogicalOuterJoin]


@dataclass(eq=False)
class LogicalJoinGraph:
    """One query level's FROM/WHERE as a free inner-join set."""

    units: list[LogicalUnit] = field(default_factory=list)
    pool: list[ex.Expr] = field(default_factory=list)
    late: list[ex.Expr] = field(default_factory=list)

    def rtindexes(self) -> set[int]:
        out: set[int] = set()
        for unit in self.units:
            out |= unit.rtindexes
        return out


# ---------------------------------------------------------------------------
# Decomposition: Query -> LogicalJoinGraph
# ---------------------------------------------------------------------------


def decompose_from_where(query: Query) -> LogicalJoinGraph:
    """Decompose a query node's FROM/WHERE into a logical join graph.

    WHERE conjuncts are collected *first* so that conjuncts referencing
    only the preserved side of an outer join can sink below it —
    essential for the rewriter's sublink left-join chains, where the
    whole FROM clause sits under a LEFT JOIN.
    """
    where_conjuncts: list[ex.Expr] = []
    if query.jointree.quals is not None:
        where_conjuncts = split_conjuncts(query.jointree.quals)
    # Uncorrelated-sublink conjuncts may sink too: their subplans read
    # nothing from the enclosing layout, and filtering the preserved
    # side before an outer join is where the provenance rewrite's
    # original WHERE evaluated them.
    pushable = [
        c
        for c in where_conjuncts
        if ex.collect_vars(c)
        and not any(s.correlated for s in ex.collect_sublinks(c))
    ]
    non_pushable = [c for c in where_conjuncts if c not in pushable]
    units: list[LogicalUnit] = []
    conjuncts: list[ex.Expr] = []
    for item in query.jointree.items:
        _flatten_inner(item, query, units, conjuncts, pushable)
    # Outer-join pushdown consumed some of ``pushable``; the rest (and
    # the sublink/no-var conjuncts) classify at this level.
    conjuncts.extend(pushable)
    conjuncts.extend(non_pushable)

    graph = LogicalJoinGraph(units=units)
    if not units:
        # FROM-less query: everything evaluates over the single empty
        # row, in source order.
        graph.late = conjuncts
        return graph

    # Classify conjuncts: single-unit filters attach to their unit
    # (sublink conjuncts too — filtering before the joins is where a
    # pulled-up subquery evaluated them); multi-unit sublink conjuncts
    # run after all joins; the rest form the join pool.
    for conjunct in conjuncts:
        if any(s.correlated for s in ex.collect_sublinks(conjunct)):
            # A correlated sublink body may reference any unit; it must
            # see the full joined layout.
            graph.late.append(conjunct)
            continue
        vars_used = ex.collect_vars(conjunct)
        owners = {unit_of(units, var.varno) for var in vars_used}
        if len(owners) == 1:
            owners.pop().conjuncts.append(conjunct)
        elif ex.contains_sublink(conjunct) or len(owners) == 0:
            graph.late.append(conjunct)
        else:
            graph.pool.append(conjunct)
    return graph


def decompose_operand(
    node: JoinTreeNode,
    query: Query,
    extra_conjuncts: Optional[list[ex.Expr]] = None,
    pushable: Optional[list[ex.Expr]] = None,
) -> LogicalJoinGraph:
    """Decompose a join subtree standalone (an outer join's operand)."""
    units: list[LogicalUnit] = []
    conjuncts: list[ex.Expr] = list(extra_conjuncts or [])
    _flatten_inner(node, query, units, conjuncts, pushable)
    graph = LogicalJoinGraph(units=units)
    if len(units) == 1 and not conjuncts:
        return graph
    for conjunct in conjuncts:
        if ex.contains_sublink(conjunct):
            graph.late.append(conjunct)
            continue
        # Single-unit conjuncts filter at the unit, exactly as at the
        # top level — without this, a filter that lived inside a
        # pulled-up subquery would run as a join residual.
        vars_used = ex.collect_vars(conjunct)
        owners = {unit_of(units, var.varno) for var in vars_used}
        if len(owners) == 1:
            owners.pop().conjuncts.append(conjunct)
        else:
            graph.pool.append(conjunct)
    return graph


def _flatten_inner(
    node: JoinTreeNode,
    query: Query,
    units: list[LogicalUnit],
    conjuncts: list[ex.Expr],
    pushable: Optional[list[ex.Expr]] = None,
) -> None:
    if isinstance(node, RangeTableRef):
        rte = query.range_table[node.rtindex]
        from repro.analyzer.query_tree import RTEKind

        if rte.kind is RTEKind.RELATION:
            units.append(LogicalScan(node.rtindex, rte))
        else:
            units.append(LogicalSubquery(node.rtindex, rte))
        return
    pair = fused_pair(query, node)
    if pair is not None:
        # Aggregation-join fusion: the pair's group-key quals are
        # enforced by the fused hash join itself.
        units.append(LogicalFusedJoin(pair))
        return
    if node.join_type == "inner":
        _flatten_inner(node.left, query, units, conjuncts, pushable)
        _flatten_inner(node.right, query, units, conjuncts, pushable)
        if node.quals is not None:
            conjuncts.extend(split_conjuncts(node.quals))
        return
    units.append(_decompose_outer(node, query, pushable))


def fused_pair(
    query: Query, node: JoinTreeNode
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """The ``Query.agg_shares`` entry covering this join node, if any."""
    if (
        not query.agg_shares
        or not isinstance(node, JoinTreeExpr)
        or node.join_type not in ("inner", "cross")
        or not isinstance(node.left, RangeTableRef)
        or not isinstance(node.right, RangeTableRef)
    ):
        return None
    indexes = {node.left.rtindex, node.right.rtindex}
    for pair in query.agg_shares:
        if set(pair[:2]) == indexes:
            return pair
    return None


def _decompose_outer(
    node: JoinTreeExpr,
    query: Query,
    pushable: Optional[list[ex.Expr]] = None,
) -> LogicalOuterJoin:
    # WHERE conjuncts referencing only the preserved side can move
    # below the outer join (they filter preserved rows identically
    # before or after null extension of the other side).
    left_extra: list[ex.Expr] = []
    right_extra: list[ex.Expr] = []
    if pushable:
        if node.join_type == "left":
            preserved, extras = set(jointree_rtindexes(node.left)), left_extra
        elif node.join_type == "right":
            preserved, extras = set(jointree_rtindexes(node.right)), right_extra
        else:
            preserved, extras = set(), []
        if preserved:
            for conjunct in list(pushable):
                vars_used = ex.collect_vars(conjunct)
                if vars_used and all(v.varno in preserved for v in vars_used):
                    extras.append(conjunct)
                    pushable.remove(conjunct)
    # The pool may only flow into the preserved side: pushing WHERE
    # conjuncts below the null-producing side would let null-extended
    # rows survive that the original WHERE eliminates.
    left_pool = pushable if node.join_type == "left" else None
    right_pool = pushable if node.join_type == "right" else None
    left = decompose_operand(node.left, query, left_extra, left_pool)
    right = decompose_operand(node.right, query, right_extra, right_pool)
    out = LogicalOuterJoin(
        join_type=node.join_type,
        left=left,
        right=right,
        rtindex_set=set(jointree_rtindexes(node)),
    )
    condition_conjuncts = (
        split_conjuncts(node.quals) if node.quals is not None else []
    )
    # ON-condition conjuncts over the null-producing side alone
    # pre-filter that input: ``L LEFT JOIN R ON (c AND w(R))`` is
    # ``L LEFT JOIN (σ_w R) ON c``.  (Preserved-side conjuncts must
    # stay in the condition — they decide null extension, not row
    # survival.)
    if node.join_type in ("left", "right"):
        nullable_rts = (
            right.rtindexes() if node.join_type == "left" else left.rtindexes()
        )
        top = out.right_top if node.join_type == "left" else out.left_top
        for conjunct in condition_conjuncts:
            vars_used = ex.collect_vars(conjunct)
            if (
                vars_used
                and not ex.contains_sublink(conjunct)
                and all(v.varno in nullable_rts for v in vars_used)
            ):
                top.append(conjunct)
            else:
                out.conditions.append(conjunct)
    else:
        out.conditions = condition_conjuncts
    return out


def unit_of(units: list, rtindex: int):
    """The join operand owning a range-table index."""
    for unit in units:
        if rtindex in unit.rtindexes:
            return unit
    raise PlanError(f"range table index {rtindex} not found in any join unit")


# ---------------------------------------------------------------------------
# Conjunct utilities (shared with the optimizer and physical stage)
# ---------------------------------------------------------------------------


def split_conjuncts(expr: ex.Expr) -> list[ex.Expr]:
    """Flatten nested AND chains into a conjunct list.

    OR nodes whose every arm shares common conjuncts are factored
    (``(a AND x) OR (a AND y)`` -> ``a AND (x OR y)``), which recovers the
    join predicate hidden inside TPC-H Q19's disjunction.
    """
    if isinstance(expr, ex.BoolOpExpr) and expr.op == "and":
        result: list[ex.Expr] = []
        for arg in expr.args:
            result.extend(split_conjuncts(arg))
        return result
    if isinstance(expr, ex.BoolOpExpr) and expr.op == "or":
        factored = _factor_or(expr)
        if factored is not None:
            return factored
    return [expr]


def _factor_or(expr: ex.BoolOpExpr) -> Optional[list[ex.Expr]]:
    """Extract conjuncts common to every arm of an OR, if any.

    Also the optimizer's ``fold`` rule, so the factored form is what a SQL
    backend receives; factoring a factored OR again finds nothing.
    """
    arms = [split_conjuncts(arg) for arg in expr.args]
    common = [c for c in arms[0] if all(any(c == d for d in arm) for arm in arms[1:])]
    if not common:
        return None
    remainders: list[ex.Expr] = []
    for arm in arms:
        rest = [c for c in arm if not any(c == k for k in common)]
        if not rest:
            # One arm is exactly the common part: the OR adds nothing more.
            return common
        remainders.append(conjoin(rest))
    return common + [ex.BoolOpExpr("or", tuple(remainders))]


def conjoin(conjuncts: list[ex.Expr]) -> ex.Expr:
    if len(conjuncts) == 1:
        return conjuncts[0]
    return ex.BoolOpExpr("and", tuple(conjuncts))


def _vars_unless_sublink(expr: ex.Expr) -> Optional[list[ex.Var]]:
    """Level-0 Vars of ``expr`` in one walk; None when it holds a sublink."""
    found: list[ex.Var] = []
    for node in ex.walk(expr):
        if isinstance(node, ex.SubLink):
            return None
        if isinstance(node, ex.Var) and node.levelsup == 0:
            found.append(node)
    return found


def equi_sides(
    conjunct: ex.Expr,
) -> Optional[tuple[ex.Expr, list[ex.Var], ex.Expr, list[ex.Var]]]:
    """``(a, vars of a, b, vars of b)`` when ``conjunct`` is a sublink-free
    ``a = b`` / ``a <=> b`` with Vars on both sides — the only shape that
    can become a hash-join key — and None otherwise.

    Whether it *is* a key depends on the join being built (each side's
    Vars must lie wholly in one input); that part is the caller's.  The
    answer here is a property of the expression alone, which is what
    lets the cost model classify a conjunct once per ordering problem
    (:meth:`repro.planner.cost.CostModel.classify_conjuncts`).
    """
    if not (isinstance(conjunct, ex.OpExpr) and conjunct.op in ("=", "<=>")):
        return None
    a, b = conjunct.args
    vars_a = _vars_unless_sublink(a)
    if not vars_a:
        return None
    vars_b = _vars_unless_sublink(b)
    if not vars_b:
        return None
    return a, vars_a, b, vars_b


def extract_equi_keys(
    conjuncts: list[ex.Expr], left_rts: set[int], right_rts: set[int]
) -> tuple[list[ex.Expr], list[ex.Expr], list[bool], list[ex.Expr]]:
    """Split conjuncts into hash-joinable equi keys and a residual list.

    Both plain ``=`` and the rewriter's null-safe ``<=>`` qualify; the
    returned flag list marks the null-safe keys.  ``left_rts`` /
    ``right_rts`` are the range-table index sets of the two join sides.
    """
    left_keys: list[ex.Expr] = []
    right_keys: list[ex.Expr] = []
    null_safe: list[bool] = []
    residual: list[ex.Expr] = []
    for conjunct in conjuncts:
        sides = equi_sides(conjunct)
        if sides is not None:
            a, vars_a, b, vars_b = sides
            a_in_left = all(v.varno in left_rts for v in vars_a)
            a_in_right = all(v.varno in right_rts for v in vars_a)
            b_in_left = all(v.varno in left_rts for v in vars_b)
            b_in_right = all(v.varno in right_rts for v in vars_b)
            if a_in_left and b_in_right:
                left_keys.append(a)
                right_keys.append(b)
                null_safe.append(conjunct.op == "<=>")
                continue
            if a_in_right and b_in_left:
                left_keys.append(b)
                right_keys.append(a)
                null_safe.append(conjunct.op == "<=>")
                continue
        residual.append(conjunct)
    return left_keys, right_keys, null_safe, residual


def conjunct_touches(
    conjunct: ex.Expr, left_rts: set[int], right_rts: set[int]
) -> bool:
    """True when the conjunct references variables on both sides."""
    vars_used = ex.collect_vars(conjunct)
    touches_left = any(v.varno in left_rts for v in vars_used)
    touches_right = any(v.varno in right_rts for v in vars_used)
    return touches_left and touches_right
