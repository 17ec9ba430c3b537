"""Scope-aware traversal utilities for the logical optimizer.

The optimizer rewrites analyzed :class:`~repro.analyzer.query_tree.Query`
trees in place.  Everything it does — renumbering range tables, inlining
subqueries, shrinking target lists — reduces to one primitive: *replace
every Var that addresses a given query level*, wherever that Var lives.

Scoping rules the traversal encodes (mirroring the analyzer/planner):

* a query's own expressions reference its range table at ``levelsup == 0``;
* a sublink's subquery is one scope level further down: Vars inside it
  reference the enclosing query at ``levelsup == 1`` (and so on
  recursively);
* set-operation *leaf* subqueries are analyzed against the **same** outer
  scopes as the set-operation node itself (no extra level), so correlated
  references pass through them unchanged;
* plain FROM-subquery range table entries are closed scopes (no LATERAL):
  nothing inside them can reference the enclosing query, so traversal
  never descends into them when looking for references to an outer level.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Callable, Iterator, Optional

from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    FromExpr,
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RangeTableRef,
    RTEKind,
    level_exprs,
    setop_leaf_indexes,
)
from repro.errors import PermError

ExprFn = Callable[[ex.Expr], ex.Expr]
VarMapper = Callable[[ex.Var], Optional[ex.Expr]]


# ---------------------------------------------------------------------------
# Level-expression iteration / mutation
# ---------------------------------------------------------------------------


def map_level_exprs(query: Query, fn: ExprFn) -> None:
    """Apply ``fn`` to every expression owned by ``query`` itself, storing
    the result back (target list, WHERE, join conditions, GROUP BY,
    HAVING, LIMIT/OFFSET)."""
    for target in query.target_list:
        target.expr = fn(target.expr)
    if query.jointree.quals is not None:
        query.jointree.quals = fn(query.jointree.quals)
    stack: list[JoinTreeNode] = list(query.jointree.items)
    while stack:
        node = stack.pop()
        if isinstance(node, JoinTreeExpr):
            if node.quals is not None:
                node.quals = fn(node.quals)
            stack.append(node.left)
            stack.append(node.right)
    query.group_clause = [fn(g) for g in query.group_clause]
    if query.having is not None:
        query.having = fn(query.having)
    if query.limit_count is not None:
        query.limit_count = fn(query.limit_count)
    if query.limit_offset is not None:
        query.limit_offset = fn(query.limit_offset)


# ---------------------------------------------------------------------------
# Level-var remapping (the optimizer's workhorse)
# ---------------------------------------------------------------------------


def remap_level_vars(query: Query, mapper: VarMapper) -> None:
    """Replace every Var addressing ``query``'s range table.

    ``mapper`` receives each such Var and returns a replacement expression
    or ``None`` to keep it.  The replacement must be phrased *in the frame
    of the replaced Var*: a Var found at ``levelsup == k`` (inside a
    sublink ``k`` levels down) is replaced by
    ``lift_vars(replacement, k)`` — ``mapper`` sees the Var normalized to
    ``levelsup == 0`` and the traversal re-lifts the result.
    """
    _remap_in_query(query, 0, mapper)


def visit_level_vars(query: Query, visit: Callable[[ex.Var], None]) -> None:
    """Call ``visit`` for every Var addressing ``query``'s range table
    (read-only companion of :func:`remap_level_vars`)."""

    def mapper(var: ex.Var) -> Optional[ex.Expr]:
        visit(var)
        return None

    _remap_in_query(query, 0, mapper)


def _remap_in_query(query: Query, depth: int, mapper: VarMapper) -> None:
    if depth > 0 and query.set_operations is not None:
        # Set-operation leaves share the node's outer scopes (no extra
        # level), so references to the target level keep the same depth.
        for rtindex in setop_leaf_indexes(query.set_operations):
            sub = query.range_table[rtindex].subquery
            if sub is not None:
                _remap_in_query(sub, depth, mapper)
    map_level_exprs(query, lambda e: _remap_expr(e, depth, mapper))


def _remap_expr(expr: ex.Expr, depth: int, mapper: VarMapper) -> ex.Expr:
    if isinstance(expr, ex.SubLink):
        # The subquery object is shared and mutated in place; the testexpr
        # lives at this level and is rewritten like any child.
        _remap_in_query(expr.subquery, depth + 1, mapper)
    children = expr.children()
    if children:
        new_children = [_remap_expr(c, depth, mapper) for c in children]
        if any(new is not old for new, old in zip(new_children, children)):
            expr = ex.rebuild_with_children(expr, new_children)
    if isinstance(expr, ex.Var) and expr.levelsup == depth:
        normalized = (
            expr if depth == 0 else _dc_replace(expr, levelsup=0)
        )
        replacement = mapper(normalized)
        if replacement is not None:
            return lift_vars(replacement, depth)
    return expr


def lift_vars(expr: ex.Expr, by: int) -> ex.Expr:
    """Shift every level-0 Var in ``expr`` up by ``by`` scope levels.

    Used when an expression built for one query level is substituted into
    a sublink ``by`` levels below.  Refuses expressions containing
    sublinks — their inner levels would need compensating shifts, and the
    optimizer never substitutes such expressions across levels.
    """
    if by == 0:
        return expr
    if ex.contains_sublink(expr):  # pragma: no cover - guarded by callers
        raise PermError("cannot lift an expression containing sublinks")

    def visit(node: ex.Expr) -> Optional[ex.Expr]:
        if isinstance(node, ex.Var) and node.levelsup == 0:
            return _dc_replace(node, levelsup=by)
        return None

    return ex.transform(expr, visit)


# ---------------------------------------------------------------------------
# Query-node enumeration
# ---------------------------------------------------------------------------


def walk_query_nodes(query: Query) -> Iterator[tuple[Query, bool]]:
    """Yield ``(node, is_root)`` for every query node in the tree,
    children before parents (bottom-up).

    Covers subquery range table entries (including set-operation leaves)
    and sublink subqueries inside expressions.
    """
    yield from _walk(query, is_root=True)


def _walk(query: Query, is_root: bool) -> Iterator[tuple[Query, bool]]:
    for rte in query.range_table:
        if rte.kind is RTEKind.SUBQUERY and rte.subquery is not None:
            yield from _walk(rte.subquery, is_root=False)
    for expr in level_exprs(query):
        for node in ex.walk(expr):
            if isinstance(node, ex.SubLink):
                yield from _walk(node.subquery, is_root=False)
    yield query, is_root


# ---------------------------------------------------------------------------
# Range-table compaction
# ---------------------------------------------------------------------------


def referenced_rtindexes(query: Query) -> set[int]:
    """Range-table indexes reachable from the join tree, the set-operation
    tree, or any Var addressing this query level."""
    used: set[int] = set()
    for item in query.jointree.items:
        used.update(_jointree_indexes(item))
    if query.set_operations is not None:
        used.update(setop_leaf_indexes(query.set_operations))
    visit_level_vars(query, lambda var: used.add(var.varno))
    return used


def _jointree_indexes(node: JoinTreeNode) -> Iterator[int]:
    if isinstance(node, RangeTableRef):
        yield node.rtindex
        return
    yield from _jointree_indexes(node.left)
    yield from _jointree_indexes(node.right)


def compact_range_table(query: Query) -> bool:
    """Drop range table entries no longer referenced anywhere, renumbering
    the survivors and every Var that addresses them.  Returns True when
    entries were removed."""
    used = referenced_rtindexes(query)
    if len(used) == len(query.range_table):
        return False
    keep = [i for i in range(len(query.range_table)) if i in used]
    if len(keep) == len(query.range_table):
        return False
    renumber = {old: new for new, old in enumerate(keep)}
    query.range_table = [query.range_table[i] for i in keep]

    def mapper(var: ex.Var) -> Optional[ex.Expr]:
        new_index = renumber[var.varno]
        if new_index == var.varno:
            return None
        return _dc_replace(var, varno=new_index)

    remap_level_vars(query, mapper)
    _renumber_jointree(query.jointree, renumber)
    query.agg_shares = [
        (renumber[agg_index], renumber[prov_index], positions)
        for agg_index, prov_index, positions in query.agg_shares
    ]
    return True


def _renumber_jointree(jointree: FromExpr, renumber: dict[int, int]) -> None:
    stack: list[JoinTreeNode] = list(jointree.items)
    while stack:
        node = stack.pop()
        if isinstance(node, RangeTableRef):
            node.rtindex = renumber[node.rtindex]
        else:
            stack.append(node.left)
            stack.append(node.right)


# ---------------------------------------------------------------------------
# Structural equality (dataclass == breaks down at SubLink, whose frozen
# node compares by identity because it embeds a mutable Query)
# ---------------------------------------------------------------------------


def exprs_equal(a: Optional[ex.Expr], b: Optional[ex.Expr]) -> bool:
    """Structural expression equality, descending into sublink bodies."""
    if a is None or b is None:
        return a is b
    if not ex.contains_sublink(a) and not ex.contains_sublink(b):
        return a == b  # frozen-dataclass equality suffices
    if type(a) is not type(b):
        return False
    if isinstance(a, ex.SubLink):
        assert isinstance(b, ex.SubLink)
        return (
            a.kind == b.kind
            and a.operator == b.operator
            and a.correlated == b.correlated
            and exprs_equal(a.testexpr, b.testexpr)
            and queries_structurally_equal(a.subquery, b.subquery)
        )
    children_a, children_b = a.children(), b.children()
    if len(children_a) != len(children_b):
        return False
    if not all(exprs_equal(x, y) for x, y in zip(children_a, children_b)):
        return False
    # Same type, equal children: compare the shells via a child-free clone.
    hollow_a = ex.rebuild_with_children(a, [_HOLLOW] * len(children_a))
    hollow_b = ex.rebuild_with_children(b, [_HOLLOW] * len(children_b))
    return hollow_a == hollow_b


_HOLLOW = ex.Const(None, None)  # placeholder child for shell comparison


def queries_structurally_equal(a: "Query", b: "Query") -> bool:
    """Deep structural equality of two query nodes (physical annotations
    like ``used_attnos`` and ``agg_share`` are ignored)."""
    if (
        a.distinct != b.distinct
        or a.has_aggs != b.has_aggs
        or len(a.target_list) != len(b.target_list)
        or len(a.range_table) != len(b.range_table)
        or len(a.group_clause) != len(b.group_clause)
        or len(a.sort_clause) != len(b.sort_clause)
    ):
        return False
    for ta, tb in zip(a.target_list, b.target_list):
        if ta.name != tb.name or ta.resjunk != tb.resjunk:
            return False
        if not exprs_equal(ta.expr, tb.expr):
            return False
    for ra, rb in zip(a.range_table, b.range_table):
        if not rtes_structurally_equal(ra, rb):
            return False
    if not _jointrees_equal(a.jointree, b.jointree):
        return False
    if not all(
        exprs_equal(ga, gb) for ga, gb in zip(a.group_clause, b.group_clause)
    ):
        return False
    if not exprs_equal(a.having, b.having):
        return False
    if not exprs_equal(a.limit_count, b.limit_count):
        return False
    if not exprs_equal(a.limit_offset, b.limit_offset):
        return False
    for sa, sb in zip(a.sort_clause, b.sort_clause):
        if (sa.tlist_index, sa.descending, sa.nulls_first) != (
            sb.tlist_index,
            sb.descending,
            sb.nulls_first,
        ):
            return False
    return _setops_equal(a.set_operations, b.set_operations)


def rtes_structurally_equal(a, b) -> bool:
    if a.kind is not b.kind or a.alias != b.alias:
        return False
    if a.kind is RTEKind.RELATION:
        return a.relation_name == b.relation_name
    if (a.subquery is None) != (b.subquery is None):
        return False
    if a.subquery is None:
        return True
    return queries_structurally_equal(a.subquery, b.subquery)


def _jointrees_equal(a: FromExpr, b: FromExpr) -> bool:
    if len(a.items) != len(b.items):
        return False
    if not all(
        _jointree_nodes_equal(x, y) for x, y in zip(a.items, b.items)
    ):
        return False
    return exprs_equal(a.quals, b.quals)


def _jointree_nodes_equal(a: JoinTreeNode, b: JoinTreeNode) -> bool:
    if isinstance(a, RangeTableRef) or isinstance(b, RangeTableRef):
        return (
            isinstance(a, RangeTableRef)
            and isinstance(b, RangeTableRef)
            and a.rtindex == b.rtindex
        )
    return (
        a.join_type == b.join_type
        and _jointree_nodes_equal(a.left, b.left)
        and _jointree_nodes_equal(a.right, b.right)
        and exprs_equal(a.quals, b.quals)
    )


def _setops_equal(a, b) -> bool:
    from repro.analyzer.query_tree import SetOpNode, SetOpRangeRef

    if a is None or b is None:
        return a is b
    if isinstance(a, SetOpRangeRef) or isinstance(b, SetOpRangeRef):
        return (
            isinstance(a, SetOpRangeRef)
            and isinstance(b, SetOpRangeRef)
            and a.rtindex == b.rtindex
        )
    assert isinstance(a, SetOpNode) and isinstance(b, SetOpNode)
    return (
        a.op == b.op
        and a.all == b.all
        and _setops_equal(a.left, b.left)
        and _setops_equal(a.right, b.right)
    )
