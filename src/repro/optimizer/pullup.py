"""Subquery pull-up (optimizer rule 1) and join-tree normalization.

The provenance rewriter builds deeply nested scaffolding: every rewrite
case wraps its inputs in fresh subquery range table entries, so the
rewritten ``q+`` reaches the planner as a tower of single-purpose SELECTs
whose only job is to re-export columns.  A DBMS optimizer collapses these
before planning (the paper's §VI performance argument leans on exactly
this); these rules reproduce that collapse on the logical query tree:

* :func:`normalize_jointree` flattens top-level *inner* joins into the
  FROM item list with their ON conditions merged into WHERE — the
  canonical "implicit cross product + quals" form the planner and the
  other rules work on;
* :func:`pull_up_node` inlines simple SPJ subqueries (no aggregation, no
  set operation, no DISTINCT/LIMIT/ORDER BY) into their parent: the
  subquery's range table entries join the parent's range table, parent
  references to the subquery's outputs are substituted by the defining
  expressions, the subquery's join tree is spliced into the parent's, and
  its WHERE clause merges into the nearest legal qual holder.

Qual placement and null-extension safety:

* a subquery in a WHERE-reachable position (top-level FROM item, or
  reachable through inner joins / preserved sides of outer joins) may
  merge its quals into the parent WHERE — filtering a preserved input
  before or after the join is equivalent;
* a subquery on the null-producing side of an outer join merges its quals
  into that join's ON condition (``L LEFT JOIN (σ_w R) ON c  ≡
  L LEFT JOIN R ON (c AND w)``), and is only pulled up when every
  referenced output is a plain column reference — a non-strict output
  expression (e.g. a constant) would survive null extension where the
  subquery's output column becomes NULL;
* under a FULL join neither placement is legal, so only qual-free
  subqueries are pulled there.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Callable, Iterator, Optional, Union

from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RangeTableEntry,
    RangeTableRef,
    RTEKind,
)
from repro.optimizer.treeutils import (
    compact_range_table,
    lift_vars,
    remap_level_vars,
)

#: Sink for a pulled subquery's WHERE conjuncts: the parent's WHERE, a
#: specific join node's ON condition, or nowhere (FULL JOIN operands).
_Sink = Union[str, JoinTreeExpr, None]
_WHERE: _Sink = "where"

_Replace = Callable[[JoinTreeNode], None]


# ---------------------------------------------------------------------------
# Join-tree normalization
# ---------------------------------------------------------------------------


def normalize_jointree(query: Query) -> bool:
    """Flatten top-level inner joins into FROM items + WHERE conjuncts."""
    if query.set_operations is not None:
        return False
    fused = {frozenset(pair[:2]) for pair in query.agg_shares} or None
    items: list[JoinTreeNode] = []
    conjuncts: list[ex.Expr] = []
    changed = False
    for item in query.jointree.items:
        changed |= _flatten_item(item, items, conjuncts, fused)
    if not changed:
        return False
    query.jointree.items = items
    if conjuncts:
        existing = (
            [query.jointree.quals] if query.jointree.quals is not None else []
        )
        query.jointree.quals = _conjoin(conjuncts + existing)
    return True


def _flatten_item(
    node: JoinTreeNode,
    items: list[JoinTreeNode],
    conjuncts: list[ex.Expr],
    fused: Optional[set[int]],
) -> bool:
    if (
        isinstance(node, JoinTreeExpr)
        and node.join_type in ("inner", "cross")
        and not _is_fused_pair(node, fused)
    ):
        _flatten_item(node.left, items, conjuncts, fused)
        _flatten_item(node.right, items, conjuncts, fused)
        if node.quals is not None:
            conjuncts.append(node.quals)
        return True
    items.append(node)
    return False


def _is_fused_pair(
    node: JoinTreeExpr, fused: Optional[set[frozenset[int]]]
) -> bool:
    """The aggregation-fusion join node stays intact: the planner consumes
    it as one shared-core unit, quals and all."""
    return (
        fused is not None
        and isinstance(node.left, RangeTableRef)
        and isinstance(node.right, RangeTableRef)
        and frozenset((node.left.rtindex, node.right.rtindex)) in fused
    )


def _conjoin(conjuncts: list[ex.Expr]) -> ex.Expr:
    if len(conjuncts) == 1:
        return conjuncts[0]
    return ex.BoolOpExpr("and", tuple(conjuncts))


# ---------------------------------------------------------------------------
# Pull-up
# ---------------------------------------------------------------------------


def pull_up_node(query: Query) -> bool:
    """Inline every pullable SPJ subquery of one (non-setop) query node.

    Repeats until no candidate remains, so a chain of nested wrappers
    collapses in a single call once inner levels were processed first.
    The range table is compacted once, after the last inlining: until
    then an inlined subquery's own entry stays behind as a dead slot
    (nothing references it, so no walk of the join tree reaches it), and
    since compaction keeps the survivors' relative order the final
    numbering is the one compacting after every step would give —
    without re-walking and renumbering the whole level per step.
    """
    if query.set_operations is not None:
        return False
    inlined: set[int] = set()
    while _pull_one(query, inlined):
        pass
    if not inlined:
        return False
    compact_range_table(query)
    return True


def _pull_one(query: Query, inlined: set[int]) -> bool:
    fused = {index for pair in query.agg_shares for index in pair[:2]}
    for rtindex, replace, sink, nullable in _leaf_positions(query):
        if rtindex in fused:
            # Fusion pair stays as subqueries: the planner shares their core.
            continue
        rte = query.range_table[rtindex]
        if _pullable(query, rte, sink, nullable):
            _inline(query, rtindex, replace, sink, inlined)
            inlined.add(rtindex)
            return True
    return False


def _leaf_positions(
    query: Query,
) -> Iterator[tuple[int, _Replace, _Sink, bool]]:
    items = query.jointree.items
    for i, item in enumerate(items):

        def replace_item(node: JoinTreeNode, index: int = i) -> None:
            items[index] = node

        yield from _walk_jointree(item, replace_item, _WHERE, False)


def _walk_jointree(
    node: JoinTreeNode, replace: _Replace, sink: _Sink, nullable: bool
) -> Iterator[tuple[int, _Replace, _Sink, bool]]:
    if isinstance(node, RangeTableRef):
        yield node.rtindex, replace, sink, nullable
        return
    join = node
    if join.join_type in ("inner", "cross"):
        left_sink = right_sink = join
        left_nullable = right_nullable = nullable
    elif join.join_type == "left":
        left_sink, left_nullable = sink, nullable
        right_sink, right_nullable = join, True
    elif join.join_type == "right":
        left_sink, left_nullable = join, True
        right_sink, right_nullable = sink, nullable
    else:  # full: no legal qual placement, both sides null-extend
        left_sink = right_sink = None
        left_nullable = right_nullable = True

    def replace_left(new: JoinTreeNode) -> None:
        join.left = new

    def replace_right(new: JoinTreeNode) -> None:
        join.right = new

    yield from _walk_jointree(join.left, replace_left, left_sink, left_nullable)
    yield from _walk_jointree(join.right, replace_right, right_sink, right_nullable)


def _pullable(
    query: Query, rte: RangeTableEntry, sink: _Sink, nullable: bool
) -> bool:
    if rte.kind is not RTEKind.SUBQUERY or rte.subquery is None:
        return False
    sub = rte.subquery
    if (
        sub.set_operations is not None
        or sub.has_aggs
        or sub.group_clause
        or sub.having is not None
        or sub.distinct
        or sub.limit_count is not None
        or sub.limit_offset is not None
        or sub.sort_clause
        or not sub.jointree.items
    ):
        return False
    if any(t.resjunk for t in sub.target_list):
        return False
    if sub.jointree.quals is not None and sink is None:
        # No outer qual holder (FULL JOIN operand): pullable only if the
        # quals can ride inside the spliced subtree on an inner join.
        items = sub.jointree.items
        carries_inside = len(items) >= 2 or (
            isinstance(items[0], JoinTreeExpr)
            and items[0].join_type in ("inner", "cross")
        )
        if not carries_inside:
            return False
    for target in sub.target_list:
        if ex.contains_sublink(target.expr):
            # Substituting would duplicate the sublink's mutable subquery
            # across parent expressions; not worth the bookkeeping.
            return False
        if nullable and not isinstance(target.expr, ex.Var):
            # Non-strict outputs (constants, COALESCE, ...) would survive
            # the null extension the subquery boundary provides.
            return False
    return True


def _inline(
    query: Query,
    rtindex: int,
    replace: _Replace,
    sink: _Sink,
    inlined: set[int],
) -> None:
    """Inline subquery ``rtindex``; ``inlined`` are the dead slots earlier
    inlinings of this level left in the range table."""
    sub = query.range_table[rtindex].subquery
    assert sub is not None
    offset = len(query.range_table)

    _uniquify_aliases(query, sub, inlined)

    # Shift the subquery's own-level Vars *and* its join-tree leaves into
    # the parent's numbering (the Var remap descends into sublinks, whose
    # correlated references move with their query level).
    remap_level_vars(
        sub, lambda var: _dc_replace(var, varno=var.varno + offset)
    )
    _shift_jointree_refs(sub.jointree.items, offset)
    query.range_table.extend(sub.range_table)
    # The inlined subquery's fusion pairs move with it (shifted into the
    # parent's numbering; the final compaction renumbers them again).
    query.agg_shares.extend(
        (a + offset, b + offset, positions)
        for a, b, positions in sub.agg_shares
    )

    # Substitute parent references to the subquery's outputs, wherever
    # they live (target list, quals, sublink bodies at any depth).
    targets = sub.visible_targets

    def substitute(var: ex.Var) -> Optional[ex.Expr]:
        if var.varno != rtindex:
            return None
        return targets[var.varattno].expr

    remap_level_vars(query, substitute)

    # Splice the subquery's join tree into the parent's.  Its WHERE stays
    # *inside* the spliced subtree whenever there is an inner join to
    # carry it (FROM a, b WHERE w  ≡  a JOIN b ON w) — pushing it out to
    # the sink would turn the subquery's join into a bare cross product.
    spliced = _fold_inner(sub.jointree.items)
    quals = sub.jointree.quals
    if quals is not None and isinstance(spliced, JoinTreeExpr) \
            and spliced.join_type in ("inner", "cross"):
        spliced.join_type = "inner"
        spliced.quals = (
            quals
            if spliced.quals is None
            else ex.BoolOpExpr("and", (spliced.quals, quals))
        )
        quals = None
    replace(spliced)

    # Remaining quals (single-relation subqueries) go to the sink: the
    # parent WHERE in preserved positions, the enclosing join's ON below
    # a null-producing side.
    if quals is not None:
        if sink is _WHERE:
            existing = query.jointree.quals
            query.jointree.quals = (
                quals
                if existing is None
                else ex.BoolOpExpr("and", (existing, quals))
            )
        else:
            assert isinstance(sink, JoinTreeExpr)
            sink.quals = (
                quals
                if sink.quals is None
                else ex.BoolOpExpr("and", (sink.quals, quals))
            )


def _shift_jointree_refs(items: list[JoinTreeNode], offset: int) -> None:
    stack: list[JoinTreeNode] = list(items)
    while stack:
        node = stack.pop()
        if isinstance(node, RangeTableRef):
            node.rtindex += offset
        else:
            stack.append(node.left)
            stack.append(node.right)


def _fold_inner(items: list[JoinTreeNode]) -> JoinTreeNode:
    node = items[0]
    for item in items[1:]:
        node = JoinTreeExpr(join_type="inner", left=node, right=item, quals=None)
    return node


def _uniquify_aliases(query: Query, sub: Query, dead: set[int]) -> None:
    taken = {
        rte.alias
        for index, rte in enumerate(query.range_table)
        if index not in dead
    }
    for rte in sub.range_table:
        alias = rte.alias
        if alias in taken:
            counter = 1
            while f"{alias}_{counter}" in taken:
                counter += 1
            rte.alias = f"{alias}_{counter}"
        taken.add(rte.alias)
