"""The Perm provenance rewrite (paper sections III-C and IV, Fig. 6-7).

One traversal serves every contribution semantics.  It owns what the
paper's ``traverseQueryTree`` / ``rewriteQueryNode`` own -- dispatch on the
node class, the range-table-entry cases, and the rules whose *shape* does
not depend on what is carried:

**SPJ** (Fig. 6.1) -- annotate every range table entry, combine the
annotations, append them to the target list.  An entry is, in priority
order: a ``PROVENANCE (attrs)`` from-item whose provenance is already
computed (section IV-A.3), a base relation or ``BASERELATION`` item (rule
R1, section IV-A.4), or a subquery, which is rewritten recursively and
whose annotation is read through the entry (rules R2-R4).

**ASPJ** (Fig. 6.2, rule R5) -- keep the original aggregation ``q_agg``
(HAVING/ORDER/LIMIT included), rewrite a duplicate ``d`` with aggregation
stripped and the grouping expressions as its target list, and join
``q_agg`` with ``d+`` on null-safe equality of the grouping attributes.

**Set operation** (Fig. 6.3) -- a one-leaf tree is its leaf; everything
else is the scheme's, because there the algebra differs.

What a base tuple is annotated with, how annotations combine, what
duplicate elimination and the marked root do, the set-operation rules and
the treatment of sublinks belong to an :class:`AnnotationScheme`
(``repro.core.witness``: the paper's witness lists;
``repro.semiring.rewriter``: ``N[X]`` polynomials).  ``docs/rewriter.md``
maps Fig. 6-7 and rules R1-R9 onto this module and the two schemes.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

from repro.datatypes import SQLType
from repro.errors import RewriteError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    FromExpr,
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    QueryNodeClass,
    RangeTableEntry,
    RangeTableRef,
    RTEKind,
    SetOpNode,
    SetOpRangeRef,
    SetOpTreeNode,
    TargetEntry,
    binary_setop_query,
    level_exprs,
    make_var_for_rte_column,
    subquery_rte,
)
from repro.core.registry import get_rewrite_strategy

#: The paper's P-list: the annotation of a rewritten node, as the target
#: entries that were appended to its (visible) result schema.
PList = list[TargetEntry]


class AnnotationScheme:
    """The annotation algebra of one contribution semantics.

    One instance serves one rewrite scope (it may count references and
    aliases).  The defaults are the answers "nothing to do"; a scheme
    overrides what its algebra defines.
    """

    name: str
    description: str

    def __init__(self, rewriter: "ProvenanceRewriter") -> None:
        self.rewriter = rewriter

    def alias(self, prefix: str) -> str:
        """The alias of a subquery the traversal introduces."""
        return prefix

    def check_sublink(self, sublink: ex.SubLink) -> None:
        """Raise :class:`RewriteError` for a sublink the scheme cannot carry."""

    def base(self, relation: str, query: Query, rtindex: int) -> PList:
        """Rule R1: the annotation of one tuple of base relation
        ``relation``, which is range table entry ``rtindex`` of ``query``."""
        raise NotImplementedError

    def reuse(self, rte: RangeTableEntry, plist: PList) -> PList:
        """The annotation of a from-item whose ``PROVENANCE (attrs)``
        columns -- ``plist`` reads them -- are already computed."""
        return plist

    def combine(self, annotations: list[PList]) -> PList:
        """The annotation of a tuple joined from the annotated inputs."""
        raise NotImplementedError

    def sublinks(self, query: Query) -> list[PList]:
        """Annotations contributed by sublinks in WHERE and the target
        list of SPJ node ``query`` (which is extended in place)."""
        return []

    def aggregate_sublinks(self, top: Query, q_agg: Query, width: int) -> PList:
        """Annotation contributed by sublinks in HAVING and the first
        ``width`` targets of ``q_agg``, attached to the ASPJ join ``top``."""
        return []

    def deduplicate(self, query: Query, plist: PList) -> tuple[Query, PList]:
        """What DISTINCT on rewritten SPJ node ``query`` does to annotations."""
        return query, plist

    def rewrite_setop(self, query: Query, tree: SetOpNode) -> tuple[Query, PList]:
        """Rules R6-R9 for set-operation node ``query``."""
        raise NotImplementedError

    def rewrite_root(self, query: Query) -> tuple[Query, PList]:
        """Rewrite the marked node itself (the root of the rewrite scope)."""
        return self.rewriter.rewrite_node(query)


class ProvenanceRewriter:
    """One rewrite scope: the traversal of Fig. 7 under one scheme."""

    def __init__(self, scheme: type[AnnotationScheme], setop_strategy: str = "split") -> None:
        if setop_strategy not in ("split", "flat"):
            raise ValueError("setop_strategy must be 'split' or 'flat'")
        self.setop_strategy = setop_strategy
        self.scheme = scheme(self)

    def rewrite_node(self, query: Query) -> tuple[Query, PList]:
        """The paper's ``rewriteQueryNode``: returns ``q+``, whose last
        visible targets are the returned P-list."""
        for expr in level_exprs(query):
            for node in ex.walk(expr):
                if isinstance(node, ex.SubLink):
                    self.scheme.check_sublink(node)
        query.provenance = False
        query.provenance_type = None
        node_class = query.node_class()
        if node_class is QueryNodeClass.SETOP:
            tree = query.set_operations
            if isinstance(tree, SetOpRangeRef):  # degenerate single leaf
                return self.rewrite_node(query.range_table[tree.rtindex].subquery)
            return self.scheme.rewrite_setop(query, tree)
        if node_class is QueryNodeClass.ASPJ:
            return self._rewrite_aspj_node(query)
        return self._rewrite_spj_node(query)

    # -- SPJ (Fig. 6.1) ------------------------------------------------------

    def _rewrite_spj_node(self, query: Query) -> tuple[Query, PList]:
        annotations = [
            self._rewrite_rte(query, rtindex, rte)
            for rtindex, rte in enumerate(query.range_table)
        ]
        annotations += self.scheme.sublinks(query)
        plist = self.scheme.combine(annotations)
        query.target_list.extend(plist)
        return self.scheme.deduplicate(query, plist)

    def _rewrite_rte(self, query: Query, rtindex: int, rte: RangeTableEntry) -> PList:
        if rte.provenance_attrs is not None:
            return self.scheme.reuse(
                rte,
                [
                    TargetEntry(
                        expr=make_var_for_rte_column(query, rtindex, _find_column(rte, name)),
                        name=name.lower(),
                    )
                    for name in rte.provenance_attrs
                ],
            )
        if rte.base_relation or rte.kind is RTEKind.RELATION:
            named_by_relation = rte.kind is RTEKind.RELATION and not rte.base_relation
            relation = (rte.relation_name if named_by_relation else None) or rte.alias
            return self.scheme.base(relation, query, rtindex)
        # Plain subquery: its annotation surfaces as new output columns.
        old_width = rte.width()
        rte.subquery, plist = self.rewrite_node(rte.subquery)
        rte.column_names = list(rte.column_names) + [entry.name for entry in plist]
        rte.column_types = list(rte.column_types) + [entry.expr.type for entry in plist]
        return read_plist(query, rtindex, old_width, plist)

    # -- ASPJ (Fig. 6.2, rule R5) --------------------------------------------

    def _rewrite_aspj_node(self, query: Query) -> tuple[Query, PList]:
        # q_agg: the original aggregation, kept intact and extended with
        # its grouping expressions so the top node can join on them.
        q_agg = query
        groups = list(query.group_clause)
        original_width = len(q_agg.visible_targets)

        def group_targets() -> list[TargetEntry]:
            return [TargetEntry(expr=g, name=f"perm_g{i}") for i, g in enumerate(groups)]

        q_agg.target_list.extend(group_targets())
        # d: the duplicate with aggregation, HAVING and the original
        # projection stripped, rewritten as an SPJ node.
        duplicate = Query(
            target_list=group_targets(),
            range_table=[copy.deepcopy(rte) for rte in query.range_table],
            jointree=copy.deepcopy(query.jointree),
        )
        d_plus, d_plist = self.rewrite_node(duplicate)
        # NULL group keys match their NULL group, as GROUP BY itself treats
        # NULLs as equal.
        top = join_on_equality(
            q_agg,
            self.scheme.alias("perm_agg"),
            [(d_plus, self.scheme.alias("perm_prov"), "inner")],
            original_width,
            on=[(original_width + i, i) for i in range(len(groups))],
        )
        plist = read_plist(top, 1, len(groups), d_plist)
        plist += self.scheme.aggregate_sublinks(top, q_agg, original_width)
        top.target_list.extend(plist)
        return top, plist


# ---------------------------------------------------------------------------
# Builders shared with the schemes' set-operation rules
# ---------------------------------------------------------------------------


def join_on_equality(
    keep: Query,
    keep_alias: str,
    inputs: Sequence[tuple[Query, str, str]],
    width: int,
    on: Optional[Sequence[tuple[int, int]]] = None,
) -> Query:
    """``keep`` (original semantics) joined with annotated ``inputs``.

    The new node's range table is ``keep`` followed by the inputs, each
    given as (query, alias, join type) and joined, left-deep, on
    null-safe equality of ``keep`` column ``k`` and its own column ``i``
    for every ``(k, i)`` in ``on`` -- by default tuple equality over
    the first ``width`` columns.  Its target list is those ``width``
    columns of ``keep``; callers append the annotation.
    """
    if on is None:
        on = [(attno, attno) for attno in range(width)]
    top = Query()
    keep_index = top.add_rte(subquery_rte(keep, alias=keep_alias))
    joined: JoinTreeNode = RangeTableRef(keep_index)
    for query, alias, join_type in inputs:
        rtindex = top.add_rte(subquery_rte(query, alias=alias))
        conjuncts = [
            ex.OpExpr(
                "<=>",
                (
                    make_var_for_rte_column(top, keep_index, keep_attno),
                    make_var_for_rte_column(top, rtindex, attno),
                ),
                SQLType.BOOLEAN,
            )
            for keep_attno, attno in on
        ]
        joined = JoinTreeExpr(
            join_type=join_type,
            left=joined,
            right=RangeTableRef(rtindex),
            quals=_conjoin(conjuncts),
        )
    top.jointree = FromExpr(items=[joined])
    for attno in range(width):
        var = make_var_for_rte_column(top, keep_index, attno)
        top.target_list.append(TargetEntry(expr=var, name=var.name))
    return top


def read_plist(query: Query, rtindex: int, base_width: int, plist: PList) -> PList:
    """``plist`` of the subquery in range table entry ``rtindex`` as seen
    from ``query``: Vars over the entry's columns from ``base_width`` on."""
    return [
        TargetEntry(
            expr=make_var_for_rte_column(query, rtindex, base_width + offset),
            name=entry.name,
        )
        for offset, entry in enumerate(plist)
    ]


def _conjoin(conjuncts: list[ex.Expr]) -> Optional[ex.Expr]:
    if len(conjuncts) <= 1:
        return conjuncts[0] if conjuncts else None
    return ex.BoolOpExpr("and", tuple(conjuncts))


def subtree_query(query: Query, node: SetOpTreeNode) -> Query:
    """Materialize a set-operation subtree as its own query node."""
    if isinstance(node, SetOpRangeRef):
        return query.range_table[node.rtindex].subquery
    left = subtree_query(query, node.left)
    right = subtree_query(query, node.right)
    return binary_setop_query(node.op, node.all, left, right)


def _find_column(rte: RangeTableEntry, name: str) -> int:
    for attno, column in enumerate(rte.column_names):
        if column.lower() == name.lower():
            return attno
    raise RewriteError(
        f"PROVENANCE attribute {name!r} not found in from-item {rte.alias!r}"
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def rewrite_marked_node(
    query: Query, setop_strategy: str = "split"
) -> tuple[Query, tuple[str, ...]]:
    """Rewrite a node marked ``SELECT PROVENANCE [(semantics)]`` under the
    scheme it names; returns ``q+`` and its provenance attribute names.

    The one place a marked node meets its semantics: the analyzer calls it
    for marked FROM subqueries, views, sublink queries and set-operation
    operands (so enclosing queries see the rewritten schema),
    :func:`traverse_query_tree` for a marked root.
    """
    scheme = get_rewrite_strategy(query.provenance_type)
    rewriter = ProvenanceRewriter(scheme, setop_strategy)
    into, query.into = query.into, None
    rewritten, plist = rewriter.scheme.rewrite_root(query)
    rewritten.into = into
    return rewritten, tuple(entry.name for entry in plist)


def traverse_query_tree(query: Query, setop_strategy: str = "split") -> Query:
    """The paper's ``traverseQueryTree``: rewrite what is marked.

    Marked nodes below the root were already rewritten when the analyzer
    met them, so only the root is left to look at.
    """
    if query.provenance:
        query, _ = rewrite_marked_node(query, setop_strategy)
    return query
