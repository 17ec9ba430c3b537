"""The polynomial annotation scheme: ``SELECT PROVENANCE (polynomial)``.

A tuple is annotated with *one column*, ``prov_polynomial``, holding its
``N[X]`` provenance polynomial (Green et al.; captured through query
rewriting as in Pintor et al.).  Under the shared traversal of
``repro.core.rewriter`` every node emits one row per *derivation*:

* base relations mint one tuple variable per row (rule R1's counterpart;
  identity columns chosen from the catalog by :class:`TupleVariableMinter`),
* joins/products multiply annotations; aggregation joins the original
  aggregation with its annotated, aggregation-stripped duplicate,
* ``UNION ALL`` concatenates derivations (``+``), ``INTERSECT`` multiplies
  the annotations of matching tuples (``·``), ``EXCEPT`` annotates
  surviving tuples with the *monus* ``P_left ⊖ P_right`` (the
  natural-order difference on ``N[X]``, following Geerts & Poggi's
  m-semirings and Senellart et al.'s ``Diff`` rewrite); nested difference
  is rejected because monus does not compose through further sums and
  products,
* duplicate elimination (DISTINCT / set-semantics set operations) sums the
  annotations of collapsed duplicates.

At the marked root one final group-by over the visible columns sums the
derivation polynomials, producing the K-relation view of the result --
each distinct original tuple once, annotated with its complete polynomial.

Sublinks are rejected (their semiring semantics is not well-defined by the
positive-algebra rules above); witness lists remain available for those
queries.
"""

from __future__ import annotations

from repro.datatypes import SQLType
from repro.errors import RewriteError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    Query,
    RangeTableEntry,
    SetOpNode,
    SortClause,
    TargetEntry,
    binary_setop_query,
    make_var_for_rte_column,
    setop_tree_contains_except,
)
from repro.core.registry import register_rewrite_strategy
from repro.core.rewriter import (
    AnnotationScheme,
    PList,
    ProvenanceRewriter,
    join_on_equality,
    subtree_query,
)
from repro.semiring.minting import TupleVariableMinter

#: Name of the annotation column every polynomial-rewritten query exposes.
ANNOTATION_COLUMN = "prov_polynomial"

POLY = SQLType.POLYNOMIAL


@register_rewrite_strategy
class PolynomialScheme(AnnotationScheme):
    name = "polynomial"
    description = "N[X] provenance polynomials over abstract semirings"

    def __init__(self, rewriter: ProvenanceRewriter) -> None:
        super().__init__(rewriter)
        self._alias_counter = 0

    def alias(self, prefix: str) -> str:
        alias = f"{prefix}_{self._alias_counter}"
        self._alias_counter += 1
        return alias

    def check_sublink(self, sublink: ex.SubLink) -> None:
        raise RewriteError(
            "sublinks are not supported by the polynomial "
            "rewrite; use the default witness-list semantics"
        )

    def base(self, relation: str, query: Query, rtindex: int) -> PList:
        identity = [
            make_var_for_rte_column(query, rtindex, attno)
            for attno in TupleVariableMinter.identity_attnos(query.range_table[rtindex])
        ]
        args = (ex.Const(relation, SQLType.TEXT), *identity)
        return [_annotation(ex.FuncExpr("perm_poly_token", args, POLY))]

    def reuse(self, rte: RangeTableEntry, plist: PList) -> PList:
        if len(plist) != 1 or plist[0].expr.type is not POLY:
            raise RewriteError(
                f"from-item {rte.alias!r} exposes witness-list provenance "
                "attributes; the polynomial rewrite can only reuse a single "
                "polynomial annotation column"
            )
        return plist

    def combine(self, annotations: list[PList]) -> PList:
        factors = [entry.expr for plist in annotations for entry in plist]
        if not factors:
            return [_annotation(ex.FuncExpr("perm_poly_one", (), POLY))]
        if len(factors) == 1:
            return [_annotation(factors[0])]
        return [_annotation(ex.FuncExpr("perm_poly_mul", tuple(factors), POLY))]

    def deduplicate(self, query: Query, plist: PList) -> tuple[Query, PList]:
        if not query.distinct:
            return query, plist
        # DISTINCT is duplicate elimination: collapse the derivations of
        # each duplicate group, summing their polynomials.  ORDER/LIMIT of
        # the original node apply after the elimination, so they move up.
        query.distinct = False
        sort_spec = _visible_sort_spec(query)
        query.sort_clause = []
        delta, plist = self._collapse(query, len(query.visible_targets) - 1)
        delta.sort_clause = sort_spec
        delta.limit_count, delta.limit_offset = query.limit_count, query.limit_offset
        query.limit_count = query.limit_offset = None
        return delta, plist

    # -- the marked root: collapse derivations into the K-relation ------------

    def rewrite_root(self, query: Query) -> tuple[Query, PList]:
        promoted = _promote_junk_sort_targets(query)
        sort_spec = _visible_sort_spec(query)
        original_width = len(query.visible_targets)
        # The annotation column dodges collisions with visible result
        # columns so ``QueryResult.annotations()`` can address it by name.
        taken = {target.name.lower() for target in query.visible_targets}
        annotation_name, suffix = ANNOTATION_COLUMN, 0
        while annotation_name in taken:
            suffix += 1
            annotation_name = f"{ANNOTATION_COLUMN}_{suffix}"
        if (
            query.limit_count is None
            and query.limit_offset is None
            and query.set_operations is None
        ):
            # Without LIMIT the inner ordering is unobservable after the
            # collapse; drop it (the top node re-sorts).
            query.sort_clause = []
        derivations, _ = self.rewriter.rewrite_node(query)
        top, plist = self._collapse(derivations, original_width, annotation_name)
        top.sort_clause = sort_spec
        # Promoted ordering columns stay grouped (they refine the collapse)
        # but are hidden from the visible result, like any resjunk entry.
        for position in promoted:
            top.target_list[position].resjunk = True
        top.annotation_column = annotation_name
        return top, plist

    def _collapse(
        self, derivations: Query, width: int, output_name: str = ANNOTATION_COLUMN
    ) -> tuple[Query, PList]:
        """Group derivation rows by the ``width`` visible columns, summing
        the polynomials: the K-relation view of the node's result."""
        top = self._tuple_join(derivations, "perm_poly", [], width)
        top.group_clause = [target.expr for target in top.target_list]
        top.has_aggs = True
        derivation = make_var_for_rte_column(top, 0, width)
        total = ex.Aggref(aggname="perm_poly_sum", arg=derivation, type=POLY)
        return _annotated(top, total, output_name)

    # -- set operations -------------------------------------------------------

    def rewrite_setop(self, query: Query, tree: SetOpNode) -> tuple[Query, PList]:
        left = subtree_query(query, tree.left)
        right = subtree_query(query, tree.right)
        if (
            not query.sort_clause
            and query.limit_count is None
            and query.limit_offset is None
        ):
            return self._derivations(tree, left, right)
        # ORDER BY / LIMIT on the set operation select which tuples
        # survive; keep the original node and join the annotated
        # derivations against its result on tuple equality.
        annotated, _ = self._derivations(tree, left.deep_copy(), right.deep_copy())
        width = len(query.visible_targets)
        top = self._tuple_join(query, "perm_set", [(annotated, "perm_poly", "inner")], width)
        return _annotated(top, make_var_for_rte_column(top, 1, width))

    def _derivations(self, tree: SetOpNode, left: Query, right: Query) -> tuple[Query, PList]:
        if tree.op == "except":
            return self._difference(tree, left, right)
        left_ann, _ = self.rewriter.rewrite_node(left)
        right_ann, _ = self.rewriter.rewrite_node(right)
        width = len(left_ann.visible_targets) - 1
        if tree.op == "union":
            # + : derivations of both inputs, concatenated.
            combined = binary_setop_query("union", True, left_ann, right_ann)
        else:
            # * : pair the derivations of matching tuples, multiplying.
            inputs = [(right_ann, "perm_poly_r", "inner")]
            combined = self._tuple_join(left_ann, "perm_poly_l", inputs, width)
            _annotated(combined, _apply("perm_poly_mul", combined, (0, 1), width))
        if tree.all:
            return combined, combined.target_list[-1:]
        return self._collapse(combined, width)

    def _difference(self, tree: SetOpNode, left: Query, right: Query) -> tuple[Query, PList]:
        """EXCEPT: the right input filters membership; surviving tuples are
        annotated with the monus P_left(t) ⊖ P_right(t) -- the m-semiring
        difference of the two sides' collapsed polynomials (Senellart et
        al.'s Diff/Term.sub rewrite, specialized to the natural-order monus
        on N[X])."""
        # Monus does not compose: feeding a truncated difference through
        # further ⊖ is not associative ((a⊖b)⊖c vs a⊖(b+c) only agree
        # under the natural order), so a nested EXCEPT below either operand
        # is rejected loudly rather than silently mis-annotated.
        for operand, side in ((left, "left"), (right, "right")):
            if _contains_difference(operand):
                raise RewriteError(
                    "nested EXCEPT is not supported by the polynomial "
                    f"rewrite (the {side} operand of an EXCEPT contains "
                    "another difference, and the N[X] monus does not "
                    "compose); use the default witness-list semantics"
                )
        q_set = binary_setop_query(tree.op, tree.all, left.deep_copy(), right.deep_copy())
        left_ann, _ = self.rewriter.rewrite_node(left)
        right_ann, _ = self.rewriter.rewrite_node(right)
        width = len(left_ann.visible_targets) - 1
        left_poly, _ = self._collapse(left_ann, width)
        right_poly, _ = self._collapse(right_ann, width)
        # q_set ⋈ P_left ⟕ P_right on null-safe tuple equality; every
        # survivor exists in the left input (inner join), but set-EXCEPT
        # survivors by definition have no right-side row (left join,
        # NULL ⊖-operand subtracts nothing).
        inputs = [(left_poly, "perm_poly_l", "inner"), (right_poly, "perm_poly_r", "left")]
        top = self._tuple_join(q_set, "perm_set", inputs, width)
        return _annotated(top, _apply("perm_poly_monus", top, (1, 2), width))

    def _tuple_join(
        self, keep: Query, keep_prefix: str, inputs: list[tuple[Query, str, str]], width: int
    ) -> Query:
        """``keep`` joined with ``inputs`` -- (query, alias prefix, join
        type) -- on null-safe equality of the ``width`` visible columns."""
        keep_alias = self.alias(keep_prefix)
        aliased = [(query, self.alias(prefix), kind) for query, prefix, kind in inputs]
        return join_on_equality(keep, keep_alias, aliased, width)


def _apply(function: str, query: Query, rtindexes: tuple[int, int], attno: int) -> ex.Expr:
    """``function`` over column ``attno`` (the annotation) of two range
    table entries of ``query``."""
    args = tuple(make_var_for_rte_column(query, rtindex, attno) for rtindex in rtindexes)
    return ex.FuncExpr(function, args, POLY)


def _annotated(
    query: Query, annotation: ex.Expr, name: str = ANNOTATION_COLUMN
) -> tuple[Query, PList]:
    """``query`` with ``annotation`` appended as its annotation column."""
    query.target_list.append(TargetEntry(expr=annotation, name=name))
    return query, query.target_list[-1:]


def _annotation(expr: ex.Expr) -> TargetEntry:
    return TargetEntry(expr=expr, name=ANNOTATION_COLUMN)


def _promote_junk_sort_targets(query: Query) -> list[int]:
    """Make resjunk ORDER BY targets visible for the rewrite.

    Each junk target is promoted to a named visible column so it survives
    the derivation rows and the collapse (which groups by it -- ordering
    attributes refine the K-relation's tuple identity).  The marked root
    re-marks the promoted columns as resjunk on its top node, so the
    visible result schema is unchanged.

    Returns the visible output positions of the promoted targets.
    """
    promoted: list[int] = []
    for clause in query.sort_clause:
        target = query.target_list[clause.tlist_index]
        if target.resjunk:
            target.resjunk = False
            position = query.visible_position(clause.tlist_index)
            target.name = f"perm_ord_{position}"
            promoted.append(position)
    return promoted


def _visible_sort_spec(query: Query) -> list[SortClause]:
    """ORDER BY re-addressed to visible output positions (for a node that
    wraps ``query`` and exposes its visible columns first)."""
    spec: list[SortClause] = []
    for clause in query.sort_clause:
        if query.target_list[clause.tlist_index].resjunk:
            raise RewriteError(
                "ORDER BY expressions not in the select list are not "
                "supported with PROVENANCE (polynomial)"
            )
        spec.append(
            SortClause(
                tlist_index=query.visible_position(clause.tlist_index),
                descending=clause.descending,
                nulls_first=clause.nulls_first,
            )
        )
    return spec


def _contains_difference(query: Query) -> bool:
    """True if any node of ``query``'s tree performs an EXCEPT."""
    if query.set_operations is not None and setop_tree_contains_except(
        query.set_operations
    ):
        return True
    return any(
        rte.subquery is not None and _contains_difference(rte.subquery)
        for rte in query.range_table
    )
