"""The witness-list annotation scheme: the paper's own semantics.

A tuple is annotated with a *block of columns per base relation
reference* holding the contributing base tuples (or NULLs):

* rule R1 duplicates and renames the attributes of a base relation
  (``prov_<relation>_<attribute>``, section IV-A.1);
* annotations of joined inputs are concatenated (rules R2-R4), and
  DISTINCT and the marked root leave them alone;
* set operations keep the original operation ``q_set`` and join it with
  the rewritten duplicates of its inputs: left joins on null-safe tuple
  equality for union (R6), inner joins for intersection (R7), and for
  difference ``T1+`` by equality and ``T2+`` by tuple inequality (bag, R9)
  or unconditionally (set, R8) -- per binary node (Fig. 6.3b, the strategy
  of the evaluated prototype) or, for homogeneous except-free trees under
  ``setop_strategy="flat"``, with one top node over all leaves (Fig. 6.3a);
* uncorrelated sublinks join a rewritten copy of the sublink query into
  the range table purely to attach its provenance (section IV-E); the
  original condition keeps the untouched sublink for filtering.
"""

from __future__ import annotations

from typing import Optional

from repro.datatypes import SQLType
from repro.errors import RewriteError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RangeTableRef,
    SetOpNode,
    SetOpRangeRef,
    SetOpTreeNode,
    TargetEntry,
    binary_setop_query,
    make_var_for_rte_column,
    setop_leaf_indexes,
    subquery_rte,
)
from repro.core.naming import ProvenanceNamer
from repro.core.registry import register_rewrite_strategy
from repro.core.rewriter import (
    AnnotationScheme,
    PList,
    ProvenanceRewriter,
    join_on_equality,
    read_plist,
    subtree_query,
)

BOOL = SQLType.BOOLEAN


@register_rewrite_strategy
class WitnessScheme(AnnotationScheme):
    name = "witness"
    description = "witness lists: contributing base tuples per result tuple"

    def __init__(self, rewriter: ProvenanceRewriter) -> None:
        super().__init__(rewriter)
        self.namer = ProvenanceNamer()
        self._sublink_counter = 0

    def check_sublink(self, sublink: ex.SubLink) -> None:
        if sublink.correlated:
            raise RewriteError(
                "correlated sublinks are not supported by the "
                "provenance rewriter (paper section IV-E)"
            )

    def base(self, relation: str, query: Query, rtindex: int) -> PList:
        rte = query.range_table[rtindex]
        attributes = self.namer.attributes_for_relation(
            relation, list(rte.column_names), list(rte.column_types)
        )
        return [
            TargetEntry(
                expr=make_var_for_rte_column(query, rtindex, attno), name=attribute.name
            )
            for attno, attribute in enumerate(attributes)
        ]

    def combine(self, annotations: list[PList]) -> PList:
        return [entry for plist in annotations for entry in plist]

    # -- set operations (Fig. 6.3, rules R6-R9) ------------------------------

    def rewrite_setop(self, query: Query, tree: SetOpNode) -> tuple[Query, PList]:
        # The flat strategy is only equivalent for homogeneous except-free
        # trees: mixed trees need the per-node membership semijoins that the
        # splitting strategy provides.
        if self.rewriter.setop_strategy == "flat" and _tree_operators(tree) in (
            {"union"},
            {"intersect"},
        ):
            leaves = [query.range_table[i].subquery for i in setop_leaf_indexes(tree)]
            aliases = [f"perm_leaf_{n}" for n in range(len(leaves))]
            return self._join_inputs(query, tree, leaves, aliases)
        # Fig. 6.3b: the original binary set operation, kept for the
        # original result, inherits the node's ORDER BY / LIMIT so the
        # original semantics (e.g. LIMIT before provenance expansion) holds.
        inputs = [subtree_query(query, tree.left), subtree_query(query, tree.right)]
        q_set = binary_setop_query(tree.op, tree.all, *inputs)
        q_set.sort_clause = list(query.sort_clause)
        q_set.limit_count = query.limit_count
        q_set.limit_offset = query.limit_offset
        top, plist = self._join_inputs(q_set, tree, inputs, ["perm_left", "perm_right"])
        if tree.op == "except":
            # R8/R9: T2+ attaches by tuple inequality for the bag version,
            # unconditionally for the set version (every T2 tuple differs
            # from a surviving result tuple).
            join = top.jointree.items[0]
            join.quals = (
                ex.BoolOpExpr("not", (join.quals,)) if tree.all else ex.Const(True, BOOL)
            )
        return top, plist

    def _join_inputs(
        self, q_set: Query, tree: SetOpNode, inputs: list[Query], aliases: list[str]
    ) -> tuple[Query, PList]:
        """``q_set`` joined on null-safe tuple equality with the rewritten
        duplicates of ``inputs``: inner joins for intersection, else left."""
        width = len(q_set.visible_targets)
        rewritten = [self.rewriter.rewrite_node(query.deep_copy()) for query in inputs]
        join_type = "inner" if tree.op == "intersect" else "left"
        top = join_on_equality(
            q_set,
            "perm_set",
            [(dup, alias, join_type) for (dup, _), alias in zip(rewritten, aliases)],
            width,
        )
        plist: PList = []
        for rtindex, (query, (_, input_plist)) in enumerate(zip(inputs, rewritten), start=1):
            plist += read_plist(top, rtindex, len(query.visible_targets), input_plist)
        top.target_list.extend(plist)
        return top, plist

    # -- sublinks (section IV-E) ---------------------------------------------

    def sublinks(self, query: Query) -> list[PList]:
        annotations = []
        for sublink, condition in _locate_sublinks(query.jointree.quals, query.target_list):
            rtindex, plist = self._add_sublink_rte(query, sublink)
            join_cond = self._witness_condition(query, rtindex, sublink, sublink.testexpr)
            independent = _independent_part(condition, sublink)
            if independent is not None:
                join_cond = ex.BoolOpExpr("or", (join_cond, independent))
            _attach_left_join(query, join_cond)
            annotations.append(plist)
        return annotations

    def aggregate_sublinks(self, top: Query, q_agg: Query, width: int) -> PList:
        """The witness condition may reference aggregate results; those are
        exported from ``q_agg`` (range table entry 0 of ``top``) as extra
        columns so the top-level join can evaluate them."""
        located = _locate_sublinks(q_agg.having, q_agg.target_list[:width])
        agg_rte = top.range_table[0]

        def export(expr: ex.Expr, name: str) -> ex.Var:
            q_agg.target_list.append(TargetEntry(expr=expr, name=name))
            agg_rte.column_names.append(name)
            agg_rte.column_types.append(expr.type)
            return make_var_for_rte_column(top, 0, len(agg_rte.column_names) - 1)

        annotation: PList = []
        for sublink, condition in located:
            rtindex, plist = self._add_sublink_rte(top, sublink)
            if sublink.kind in (ex.SubLinkKind.ANY, ex.SubLinkKind.ALL):
                test = export(sublink.testexpr, f"perm_ht{rtindex}")
                join_cond = self._witness_condition(top, rtindex, sublink, test)
                independent = _independent_part(condition, sublink)
                if independent is not None:
                    flag = export(independent, f"perm_hi{rtindex}")
                    join_cond = ex.BoolOpExpr("or", (join_cond, flag))
            else:
                join_cond = ex.Const(True, BOOL)
            top.jointree.items = [
                JoinTreeExpr(
                    join_type="left",
                    left=top.jointree.items[0],
                    right=RangeTableRef(rtindex),
                    quals=join_cond,
                )
            ]
            annotation += plist
        return annotation

    def _add_sublink_rte(self, query: Query, sublink: ex.SubLink) -> tuple[int, PList]:
        """Add the rewritten copy of the sublink query to ``query``'s range
        table; returns its index and its P-list as seen from ``query``."""
        width = len(sublink.subquery.visible_targets)
        rewritten, plist = self.rewriter.rewrite_node(sublink.subquery.deep_copy())
        alias = f"perm_sublink_{self._sublink_counter}"
        self._sublink_counter += 1
        rtindex = query.add_rte(subquery_rte(rewritten, alias=alias))
        return rtindex, read_plist(query, rtindex, width, plist)

    @staticmethod
    def _witness_condition(
        query: Query, rtindex: int, sublink: ex.SubLink, test: Optional[ex.Expr]
    ) -> ex.Expr:
        """The contribution condition J for one sublink tuple.

        * ANY (IN): tuples satisfying the comparison witness the result.
        * ALL (NOT IN as ``<> ALL``): the result holds only when *every*
          tuple satisfies the comparison, so exactly the tuples satisfying
          it contribute (the paper's Q16 discussion: every tuple that did
          not fulfill the original IN condition).
        * EXISTS / scalar: every tuple of the sublink query contributes.
        """
        if sublink.kind in (ex.SubLinkKind.ANY, ex.SubLinkKind.ALL):
            sub_var = make_var_for_rte_column(query, rtindex, 0)
            return ex.OpExpr(sublink.operator or "=", (test, sub_var), BOOL)
        return ex.Const(True, BOOL)


def _attach_left_join(query: Query, join_cond: ex.Expr) -> None:
    """LEFT JOIN the last range table entry against the rest of FROM."""
    new_ref = RangeTableRef(len(query.range_table) - 1)
    items = query.jointree.items
    if not items:
        # FROM-less query with a sublink: the join degenerates to a
        # filtered scan of the sublink relation preserving emptiness.
        query.jointree.items = [new_ref]
        existing_quals = query.jointree.quals
        query.jointree.quals = (
            join_cond
            if existing_quals is None
            else ex.BoolOpExpr("and", (existing_quals, join_cond))
        )
        return
    left: JoinTreeNode = items[0]
    for item in items[1:]:
        left = JoinTreeExpr(join_type="inner", left=left, right=item, quals=None)
    query.jointree.items = [
        JoinTreeExpr(join_type="left", left=left, right=new_ref, quals=join_cond)
    ]


def _tree_operators(node: SetOpTreeNode) -> set[str]:
    if isinstance(node, SetOpRangeRef):
        return set()
    return {node.op} | _tree_operators(node.left) | _tree_operators(node.right)


def _locate_sublinks(
    condition: Optional[ex.Expr], targets: list[TargetEntry]
) -> list[tuple[ex.SubLink, Optional[ex.Expr]]]:
    """The sublinks of ``condition``, each paired with it, then those of
    ``targets``, which contribute unconditionally (paired with None)."""
    located = []
    if condition is not None:
        located += [(sublink, condition) for sublink in _ordered_sublinks(condition)]
    for target in targets:
        located += [(sublink, None) for sublink in _ordered_sublinks(target.expr)]
    return located


def _ordered_sublinks(expr: ex.Expr) -> list[ex.SubLink]:
    """Sublinks in deterministic left-to-right pre-order."""
    found: list[ex.SubLink] = []

    def visit(node: ex.Expr) -> None:
        if isinstance(node, ex.SubLink):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(expr)
    return found


def _independent_part(
    condition: Optional[ex.Expr], sublink: ex.SubLink
) -> Optional[ex.Expr]:
    """What of the ``condition`` governing ``sublink`` can hold whatever
    the sublink returns (then all of its tuples contribute); None if
    nothing can, or no condition governs it."""
    if condition is None:
        return None
    independent = _simplify_bools(_neutralize_sublink(condition, sublink))
    if isinstance(independent, ex.Const) and independent.value is False:
        return None
    return independent


def _neutralize_sublink(condition: ex.Expr, sublink: ex.SubLink) -> ex.Expr:
    """``condition`` with the sublink's contribution made FALSE.

    Boolean sublinks (EXISTS, ANY, ALL) are replaced directly.  A *scalar*
    sublink appears as a non-boolean operand (``x = (SELECT ...)``); there
    the tightest boolean predicate containing it is replaced, keeping the
    result well-typed (``x = FALSE`` would be a float/boolean comparison —
    and, insidiously, ``0.0 = FALSE`` holds in the value domain).
    """
    if condition is sublink:
        return ex.Const(False, BOOL)
    if not any(node is sublink for node in ex.walk(condition)):
        return condition
    if isinstance(condition, ex.BoolOpExpr):
        return ex.BoolOpExpr(
            condition.op,
            tuple(_neutralize_sublink(a, sublink) for a in condition.args),
        )
    # A non-AND/OR/NOT predicate containing the sublink: the whole
    # predicate is governed by the sublink's value.
    return ex.Const(False, BOOL)


def _simplify_bools(expr: ex.Expr) -> ex.Expr:
    """Constant-fold boolean structure (enough to drop ``x OR FALSE``)."""
    if isinstance(expr, ex.BoolOpExpr):
        args = [_simplify_bools(a) for a in expr.args]
        if expr.op == "not":
            arg = args[0]
            if isinstance(arg, ex.Const) and arg.type == BOOL:
                if arg.value is None:
                    return ex.Const(None, BOOL)
                return ex.Const(not arg.value, BOOL)
            return ex.BoolOpExpr("not", (arg,))
        keep: list[ex.Expr] = []
        if expr.op == "and":
            for arg in args:
                if isinstance(arg, ex.Const) and arg.value is True:
                    continue
                if isinstance(arg, ex.Const) and arg.value is False:
                    return ex.Const(False, BOOL)
                keep.append(arg)
            if not keep:
                return ex.Const(True, BOOL)
        else:  # or
            for arg in args:
                if isinstance(arg, ex.Const) and arg.value is False:
                    continue
                if isinstance(arg, ex.Const) and arg.value is True:
                    return ex.Const(True, BOOL)
                keep.append(arg)
            if not keep:
                return ex.Const(False, BOOL)
        if len(keep) == 1:
            return keep[0]
        return ex.BoolOpExpr(expr.op, tuple(keep))
    return expr
