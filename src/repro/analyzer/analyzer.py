"""Semantic analysis: raw AST -> query trees.

Responsibilities (mirroring PostgreSQL's parser/analyzer + rewriter stages,
which run *before* the Perm provenance rewriter, paper Fig. 5):

* name resolution against the catalog and enclosing scopes,
* view unfolding into subquery range table entries,
* type inference and implicit numeric coercion,
* aggregate placement validation (GROUP BY semantics),
* normalization (BETWEEN, IN-lists, simple CASE -> searched CASE),
* building set-operation trees with union-compatibility checks,
* detection of correlated sublinks (executable, but rejected later by the
  provenance rewriter exactly as in the paper).
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.catalog import Catalog
from repro.datatypes import NUMERIC_TYPES, SQLType, coerce_types, parse_date, type_from_name
from repro.errors import AnalyzeError, TypeMismatchError, UnsupportedFeatureError
from repro.sql import ast
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    FromExpr,
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RangeTableEntry,
    RangeTableRef,
    RTEKind,
    SetOpNode,
    SetOpRangeRef,
    SetOpTreeNode,
    SortClause,
    TargetEntry,
    level_exprs,
    setop_leaf_indexes,
)

AGGREGATE_NAMES = frozenset(
    {"sum", "count", "avg", "min", "max", "perm_poly_sum"}
)

# scalar function -> (min args, max args, result type or None for "same as arg")
_SCALAR_FUNCTIONS: dict[str, tuple[int, int, Optional[SQLType]]] = {
    "upper": (1, 1, SQLType.TEXT),
    "lower": (1, 1, SQLType.TEXT),
    "length": (1, 1, SQLType.INTEGER),
    "abs": (1, 1, None),
    "round": (1, 2, SQLType.FLOAT),
    "floor": (1, 1, SQLType.FLOAT),
    "ceil": (1, 1, SQLType.FLOAT),
    "sqrt": (1, 1, SQLType.FLOAT),
    "power": (2, 2, SQLType.FLOAT),
    "mod": (2, 2, SQLType.INTEGER),
    "coalesce": (1, 99, None),
    "concat": (1, 99, SQLType.TEXT),
    "substr": (2, 3, SQLType.TEXT),
    "strpos": (2, 2, SQLType.INTEGER),
    "trim": (1, 1, SQLType.TEXT),
    "nullif": (2, 2, None),
    "greatest": (1, 99, None),
    "least": (1, 99, None),
    # Provenance-polynomial primitives: normally injected by the polynomial
    # rewrite strategy, but accepted in source SQL too so deparsed rewritten
    # queries re-parse and re-analyze (parse→deparse→parse round-tripping).
    "perm_poly_token": (1, 99, SQLType.POLYNOMIAL),
    "perm_poly_mul": (1, 99, SQLType.POLYNOMIAL),
    "perm_poly_one": (0, 0, SQLType.POLYNOMIAL),
    "perm_poly_monus": (2, 2, SQLType.POLYNOMIAL),
}

_EXTRACT_FIELDS = frozenset({"year", "month", "day"})


class _Scope:
    """One level of name visibility: the query being built at that level."""

    __slots__ = ("query",)

    def __init__(self, query: Query) -> None:
        self.query = query


def query_references_outer(query: Query) -> bool:
    """True if ``query`` contains a Var referencing an enclosing query.

    Checks transitively: a sublink nested inside ``query`` that reaches past
    ``query`` makes ``query`` correlated too.
    """
    return _has_free_vars(query, depth=0)


def _has_free_vars(query: Query, depth: int) -> bool:
    for expr in level_exprs(query):
        for node in ex.walk(expr):
            if isinstance(node, ex.Var) and node.levelsup > depth:
                return True
            if isinstance(node, ex.SubLink) and _has_free_vars(node.subquery, depth + 1):
                return True
    # Set-operation leaves are analyzed against the same outer scopes as
    # the set-operation node itself (no extra level); FROM subqueries add
    # a scope level.
    leaves = (
        set(setop_leaf_indexes(query.set_operations))
        if query.set_operations is not None
        else set()
    )
    for rtindex, rte in enumerate(query.range_table):
        if rte.kind is RTEKind.SUBQUERY and rte.subquery is not None:
            child_depth = depth if rtindex in leaves else depth + 1
            if _has_free_vars(rte.subquery, child_depth):
                return True
    return False


class Analyzer:
    """Analyzes SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- public entry points ----------------------------------------------------

    def analyze(self, stmt: ast.SelectNode) -> Query:
        """Analyze a (possibly set-operation) select into a query tree."""
        return self._analyze_select(stmt, outer_scopes=[])

    # -- select dispatch ----------------------------------------------------------

    def _analyze_select(self, stmt: ast.SelectNode, outer_scopes: list[_Scope]) -> Query:
        if isinstance(stmt, ast.SetOpSelect):
            return self._analyze_setop(stmt, outer_scopes)
        return self._analyze_plain_select(stmt, outer_scopes)

    # -- plain SELECT ---------------------------------------------------------------

    def _analyze_plain_select(self, stmt: ast.SelectStmt, outer_scopes: list[_Scope]) -> Query:
        query = Query()
        query.provenance = stmt.provenance
        query.provenance_type = stmt.provenance_type
        query.distinct = stmt.distinct
        query.into = stmt.into
        scope = _Scope(query)
        scopes = [scope] + outer_scopes

        # FROM clause: build range table + join tree.
        items: list[JoinTreeNode] = []
        for from_item in stmt.from_clause:
            items.append(self._analyze_from_item(from_item, query, scopes))
        query.jointree.items = items

        # WHERE
        if stmt.where is not None:
            where_expr = self._analyze_expr(stmt.where, scopes, allow_aggs=False)
            self._require_boolean(where_expr, "WHERE")
            query.jointree.quals = where_expr

        # Select list (star expansion happens here).
        for target in stmt.target_list:
            query.target_list.extend(self._analyze_res_target(target, query, scopes))

        # GROUP BY
        for group_item in stmt.group_by:
            query.group_clause.append(self._analyze_group_item(group_item, query, scopes))

        # HAVING
        if stmt.having is not None:
            having_expr = self._analyze_expr(stmt.having, scopes, allow_aggs=True)
            self._require_boolean(having_expr, "HAVING")
            query.having = having_expr

        # HAVING makes the query an aggregation even without GROUP BY or
        # aggregate calls (SQL treats it as a grand aggregate).
        query.has_aggs = (
            any(ex.contains_aggref(t.expr) for t in query.target_list)
            or query.having is not None
        )

        if query.has_aggs or query.group_clause:
            self._validate_grouping(query)

        # ORDER BY / LIMIT
        self._analyze_sort_limit(stmt, query, scopes)
        return query

    def _analyze_sort_limit(
        self, stmt: ast.SelectNode, query: Query, scopes: list[_Scope]
    ) -> None:
        for sort in stmt.order_by:
            index = self._resolve_sort_target(sort.expr, query, scopes)
            query.sort_clause.append(
                SortClause(
                    tlist_index=index,
                    descending=sort.descending,
                    nulls_first=sort.nulls_first,
                )
            )
        if stmt.limit is not None:
            query.limit_count = self._analyze_constant(stmt.limit, "LIMIT")
        if stmt.offset is not None:
            query.limit_offset = self._analyze_constant(stmt.offset, "OFFSET")

    def _analyze_constant(self, expr: ast.Expr, clause: str) -> ex.Expr:
        analyzed = self._analyze_expr(expr, scopes=[], allow_aggs=False)
        if not isinstance(analyzed, ex.Const) or analyzed.type not in NUMERIC_TYPES:
            raise AnalyzeError(f"{clause} must be a numeric constant")
        return analyzed

    def _resolve_sort_target(
        self, expr: ast.Expr, query: Query, scopes: list[_Scope]
    ) -> int:
        """Resolve an ORDER BY item to a target-list index.

        Resolution order (following SQL): output column name, ordinal
        position, then a full expression (added as a resjunk entry if new).
        """
        visible = query.visible_targets
        if isinstance(expr, ast.ColumnRef) and expr.relation is None:
            for i, target in enumerate(query.target_list):
                if not target.resjunk and target.name.lower() == expr.name.lower():
                    return i
        if isinstance(expr, ast.NumberLit) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(visible):
                raise AnalyzeError(f"ORDER BY position {position} is out of range")
            # map visible ordinal to absolute target index
            count = 0
            for i, target in enumerate(query.target_list):
                if target.resjunk:
                    continue
                count += 1
                if count == position:
                    return i
            raise AnalyzeError("ORDER BY ordinal resolution failed")  # pragma: no cover
        if query.set_operations is not None:
            raise AnalyzeError(
                "ORDER BY on a set operation may only use output column "
                "names or ordinals"
            )
        analyzed = self._analyze_expr(
            expr, scopes, allow_aggs=query.has_aggs or bool(query.group_clause)
        )
        for i, target in enumerate(query.target_list):
            if target.expr == analyzed:
                return i
        if query.has_aggs or query.group_clause:
            self._check_grouped_expr(analyzed, query.group_clause, context="ORDER BY")
        query.target_list.append(TargetEntry(expr=analyzed, name="?sort?", resjunk=True))
        return len(query.target_list) - 1

    # -- FROM items ------------------------------------------------------------------

    def _analyze_from_item(
        self, item: ast.FromItem, query: Query, scopes: list[_Scope]
    ) -> JoinTreeNode:
        if isinstance(item, ast.RangeVar):
            rtindex = self._add_relation_rte(item, query)
            return RangeTableRef(rtindex)
        if isinstance(item, ast.RangeSubselect):
            rtindex = self._add_subselect_rte(item, query)
            return RangeTableRef(rtindex)
        if isinstance(item, ast.JoinExpr):
            return self._analyze_join(item, query, scopes)
        raise AnalyzeError(f"unsupported FROM item {item!r}")

    def _add_relation_rte(self, item: ast.RangeVar, query: Query) -> int:
        name = item.name
        alias = (item.alias or name).lower()
        self._check_alias_unused(query, alias)
        if self.catalog.has_table(name):
            table = self.catalog.table(name)
            columns = list(table.schema.column_names)
            types = list(table.schema.column_types)
            if item.column_aliases:
                columns = self._apply_column_aliases(columns, item.column_aliases, alias)
            rte = RangeTableEntry(
                kind=RTEKind.RELATION,
                alias=alias,
                column_names=columns,
                column_types=types,
                relation_name=table.name.lower(),
                schema=table.schema,
                provenance_attrs=item.provenance_attrs,
                base_relation=item.base_relation,
            )
            return query.add_rte(rte)
        if self.catalog.has_view(name):
            view = self.catalog.view(name)
            subquery = self._analyze_select(view.statement, outer_scopes=[])
            provenance_attrs = item.provenance_attrs
            if provenance_attrs is None and view.provenance_attributes:
                provenance_attrs = tuple(view.provenance_attributes)
            subquery, provenance_attrs = self._rewrite_if_marked(
                subquery, provenance_attrs
            )
            columns = subquery.output_columns()
            if item.column_aliases:
                columns = self._apply_column_aliases(columns, item.column_aliases, alias)
            rte = RangeTableEntry(
                kind=RTEKind.SUBQUERY,
                alias=alias,
                column_names=columns,
                column_types=list(subquery.output_types()),
                subquery=subquery,
                provenance_attrs=provenance_attrs,
                base_relation=item.base_relation,
            )
            return query.add_rte(rte)
        raise AnalyzeError(f"relation {name!r} does not exist")

    def _add_subselect_rte(self, item: ast.RangeSubselect, query: Query) -> int:
        alias = item.alias.lower()
        self._check_alias_unused(query, alias)
        # FROM subqueries are not correlated (no LATERAL): analyze without
        # outer scopes.
        subquery = self._analyze_select(item.subquery, outer_scopes=[])
        provenance_attrs = item.provenance_attrs
        subquery, provenance_attrs = self._rewrite_if_marked(subquery, provenance_attrs)
        columns = subquery.output_columns()
        if item.column_aliases:
            columns = self._apply_column_aliases(columns, item.column_aliases, alias)
        rte = RangeTableEntry(
            kind=RTEKind.SUBQUERY,
            alias=alias,
            column_names=columns,
            column_types=list(subquery.output_types()),
            subquery=subquery,
            provenance_attrs=provenance_attrs,
            base_relation=item.base_relation,
        )
        return query.add_rte(rte)

    @staticmethod
    def _rewrite_if_marked(
        subquery: Query, provenance_attrs: Optional[tuple[str, ...]]
    ) -> tuple[Query, Optional[tuple[str, ...]]]:
        """Eagerly rewrite a ``SELECT PROVENANCE`` subquery.

        The paper (section IV-B) notes that the analyzer needed small
        changes so references to provenance attributes of marked
        subqueries resolve; rewriting the marked node here exposes its
        provenance result schema to the enclosing query.  The produced
        provenance attributes are recorded on the range table entry, so an
        enclosing ``SELECT PROVENANCE`` treats the node as already
        rewritten (incremental computation, section IV-A.3).
        """
        if not subquery.provenance:
            return subquery, provenance_attrs
        from repro.core.rewriter import rewrite_marked_node

        rewritten, attrs = rewrite_marked_node(subquery)
        if provenance_attrs is None:
            provenance_attrs = attrs
        return rewritten, provenance_attrs

    @staticmethod
    def _apply_column_aliases(
        columns: list[str], aliases: tuple[str, ...], alias: str
    ) -> list[str]:
        if len(aliases) > len(columns):
            raise AnalyzeError(
                f"alias list for {alias!r} has {len(aliases)} names, "
                f"relation has only {len(columns)} columns"
            )
        renamed = list(columns)
        for i, new_name in enumerate(aliases):
            renamed[i] = new_name.lower()
        return renamed

    @staticmethod
    def _check_alias_unused(query: Query, alias: str) -> None:
        if any(rte.alias == alias for rte in query.range_table):
            raise AnalyzeError(f"table name {alias!r} specified more than once")

    def _analyze_join(self, item: ast.JoinExpr, query: Query, scopes: list[_Scope]) -> JoinTreeExpr:
        left = self._analyze_from_item(item.left, query, scopes)
        right = self._analyze_from_item(item.right, query, scopes)
        condition: Optional[ex.Expr] = None
        if item.natural or item.using:
            condition = self._build_using_condition(item, left, right, query)
        elif item.condition is not None:
            condition = self._analyze_expr(item.condition, scopes, allow_aggs=False)
            self._require_boolean(condition, "JOIN/ON")
        elif item.join_type != "cross":
            raise AnalyzeError("JOIN requires a condition")
        join_type = "inner" if item.join_type == "cross" else item.join_type
        if item.join_type == "cross":
            condition = ex.Const(True, SQLType.BOOLEAN)
        return JoinTreeExpr(join_type=join_type, left=left, right=right, quals=condition)

    def _build_using_condition(
        self,
        item: ast.JoinExpr,
        left: JoinTreeNode,
        right: JoinTreeNode,
        query: Query,
    ) -> ex.Expr:
        from repro.analyzer.query_tree import jointree_rtindexes

        left_indexes = jointree_rtindexes(left)
        right_indexes = jointree_rtindexes(right)
        if item.natural:
            left_cols = {
                c for i in left_indexes for c in query.range_table[i].column_names
            }
            names = [
                c
                for i in right_indexes
                for c in query.range_table[i].column_names
                if c in left_cols
            ]
            if not names:
                raise AnalyzeError("NATURAL JOIN has no common columns")
        else:
            names = list(item.using)
        conjuncts: list[ex.Expr] = []
        for name in names:
            left_var = self._find_column_in_rtes(query, left_indexes, name)
            right_var = self._find_column_in_rtes(query, right_indexes, name)
            conjuncts.append(
                ex.OpExpr("=", (left_var, right_var), SQLType.BOOLEAN)
            )
        if len(conjuncts) == 1:
            return conjuncts[0]
        return ex.BoolOpExpr("and", tuple(conjuncts))

    def _find_column_in_rtes(self, query: Query, rtindexes: list[int], name: str) -> ex.Var:
        low = name.lower()
        matches = []
        for rtindex in rtindexes:
            rte = query.range_table[rtindex]
            for attno, column in enumerate(rte.column_names):
                if column.lower() == low:
                    matches.append((rtindex, attno, rte.column_types[attno], column))
        if not matches:
            raise AnalyzeError(f"column {name!r} does not exist")
        if len(matches) > 1:
            raise AnalyzeError(f"common column name {name!r} appears more than once")
        rtindex, attno, col_type, column = matches[0]
        return ex.Var(varno=rtindex, varattno=attno, type=col_type, name=column)

    # -- set operations ------------------------------------------------------------------

    def _analyze_setop(self, stmt: ast.SetOpSelect, outer_scopes: list[_Scope]) -> Query:
        query = Query()
        query.provenance = stmt.provenance
        query.provenance_type = stmt.provenance_type
        query.into = stmt.into
        tree = self._build_setop_tree(stmt, query, outer_scopes, is_root=True)
        query.set_operations = tree

        first_leaf = self._first_leaf(tree)
        leaf_rte = query.range_table[first_leaf.rtindex]
        for attno, (column, col_type) in enumerate(
            zip(leaf_rte.column_names, leaf_rte.column_types)
        ):
            var = ex.Var(varno=first_leaf.rtindex, varattno=attno, type=col_type, name=column)
            query.target_list.append(TargetEntry(expr=var, name=column))
        self._analyze_sort_limit(stmt, query, scopes=[_Scope(query)])
        return query

    def _build_setop_tree(
        self,
        node: ast.SelectNode,
        query: Query,
        outer_scopes: list[_Scope],
        is_root: bool = False,
    ) -> SetOpTreeNode:
        if isinstance(node, ast.SetOpSelect):
            # A *nested* set operation with its own ORDER BY/LIMIT must stay
            # a separate subquery leaf to preserve semantics; the root's
            # tail is handled by _analyze_setop itself.
            has_tail = bool(node.order_by) or node.limit is not None or node.offset is not None
            if has_tail and not is_root:
                return self._add_setop_leaf(node, query, outer_scopes)
            left = self._build_setop_tree(node.left, query, outer_scopes)
            right = self._build_setop_tree(node.right, query, outer_scopes)
            self._check_union_compat(query, left, right, node.op)
            return SetOpNode(op=node.op, all=node.all, left=left, right=right)
        return self._add_setop_leaf(node, query, outer_scopes)

    def _add_setop_leaf(
        self, node: ast.SelectNode, query: Query, outer_scopes: list[_Scope]
    ) -> SetOpRangeRef:
        subquery = self._analyze_select(node, outer_scopes)
        provenance_attrs = None
        if not query.provenance:
            # An operand marked on its own is rewritten on its own, like a
            # marked FROM subquery (a marked set operation rewrites all of
            # its operands itself).
            subquery, provenance_attrs = self._rewrite_if_marked(subquery, None)
        rte = RangeTableEntry(
            kind=RTEKind.SUBQUERY,
            alias=f"*setop*{len(query.range_table)}",
            column_names=list(subquery.output_columns()),
            column_types=list(subquery.output_types()),
            subquery=subquery,
            provenance_attrs=provenance_attrs,
        )
        return SetOpRangeRef(query.add_rte(rte))

    def _first_leaf(self, node: SetOpTreeNode) -> SetOpRangeRef:
        while isinstance(node, SetOpNode):
            node = node.left
        return node

    def _check_union_compat(
        self, query: Query, left: SetOpTreeNode, right: SetOpTreeNode, op: str
    ) -> None:
        left_types = self._setop_types(query, left)
        right_types = self._setop_types(query, right)
        if len(left_types) != len(right_types):
            for rtindex in setop_leaf_indexes(left) + setop_leaf_indexes(right):
                rte = query.range_table[rtindex]
                if rte.provenance_attrs is not None:
                    raise AnalyzeError(
                        f"operand {rtindex + 1} of the {op.upper()} is marked "
                        f"SELECT PROVENANCE and was rewritten to {rte.width()} "
                        "columns, which no longer matches the other operand; "
                        "mark the first select clause to compute the "
                        "provenance of the whole set operation"
                    )
            raise AnalyzeError(
                f"each {op.upper()} query must have the same number of columns"
            )
        for i, (lt, rt) in enumerate(zip(left_types, right_types)):
            try:
                coerce_types(lt, rt)
            except ValueError:
                raise TypeMismatchError(
                    f"{op.upper()} column {i + 1} has incompatible types "
                    f"{lt.value} and {rt.value}"
                ) from None

    def _setop_types(self, query: Query, node: SetOpTreeNode) -> list[SQLType]:
        if isinstance(node, SetOpRangeRef):
            return list(query.range_table[node.rtindex].column_types)
        return self._setop_types(query, node.left)

    # -- select list -------------------------------------------------------------------------

    def _analyze_res_target(
        self, target: ast.ResTarget, query: Query, scopes: list[_Scope]
    ) -> list[TargetEntry]:
        if isinstance(target.expr, ast.Star):
            return self._expand_star(target.expr, query)
        expr = self._analyze_expr(target.expr, scopes, allow_aggs=True)
        name = target.name or self._infer_target_name(target.expr)
        return [TargetEntry(expr=expr, name=name)]

    def _expand_star(self, star: ast.Star, query: Query) -> list[TargetEntry]:
        entries: list[TargetEntry] = []
        from repro.analyzer.query_tree import jointree_rtindexes

        visible: list[int] = []
        for item in query.jointree.items:
            visible.extend(jointree_rtindexes(item))
        if star.relation is not None:
            low = star.relation.lower()
            visible = [
                i for i in visible if query.range_table[i].alias == low
            ]
            if not visible:
                raise AnalyzeError(f"relation {star.relation!r} not found in FROM")
        if not visible:
            raise AnalyzeError("SELECT * with no FROM clause")
        for rtindex in visible:
            rte = query.range_table[rtindex]
            for attno, (column, col_type) in enumerate(
                zip(rte.column_names, rte.column_types)
            ):
                var = ex.Var(varno=rtindex, varattno=attno, type=col_type, name=column)
                entries.append(TargetEntry(expr=var, name=column))
        return entries

    @staticmethod
    def _infer_target_name(expr: ast.Expr) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FuncCall):
            return expr.name
        if isinstance(expr, ast.ExtractExpr):
            return "extract"
        if isinstance(expr, ast.SubstringExpr):
            return "substr"
        if isinstance(expr, ast.CastExpr):
            return expr.type_name.split("(")[0].strip().lower() or "cast"
        if isinstance(expr, ast.CaseExpr):
            return "case"
        return "?column?"

    # -- GROUP BY --------------------------------------------------------------------------------

    def _analyze_group_item(
        self, item: ast.Expr, query: Query, scopes: list[_Scope]
    ) -> ex.Expr:
        visible = query.visible_targets
        if isinstance(item, ast.NumberLit) and isinstance(item.value, int):
            position = item.value
            if not 1 <= position <= len(visible):
                raise AnalyzeError(f"GROUP BY position {position} is out of range")
            expr = visible[position - 1].expr
            if ex.contains_aggref(expr):
                raise AnalyzeError("aggregate functions are not allowed in GROUP BY")
            return expr
        if isinstance(item, ast.ColumnRef) and item.relation is None:
            # Prefer an input column; fall back to an output alias
            # (PostgreSQL resolution order for GROUP BY).
            try:
                return self._analyze_expr(item, scopes, allow_aggs=False)
            except AnalyzeError:
                for target in visible:
                    if target.name.lower() == item.name.lower():
                        if ex.contains_aggref(target.expr):
                            raise AnalyzeError(
                                "aggregate functions are not allowed in GROUP BY"
                            )
                        return target.expr
                raise
        expr = self._analyze_expr(item, scopes, allow_aggs=False)
        return expr

    def _validate_grouping(self, query: Query) -> None:
        for target in query.target_list:
            self._check_grouped_expr(target.expr, query.group_clause, context="SELECT")
        if query.having is not None:
            self._check_grouped_expr(query.having, query.group_clause, context="HAVING")

    def _check_grouped_expr(
        self, expr: ex.Expr, group_exprs: list[ex.Expr], context: str
    ) -> None:
        """Check that ``expr`` only uses grouped columns outside aggregates."""
        if any(expr == g for g in group_exprs):
            return
        if isinstance(expr, ex.Aggref):
            return  # aggregate arguments may reference any input column
        if isinstance(expr, ex.Const):
            return
        if isinstance(expr, ex.SubLink):
            # Uncorrelated sublinks are independent of the current row.
            if expr.testexpr is not None:
                self._check_grouped_expr(expr.testexpr, group_exprs, context)
            return
        if isinstance(expr, ex.Var):
            raise AnalyzeError(
                f'column "{expr.name}" must appear in the GROUP BY clause '
                f"or be used in an aggregate function ({context})"
            )
        for child in expr.children():
            self._check_grouped_expr(child, group_exprs, context)

    # -- expressions -------------------------------------------------------------------------------

    def _analyze_expr(
        self, expr: ast.Expr, scopes: list[_Scope], allow_aggs: bool
    ) -> ex.Expr:
        method = getattr(self, f"_analyze_{type(expr).__name__}", None)
        if method is None:
            raise UnsupportedFeatureError(f"unsupported expression {expr!r}")
        return method(expr, scopes, allow_aggs)

    # Each _analyze_<NodeType> takes (node, scopes, allow_aggs).

    def _analyze_NumberLit(self, node: ast.NumberLit, scopes, allow_aggs) -> ex.Expr:
        value = node.value
        sql_type = SQLType.INTEGER if isinstance(value, int) else SQLType.FLOAT
        return ex.Const(value, sql_type)

    def _analyze_StringLit(self, node: ast.StringLit, scopes, allow_aggs) -> ex.Expr:
        return ex.Const(node.value, SQLType.TEXT)

    def _analyze_BoolLit(self, node: ast.BoolLit, scopes, allow_aggs) -> ex.Expr:
        return ex.Const(node.value, SQLType.BOOLEAN)

    def _analyze_NullLit(self, node: ast.NullLit, scopes, allow_aggs) -> ex.Expr:
        return ex.Const(None, SQLType.NULL)

    def _analyze_DateLit(self, node: ast.DateLit, scopes, allow_aggs) -> ex.Expr:
        try:
            value = parse_date(node.text)
        except ValueError as exc:
            raise AnalyzeError(f"invalid date literal {node.text!r}: {exc}") from None
        return ex.Const(value, SQLType.DATE)

    def _analyze_IntervalLit(self, node: ast.IntervalLit, scopes, allow_aggs) -> ex.Expr:
        from repro.datatypes import Interval

        try:
            value = Interval.parse(node.quantity, node.unit)
        except ValueError as exc:
            raise AnalyzeError(str(exc)) from None
        return ex.Const(value, SQLType.INTERVAL)

    def _analyze_ColumnRef(self, node: ast.ColumnRef, scopes, allow_aggs) -> ex.Expr:
        return self._resolve_column(node, scopes)

    def _resolve_column(self, node: ast.ColumnRef, scopes: list[_Scope]) -> ex.Var:
        low = node.name.lower()
        rel = node.relation.lower() if node.relation else None
        for level, scope in enumerate(scopes):
            matches: list[ex.Var] = []
            for rtindex, rte in enumerate(scope.query.range_table):
                if rel is not None and rte.alias != rel:
                    continue
                for attno, column in enumerate(rte.column_names):
                    if column.lower() == low:
                        matches.append(
                            ex.Var(
                                varno=rtindex,
                                varattno=attno,
                                type=rte.column_types[attno],
                                name=column,
                                levelsup=level,
                            )
                        )
            if len(matches) > 1:
                raise AnalyzeError(f"column reference {node} is ambiguous")
            if matches:
                return matches[0]
        raise AnalyzeError(f"column {node} does not exist")

    def _analyze_BinaryOp(self, node: ast.BinaryOp, scopes, allow_aggs) -> ex.Expr:
        left = self._analyze_expr(node.left, scopes, allow_aggs)
        right = self._analyze_expr(node.right, scopes, allow_aggs)
        op = node.op
        if op in ("=", "<>", "<", "<=", ">", ">="):
            self._check_comparable(left.type, right.type, op)
            return ex.OpExpr(op, (left, right), SQLType.BOOLEAN)
        if op == "||":
            return ex.OpExpr(op, (left, right), SQLType.TEXT)
        # arithmetic
        result_type = self._arith_type(left.type, right.type, op)
        return ex.OpExpr(op, (left, right), result_type)

    def _arith_type(self, left: SQLType, right: SQLType, op: str) -> SQLType:
        if SQLType.DATE in (left, right):
            other = right if left == SQLType.DATE else left
            if op == "+" and other in (SQLType.INTERVAL, SQLType.INTEGER):
                return SQLType.DATE
            if op == "-" and other in (SQLType.INTERVAL, SQLType.INTEGER):
                return SQLType.DATE
            if op == "-" and left == SQLType.DATE and right == SQLType.DATE:
                return SQLType.INTEGER  # day difference
            raise TypeMismatchError(f"operator {op} not defined for dates here")
        if SQLType.INTERVAL in (left, right):
            if op in ("+", "-") and left == right:
                return SQLType.INTERVAL
            raise TypeMismatchError(f"operator {op} not defined for intervals here")
        try:
            combined = coerce_types(left, right)
        except ValueError as exc:
            raise TypeMismatchError(f"{exc} (operator {op})") from None
        if combined == SQLType.NULL:
            return SQLType.NULL
        if combined not in NUMERIC_TYPES:
            raise TypeMismatchError(
                f"operator {op} requires numeric arguments, got {combined.value}"
            )
        return combined

    def _check_comparable(self, left: SQLType, right: SQLType, op: str) -> None:
        try:
            coerce_types(left, right)
        except ValueError as exc:
            raise TypeMismatchError(f"{exc} (operator {op})") from None

    def _analyze_UnaryOp(self, node: ast.UnaryOp, scopes, allow_aggs) -> ex.Expr:
        operand = self._analyze_expr(node.operand, scopes, allow_aggs)
        if operand.type not in NUMERIC_TYPES and operand.type != SQLType.NULL:
            raise TypeMismatchError("unary minus requires a numeric argument")
        return ex.OpExpr("-", (operand,), operand.type)

    def _analyze_BoolOp(self, node: ast.BoolOp, scopes, allow_aggs) -> ex.Expr:
        args = tuple(self._analyze_expr(a, scopes, allow_aggs) for a in node.args)
        for arg in args:
            self._require_boolean(arg, node.op.upper())
        return ex.BoolOpExpr(node.op, args)

    def _analyze_FuncCall(self, node: ast.FuncCall, scopes, allow_aggs) -> ex.Expr:
        name = node.name.lower()
        if name in AGGREGATE_NAMES:
            return self._analyze_aggregate(node, scopes, allow_aggs)
        if name not in _SCALAR_FUNCTIONS:
            raise AnalyzeError(f"unknown function {node.name!r}")
        min_args, max_args, result_type = _SCALAR_FUNCTIONS[name]
        if node.star or node.distinct:
            raise AnalyzeError(f"{node.name} does not accept */DISTINCT")
        if not min_args <= len(node.args) <= max_args:
            raise AnalyzeError(
                f"function {node.name} expects between {min_args} and "
                f"{max_args} arguments, got {len(node.args)}"
            )
        args = tuple(self._analyze_expr(a, scopes, allow_aggs) for a in node.args)
        if result_type is None:
            result = args[0].type
            for arg in args[1:]:
                try:
                    result = coerce_types(result, arg.type)
                except ValueError as exc:
                    raise TypeMismatchError(f"{exc} (function {name})") from None
        else:
            result = result_type
        return ex.FuncExpr(name, args, result)

    def _analyze_aggregate(self, node: ast.FuncCall, scopes, allow_aggs) -> ex.Expr:
        name = node.name.lower()
        if not allow_aggs:
            raise AnalyzeError(f"aggregate function {name} is not allowed here")
        if node.star:
            if name != "count":
                raise AnalyzeError(f"{name}(*) is not defined")
            return ex.Aggref(aggname="count", arg=None, type=SQLType.INTEGER, star=True)
        if len(node.args) != 1:
            raise AnalyzeError(f"aggregate {name} takes exactly one argument")
        arg = self._analyze_expr(node.args[0], scopes, allow_aggs=False)
        if ex.contains_aggref(arg):
            raise AnalyzeError("aggregate calls cannot be nested")
        if name == "count":
            result = SQLType.INTEGER
        elif name == "perm_poly_sum":
            if arg.type not in (SQLType.POLYNOMIAL, SQLType.NULL):
                raise TypeMismatchError(
                    "perm_poly_sum requires a polynomial argument, got "
                    f"{arg.type.value}"
                )
            result = SQLType.POLYNOMIAL
        elif name == "avg":
            self._require_numeric(arg, name)
            result = SQLType.FLOAT
        elif name == "sum":
            self._require_numeric(arg, name)
            result = arg.type if arg.type in NUMERIC_TYPES else SQLType.FLOAT
        else:  # min / max
            result = arg.type
        return ex.Aggref(
            aggname=name, arg=arg, type=result, star=False, distinct=node.distinct
        )

    def _require_numeric(self, expr: ex.Expr, where: str) -> None:
        if expr.type not in NUMERIC_TYPES and expr.type != SQLType.NULL:
            raise TypeMismatchError(
                f"{where} requires a numeric argument, got {expr.type.value}"
            )

    def _require_boolean(self, expr: ex.Expr, where: str) -> None:
        if expr.type not in (SQLType.BOOLEAN, SQLType.NULL):
            raise TypeMismatchError(
                f"argument of {where} must be boolean, got {expr.type.value}"
            )

    def _analyze_CaseExpr(self, node: ast.CaseExpr, scopes, allow_aggs) -> ex.Expr:
        whens: list[tuple[ex.Expr, ex.Expr]] = []
        operand = (
            self._analyze_expr(node.operand, scopes, allow_aggs)
            if node.operand is not None
            else None
        )
        result_type: Optional[SQLType] = None
        for cond_ast, result_ast in node.whens:
            cond = self._analyze_expr(cond_ast, scopes, allow_aggs)
            if operand is not None:
                # simple CASE: normalize to operand = value
                self._check_comparable(operand.type, cond.type, "=")
                cond = ex.OpExpr("=", (operand, cond), SQLType.BOOLEAN)
            else:
                self._require_boolean(cond, "CASE/WHEN")
            result = self._analyze_expr(result_ast, scopes, allow_aggs)
            result_type = self._merge_result_type(result_type, result.type)
            whens.append((cond, result))
        default = None
        if node.default is not None:
            default = self._analyze_expr(node.default, scopes, allow_aggs)
            result_type = self._merge_result_type(result_type, default.type)
        return ex.CaseExpr(tuple(whens), default, result_type or SQLType.NULL)

    def _merge_result_type(self, current: Optional[SQLType], new: SQLType) -> SQLType:
        if current is None:
            return new
        try:
            return coerce_types(current, new)
        except ValueError as exc:
            raise TypeMismatchError(f"{exc} (CASE results)") from None

    def _analyze_BetweenExpr(self, node: ast.BetweenExpr, scopes, allow_aggs) -> ex.Expr:
        # Normalize: x BETWEEN a AND b  ->  x >= a AND x <= b
        expr = self._analyze_expr(node.expr, scopes, allow_aggs)
        low = self._analyze_expr(node.low, scopes, allow_aggs)
        high = self._analyze_expr(node.high, scopes, allow_aggs)
        self._check_comparable(expr.type, low.type, ">=")
        self._check_comparable(expr.type, high.type, "<=")
        result = ex.BoolOpExpr(
            "and",
            (
                ex.OpExpr(">=", (expr, low), SQLType.BOOLEAN),
                ex.OpExpr("<=", (expr, high), SQLType.BOOLEAN),
            ),
        )
        if node.negated:
            return ex.BoolOpExpr("not", (result,))
        return result

    def _analyze_InListExpr(self, node: ast.InListExpr, scopes, allow_aggs) -> ex.Expr:
        # Normalize to an OR chain (AND of <> when negated), preserving
        # three-valued logic exactly.
        expr = self._analyze_expr(node.expr, scopes, allow_aggs)
        comparisons: list[ex.Expr] = []
        for item_ast in node.items:
            item = self._analyze_expr(item_ast, scopes, allow_aggs)
            self._check_comparable(expr.type, item.type, "=")
            op = "<>" if node.negated else "="
            comparisons.append(ex.OpExpr(op, (expr, item), SQLType.BOOLEAN))
        if len(comparisons) == 1:
            return comparisons[0]
        return ex.BoolOpExpr("and" if node.negated else "or", tuple(comparisons))

    def _analyze_LikeExpr(self, node: ast.LikeExpr, scopes, allow_aggs) -> ex.Expr:
        arg = self._analyze_expr(node.expr, scopes, allow_aggs)
        pattern = self._analyze_expr(node.pattern, scopes, allow_aggs)
        if arg.type not in (SQLType.TEXT, SQLType.NULL):
            raise TypeMismatchError("LIKE requires text arguments")
        return ex.LikeTest(arg, pattern, node.negated)

    def _analyze_DistinctExpr(self, node: ast.DistinctExpr, scopes, allow_aggs) -> ex.Expr:
        left = self._analyze_expr(node.left, scopes, allow_aggs)
        right = self._analyze_expr(node.right, scopes, allow_aggs)
        self._check_comparable(left.type, right.type, "IS DISTINCT FROM")
        # negated == IS NOT DISTINCT FROM == null-safe equality (<=>).
        op = "<=>" if node.negated else "<!=>"
        return ex.OpExpr(op, (left, right), SQLType.BOOLEAN)

    def _analyze_IsNullExpr(self, node: ast.IsNullExpr, scopes, allow_aggs) -> ex.Expr:
        arg = self._analyze_expr(node.expr, scopes, allow_aggs)
        return ex.NullTest(arg, node.negated)

    def _analyze_ExtractExpr(self, node: ast.ExtractExpr, scopes, allow_aggs) -> ex.Expr:
        if node.fieldname not in _EXTRACT_FIELDS:
            raise AnalyzeError(f"EXTRACT field {node.fieldname!r} not supported")
        arg = self._analyze_expr(node.expr, scopes, allow_aggs)
        if arg.type not in (SQLType.DATE, SQLType.NULL):
            raise TypeMismatchError("EXTRACT requires a date argument")
        return ex.FuncExpr(f"extract_{node.fieldname}", (arg,), SQLType.INTEGER)

    def _analyze_SubstringExpr(self, node: ast.SubstringExpr, scopes, allow_aggs) -> ex.Expr:
        args = [
            self._analyze_expr(node.expr, scopes, allow_aggs),
            self._analyze_expr(node.start, scopes, allow_aggs),
        ]
        if node.length is not None:
            args.append(self._analyze_expr(node.length, scopes, allow_aggs))
        return ex.FuncExpr("substr", tuple(args), SQLType.TEXT)

    def _analyze_CastExpr(self, node: ast.CastExpr, scopes, allow_aggs) -> ex.Expr:
        arg = self._analyze_expr(node.expr, scopes, allow_aggs)
        try:
            target = type_from_name(node.type_name)
        except ValueError as exc:
            raise AnalyzeError(str(exc)) from None
        return ex.FuncExpr(f"cast_{target.value}", (arg,), target)

    def _analyze_SubLinkExpr(self, node: ast.SubLinkExpr, scopes, allow_aggs) -> ex.Expr:
        inner_query = self._analyze_select(node.subquery, outer_scopes=scopes)
        inner_query, _ = self._rewrite_if_marked(inner_query, None)
        # Correlation is a structural property: does the subquery contain a
        # free Var referencing an enclosing query?  (The engine executes
        # correlated sublinks; the Perm rewriter rejects them, as in the
        # paper.)
        correlated = query_references_outer(inner_query)
        testexpr: Optional[ex.Expr] = None
        if node.kind in ("any", "all"):
            testexpr = self._analyze_expr(node.testexpr, scopes, allow_aggs)
            if len(inner_query.visible_targets) != 1:
                raise AnalyzeError("subquery must return exactly one column")
            inner_type = inner_query.visible_targets[0].expr.type
            self._check_comparable(testexpr.type, inner_type, node.operator or "=")
            result_type = SQLType.BOOLEAN
        elif node.kind == "exists":
            result_type = SQLType.BOOLEAN
        else:  # scalar
            if len(inner_query.visible_targets) != 1:
                raise AnalyzeError("scalar subquery must return exactly one column")
            result_type = inner_query.visible_targets[0].expr.type
        return ex.SubLink(
            kind=node.kind,
            subquery=inner_query,
            testexpr=testexpr,
            operator=node.operator,
            type=result_type,
            correlated=correlated,
        )

    def _analyze_Star(self, node: ast.Star, scopes, allow_aggs) -> ex.Expr:
        raise AnalyzeError("* is only allowed in the select list")
