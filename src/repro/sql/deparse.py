"""Deparser: analyzed query trees back to SQL text, per target dialect.

The paper's key selling point is that the rewritten query ``q+`` *is an
ordinary SQL query*.  This module makes that tangible twice over:

* ``PermDatabase.rewritten_sql(sql)`` returns the SQL text of the
  provenance-rewritten query tree (PostgreSQL dialect), which the repro
  parser re-parses — parse → deparse → parse round-trips, including the
  null-safe ``IS NOT DISTINCT FROM`` joins the rewrites emit.
* The :class:`SqliteDialect` renders the same trees as SQLite SQL, which
  the SQLite execution backend (``repro.backends``) hands to an embedded
  ``sqlite3`` database — the paper's actual deployment model, where the
  host DBMS executes ``q+`` like any other query.

A :class:`Dialect` collects every syntax decision that differs between
targets (null-safe comparison spelling, date/interval literals and
arithmetic, EXTRACT/CAST/SUBSTRING forms, set-operation operand
parenthesization, quantified sublinks, outer joins).  Constructs a
dialect cannot translate *faithfully* raise
:class:`~repro.errors.BackendUnsupportedError` naming the feature —
dialects never guess and never silently change semantics.
"""

from __future__ import annotations

import datetime
import sqlite3

from repro.datatypes import Interval, SQLType, date_add
from repro.errors import BackendUnsupportedError, PermError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RangeTableEntry,
    RangeTableRef,
    RTEKind,
    SetOpNode,
    SetOpRangeRef,
    SetOpTreeNode,
)

_JOIN_SQL = {
    "inner": "JOIN",
    "left": "LEFT JOIN",
    "right": "RIGHT JOIN",
    "full": "FULL JOIN",
}

_IDENT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$"
)


def _identifier(name: str) -> str:
    """Quote names that are not plain identifiers or collide with keywords
    (e.g. ``?column?`` or ``extract``)."""
    from repro.sql.tokens import KEYWORDS

    if (
        name
        and name[0].isalpha()
        and all(ch in _IDENT_OK for ch in name)
        and name.upper() not in KEYWORDS
    ):
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'

_SETOP_SQL = {"union": "UNION", "intersect": "INTERSECT", "except": "EXCEPT"}

#: Enclosing-query stack for correlated references: outermost first, the
#: immediate parent last.  ``Var.levelsup == k`` addresses ``outers[-k]``.
_Outers = tuple[Query, ...]


# ---------------------------------------------------------------------------
# Dialects
# ---------------------------------------------------------------------------


class Dialect:
    """Deparse syntax hooks, with PostgreSQL-flavoured defaults."""

    name = "postgres"
    #: Render ``INTO target`` clauses (display dialects only; execution
    #: backends materialize results themselves).
    emit_into = True
    #: Execution dialects must never guess at a correlated reference whose
    #: enclosing scope is unavailable; display dialects may fall back to
    #: the source column name.
    strict_outer_refs = False

    # -- identifiers & literals -------------------------------------------

    def identifier(self, name: str) -> str:
        return _identifier(name)

    def const(self, value) -> str:
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(value, datetime.date):
            return self.date_literal(value)
        if isinstance(value, Interval):
            return self.interval_literal(value)
        return repr(value)

    def date_literal(self, value: datetime.date) -> str:
        return f"DATE '{value.isoformat()}'"

    def interval_literal(self, value: Interval) -> str:
        if value.months and value.months % 12 == 0 and not value.days:
            return f"INTERVAL '{value.months // 12}' YEAR"
        if value.months and not value.days:
            return f"INTERVAL '{value.months}' MONTH"
        return f"INTERVAL '{value.days}' DAY"

    # -- operators ---------------------------------------------------------

    def null_safe_comparison(self, left: str, right: str, negated: bool) -> str:
        keyword = "IS DISTINCT FROM" if negated else "IS NOT DISTINCT FROM"
        return f"({left} {keyword} {right})"

    def binary_op(self, expr: ex.OpExpr, render) -> str:
        """Render a binary OpExpr; ``render(sub_expr) -> str`` recurses.

        Operands are rendered *by the dialect* (lazily): date-arithmetic
        translations may fold or re-spell an operand (e.g. an interval
        literal) that has no standalone rendering in the dialect.
        """
        left, right = render(expr.args[0]), render(expr.args[1])
        if expr.op == "<=>":
            return self.null_safe_comparison(left, right, negated=False)
        if expr.op == "<!=>":
            return self.null_safe_comparison(left, right, negated=True)
        return f"({left} {expr.op} {right})"

    def like(self, arg: str, pattern: str, negated: bool) -> str:
        negation = "NOT " if negated else ""
        return f"{arg} {negation}LIKE {pattern}"

    # -- functions ---------------------------------------------------------

    def extract(self, field: str, arg: str) -> str:
        return f"EXTRACT({field} FROM {arg})"

    def cast(self, target: str, arg: str) -> str:
        return f"CAST({arg} AS {target})"

    def substring(self, args: list[str]) -> str:
        if len(args) == 3:
            return f"SUBSTRING({args[0]} FROM {args[1]} FOR {args[2]})"
        return f"SUBSTRING({args[0]} FROM {args[1]})"

    def function(self, expr: ex.FuncExpr, query: Query, render) -> str:
        if expr.name in _EXTRACT_FUNCS:
            return self.extract(_EXTRACT_FUNCS[expr.name], render(expr.args[0]))
        if expr.name.startswith("cast_"):
            return self.cast(expr.name.removeprefix("cast_"), render(expr.args[0]))
        if expr.name == "substr":
            return self.substring([render(a) for a in expr.args])
        args = ", ".join(render(a) for a in expr.args)
        return f"{expr.name}({args})"

    # -- structure ---------------------------------------------------------

    def join_keyword(self, join_type: str) -> str:
        return _JOIN_SQL[join_type]

    def setop_keyword(self, op: str, all_flag: bool) -> str:
        return _SETOP_SQL[op] + (" ALL" if all_flag else "")

    def setop_operand(self, inner_sql: str, indent: int) -> str:
        pad = " " * indent
        return f"{pad}(\n{inner_sql}\n{pad})"

    def sort_suffix(self, descending: bool, nulls_first) -> str:
        suffix = " DESC" if descending else ""
        if nulls_first is True:
            suffix += " NULLS FIRST"
        elif nulls_first is False:
            suffix += " NULLS LAST"
        return suffix

    def limit_offset_clauses(
        self, limit: str | None, offset: str | None
    ) -> list[str]:
        parts = []
        if limit is not None:
            parts.append(f"LIMIT {limit}")
        if offset is not None:
            parts.append(f"OFFSET {offset}")
        return parts

    # -- sublinks ----------------------------------------------------------

    def quantified_sublink(
        self, expr: ex.SubLink, test: str, inner: str
    ) -> str:
        quantifier = "ANY" if expr.kind == ex.SubLinkKind.ANY else "ALL"
        return f"{test} {expr.operator} {quantifier} (\n{inner}\n)"

    # -- correlated references ---------------------------------------------

    def outer_var(self, var: ex.Var, query: Query, outers: _Outers) -> str:
        """Render a Var with ``levelsup > 0``.

        With the enclosing-query stack available the reference is
        alias-qualified; an alias shadowed by a nearer scope cannot be
        expressed in SQL and is rejected (never silently mis-bound).
        """
        if var.levelsup > len(outers):
            if self.strict_outer_refs:
                raise BackendUnsupportedError(
                    "correlated reference without its enclosing scope",
                    self.name,
                )
            # No stack (expression deparsed in isolation): display name.
            return var.name or f"outer${var.varno}.{var.varattno}"
        target = outers[-var.levelsup]
        rte = target.range_table[var.varno]
        nearer_scopes = (query,) + tuple(outers[len(outers) - var.levelsup + 1 :])
        for scope in nearer_scopes:
            if any(inner.alias == rte.alias for inner in scope.range_table):
                raise BackendUnsupportedError(
                    f"correlated reference to shadowed alias {rte.alias!r}",
                    self.name,
                )
        return f"{self.identifier(rte.alias)}.{self.identifier(rte.column_names[var.varattno])}"


class PostgresDialect(Dialect):
    """The repro's native dialect (matches the engine's semantics 1:1)."""


class SqliteDialect(Dialect):
    """SQLite translation for the SQLite execution backend.

    Differences handled here (see ``docs/backends.md`` for the catalogue):

    * ``IS NOT DISTINCT FROM`` → SQLite's null-safe ``IS`` operator;
    * date literals become ISO-8601 text (dates are stored as TEXT, which
      preserves comparison order);
    * date ± interval is constant-folded in Python when both operands are
      constants; otherwise day-granularity arithmetic maps to
      ``date(x, '±N days')`` and month/year arithmetic on non-constant
      dates is rejected (SQLite rolls over month ends, the engine clamps);
    * ``EXTRACT`` → ``strftime``, ``SUBSTRING`` → ``substr``;
    * functions whose SQLite builtin differs (or does not exist) call
      ``perm_*`` user functions the backend registers;
    * set-operation operands are wrapped as ``SELECT * FROM (...)``
      because SQLite rejects parenthesized compound-select operands, and
      ``INTERSECT ALL`` / ``EXCEPT ALL`` do not exist in SQLite;
    * quantified comparisons exist only as ``IN`` / ``NOT IN``;
    * ``FULL``/``RIGHT JOIN`` require SQLite ≥ 3.39;
    * ``LIKE`` gets an explicit ``ESCAPE '\\'`` (matching the engine);
    * the engine's PostgreSQL null-ordering defaults are made explicit
      (SQLite's implicit NULL placement is the opposite).
    """

    name = "sqlite"
    emit_into = False
    strict_outer_refs = True

    #: Engine scalar functions re-exposed as user functions by the backend
    #: because the SQLite builtin differs (rounding mode, NULL handling,
    #: argument conventions) or is an optional compile-time extension.
    UDF_RENAMES = frozenset(
        {
            "floor",
            "ceil",
            "sqrt",
            "power",
            "mod",
            "strpos",
            "greatest",
            "least",
            "round",
            "concat",
            # All casts run the engine's conversion rules: SQLite's native
            # CAST is too permissive (CAST('abc' AS INTEGER) is 0 where the
            # engine raises).
            "cast_integer",
            "cast_float",
            "cast_text",
            "cast_date",
            "cast_boolean",
        }
    )

    _STRFTIME_FIELDS = {"YEAR": "%Y", "MONTH": "%m", "DAY": "%d"}

    def date_literal(self, value: datetime.date) -> str:
        return f"'{value.isoformat()}'"

    def interval_literal(self, value: Interval) -> str:
        raise BackendUnsupportedError(
            "INTERVAL value outside date arithmetic", self.name
        )

    def null_safe_comparison(self, left: str, right: str, negated: bool) -> str:
        keyword = "IS NOT" if negated else "IS"
        return f"({left} {keyword} {right})"

    def binary_op(self, expr: ex.OpExpr, render) -> str:
        arg_types = {a.type for a in expr.args}
        if expr.op in ("+", "-") and (
            SQLType.DATE in arg_types or SQLType.INTERVAL in arg_types
        ):
            return self._date_arith(expr, render)
        return super().binary_op(expr, render)

    def _date_arith(self, expr: ex.OpExpr, render) -> str:
        left, right = expr.args
        op = expr.op
        if SQLType.DATE not in (left.type, right.type):
            raise BackendUnsupportedError(
                "interval-valued arithmetic outside date expressions", self.name
            )
        if left.type is SQLType.DATE and right.type is SQLType.DATE:
            # date - date → whole-day difference.
            return (
                f"CAST(julianday({render(left)}) - julianday({render(right)}) "
                "AS INTEGER)"
            )
        if right.type is SQLType.DATE:  # date on the right
            if op != "+":
                # ``integer - date`` is not defined in the engine either;
                # swapping would silently compute date-minus-days.
                raise BackendUnsupportedError(
                    "subtraction with a date on the right-hand side", self.name
                )
            left, right = right, left
        # ``left`` is the date operand; ``right`` an interval or day count.
        if isinstance(left, ex.Const) and isinstance(right, ex.Const):
            folded = self._fold_date_arith(left.value, right.value, op)
            return self.const(folded)
        if isinstance(right, ex.Const):
            delta = right.value
            if isinstance(delta, Interval):
                if delta.months:
                    raise BackendUnsupportedError(
                        "month/year interval arithmetic on a non-constant "
                        "date (SQLite rolls over month ends)",
                        self.name,
                    )
                days = delta.days
            else:
                days = int(delta)
            if op == "-":
                days = -days
            return f"date({render(left)}, '{days:+d} days')"
        raise BackendUnsupportedError(
            "date arithmetic with a non-constant interval", self.name
        )

    @staticmethod
    def _fold_date_arith(day: datetime.date, delta, op: str):
        if isinstance(delta, Interval):
            return date_add(day, -delta if op == "-" else delta)
        offset = datetime.timedelta(days=int(delta))
        return day - offset if op == "-" else day + offset

    def like(self, arg: str, pattern: str, negated: bool) -> str:
        # The engine treats backslash as the LIKE escape character
        # (PostgreSQL default); SQLite has no default escape.
        return super().like(arg, pattern, negated) + " ESCAPE '\\'"

    def extract(self, field: str, arg: str) -> str:
        fmt = self._STRFTIME_FIELDS[field]
        return f"CAST(strftime('{fmt}', {arg}) AS INTEGER)"

    def cast(self, target: str, arg: str) -> str:
        # Casts the engine knows route through perm_cast_* user functions
        # (UDF_RENAMES); anything reaching this hook has no translation.
        raise BackendUnsupportedError(f"CAST to {target}", self.name)

    def substring(self, args: list[str]) -> str:
        return f"substr({', '.join(args)})"

    def function(self, expr: ex.FuncExpr, query: Query, render) -> str:
        if expr.name in _EXTRACT_FUNCS:
            return self.extract(_EXTRACT_FUNCS[expr.name], render(expr.args[0]))
        if expr.name == "perm_poly_token":
            return self._poly_token(expr, render)
        if expr.name in self.UDF_RENAMES:
            # The perm_* UDFs run the engine's own Python implementations,
            # which distinguish bool from int; SQLite stores booleans as
            # 0/1, so a boolean argument would silently change semantics
            # (e.g. concat('x', TRUE): 'xt' vs 'x1').
            for arg in expr.args:
                if arg.type is SQLType.BOOLEAN:
                    raise BackendUnsupportedError(
                        f"boolean argument to {expr.name}()", self.name
                    )
            args = ", ".join(render(a) for a in expr.args)
            return f"perm_{expr.name}({args})"
        if expr.name.startswith("cast_"):
            return self.cast(expr.name.removeprefix("cast_"), render(expr.args[0]))
        if expr.name == "substr":
            return self.substring([render(a) for a in expr.args])
        args = ", ".join(render(a) for a in expr.args)
        return f"{expr.name}({args})"

    def _poly_token(self, expr: ex.FuncExpr, render) -> str:
        """Tuple-variable minting: identity values must format exactly as
        the Python engine formats them.  Booleans live as 0/1 integers in
        SQLite, so they are mapped back to the engine's 't'/'f' spelling
        before reaching the minting function."""
        parts = [render(expr.args[0])]
        for arg in expr.args[1:]:
            rendered = render(arg)
            if arg.type is SQLType.BOOLEAN:
                rendered = (
                    f"(CASE WHEN {rendered} THEN 't' "
                    f"WHEN NOT {rendered} THEN 'f' ELSE NULL END)"
                )
            parts.append(rendered)
        return f"perm_poly_token({', '.join(parts)})"

    def join_keyword(self, join_type: str) -> str:
        if join_type in ("full", "right") and sqlite3.sqlite_version_info < (3, 39):
            raise BackendUnsupportedError(
                f"{join_type.upper()} JOIN (needs SQLite >= 3.39, "
                f"found {sqlite3.sqlite_version})",
                self.name,
            )
        return _JOIN_SQL[join_type]

    def setop_keyword(self, op: str, all_flag: bool) -> str:
        if all_flag and op in ("intersect", "except"):
            raise BackendUnsupportedError(
                f"{op.upper()} ALL (SQLite only has the DISTINCT form)",
                self.name,
            )
        return _SETOP_SQL[op] + (" ALL" if all_flag else "")

    def setop_operand(self, inner_sql: str, indent: int) -> str:
        # SQLite rejects parenthesized compound-select operands; wrapping
        # in a subquery expresses the same grouping.
        pad = " " * indent
        return f"{pad}SELECT * FROM (\n{inner_sql}\n{pad})"

    def sort_suffix(self, descending: bool, nulls_first) -> str:
        # Make the engine's (PostgreSQL) defaults explicit: NULLS LAST for
        # ascending, NULLS FIRST for descending.  SQLite's implicit
        # placement is the opposite (NULLs sort as the smallest value).
        if nulls_first is None:
            nulls_first = descending
        return super().sort_suffix(descending, nulls_first)

    def limit_offset_clauses(
        self, limit: str | None, offset: str | None
    ) -> list[str]:
        # SQLite rejects a bare OFFSET; LIMIT -1 means "no limit".
        if offset is not None and limit is None:
            return ["LIMIT -1", f"OFFSET {offset}"]
        return super().limit_offset_clauses(limit, offset)

    def quantified_sublink(self, expr: ex.SubLink, test: str, inner: str) -> str:
        # SQLite has no ANY/ALL; IN and NOT IN cover the two shapes the
        # repro emits (x = ANY and x <> ALL) with identical 3-valued logic.
        if expr.kind == ex.SubLinkKind.ANY and expr.operator == "=":
            return f"{test} IN (\n{inner}\n)"
        if expr.kind == ex.SubLinkKind.ALL and expr.operator == "<>":
            return f"{test} NOT IN (\n{inner}\n)"
        quantifier = "ANY" if expr.kind == ex.SubLinkKind.ANY else "ALL"
        raise BackendUnsupportedError(
            f"quantified comparison {expr.operator} {quantifier} (subquery)",
            self.name,
        )


_DIALECTS: dict[str, Dialect] = {
    "postgres": PostgresDialect(),
    "sqlite": SqliteDialect(),
}


def get_dialect(name: str) -> Dialect:
    """Look up a deparse dialect by name."""
    try:
        return _DIALECTS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_DIALECTS))
        raise PermError(f"unknown SQL dialect {name!r} (known: {known})") from None


_DEFAULT = _DIALECTS["postgres"]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def deparse_query(
    query: Query,
    indent: int = 0,
    dialect: Dialect | None = None,
    outers: _Outers = (),
) -> str:
    """Render an analyzed query tree as SQL text in ``dialect``."""
    dialect = dialect or _DEFAULT
    if query.set_operations is not None:
        return _deparse_setop_query(query, indent, dialect, outers)
    pad = " " * indent
    parts: list[str] = []
    distinct = "DISTINCT " if query.distinct else ""
    targets = ", ".join(
        f"{deparse_expr(t.expr, query, dialect, outers)} AS "
        f"{dialect.identifier(t.name)}"
        for t in query.visible_targets
    )
    parts.append(f"{pad}SELECT {distinct}{targets}")
    if query.into and dialect.emit_into:
        parts.append(f"{pad}INTO {query.into}")
    if query.jointree.items:
        from_items = ",\n     ".join(
            _deparse_jointree(item, query, indent, dialect, outers)
            for item in query.jointree.items
        )
        parts.append(f"{pad}FROM {from_items}")
    if query.jointree.quals is not None:
        parts.append(
            f"{pad}WHERE {deparse_expr(query.jointree.quals, query, dialect, outers)}"
        )
    if query.group_clause:
        grouped = ", ".join(
            deparse_expr(g, query, dialect, outers) for g in query.group_clause
        )
        parts.append(f"{pad}GROUP BY {grouped}")
    if query.having is not None:
        parts.append(
            f"{pad}HAVING {deparse_expr(query.having, query, dialect, outers)}"
        )
    parts.extend(_deparse_tail(query, pad, dialect, outers))
    return "\n".join(parts)


def _deparse_tail(
    query: Query, pad: str, dialect: Dialect, outers: _Outers
) -> list[str]:
    parts: list[str] = []
    if query.sort_clause:
        pieces = []
        for clause in query.sort_clause:
            if query.set_operations is not None:
                # A set operation's ORDER BY may only reference its output
                # columns; the portable rendering is the ordinal position
                # (the target Vars address an operand subquery whose alias
                # does not exist in the deparsed text).
                piece = str(query.visible_position(clause.tlist_index) + 1)
            else:
                target = query.target_list[clause.tlist_index]
                piece = deparse_expr(target.expr, query, dialect, outers)
            piece += dialect.sort_suffix(clause.descending, clause.nulls_first)
            pieces.append(piece)
        parts.append(f"{pad}ORDER BY {', '.join(pieces)}")
    limit = (
        deparse_expr(query.limit_count, query, dialect, outers)
        if query.limit_count is not None
        else None
    )
    offset = (
        deparse_expr(query.limit_offset, query, dialect, outers)
        if query.limit_offset is not None
        else None
    )
    parts.extend(
        f"{pad}{clause}" for clause in dialect.limit_offset_clauses(limit, offset)
    )
    return parts


def _deparse_setop_query(
    query: Query, indent: int, dialect: Dialect, outers: _Outers
) -> str:
    pad = " " * indent
    body = _deparse_setop_tree(query.set_operations, query, indent, dialect, outers)
    parts = [body]
    parts.extend(_deparse_tail(query, pad, dialect, outers))
    return "\n".join(parts)


def _deparse_setop_tree(
    node: SetOpTreeNode, query: Query, indent: int, dialect: Dialect, outers: _Outers
) -> str:
    pad = " " * indent
    if isinstance(node, SetOpRangeRef):
        # Set-operation operands are analyzed against the *same* outer
        # scopes as the set-operation node itself (no extra level), so the
        # enclosing-query stack passes through unchanged.
        inner = deparse_query(
            query.range_table[node.rtindex].subquery, indent + 2, dialect, outers
        )
        return dialect.setop_operand(inner, indent)
    assert isinstance(node, SetOpNode)
    op = dialect.setop_keyword(node.op, node.all)

    def operand(child: SetOpTreeNode) -> str:
        # A nested set operation keeps its grouping: dialects disagree on
        # precedence (SQLite evaluates a flat chain left to right, the
        # standard binds INTERSECT tighter), so every non-leaf operand is
        # wrapped like a leaf.
        if isinstance(child, SetOpRangeRef):
            return _deparse_setop_tree(child, query, indent, dialect, outers)
        nested = _deparse_setop_tree(child, query, indent + 2, dialect, outers)
        return dialect.setop_operand(nested, indent)

    return f"{operand(node.left)}\n{pad}{op}\n{operand(node.right)}"


def _deparse_rte(rte: RangeTableEntry, indent: int, dialect: Dialect) -> str:
    if rte.kind is RTEKind.RELATION:
        name = dialect.identifier(rte.relation_name or rte.alias)
        if rte.alias != rte.relation_name:
            return f"{name} AS {dialect.identifier(rte.alias)}"
        return name
    inner = deparse_query(rte.subquery, indent + 2, dialect)
    return f"(\n{inner}\n{' ' * indent}) AS {dialect.identifier(rte.alias)}"


def _deparse_jointree(
    node: JoinTreeNode, query: Query, indent: int, dialect: Dialect, outers: _Outers
) -> str:
    if isinstance(node, RangeTableRef):
        return _deparse_rte(query.range_table[node.rtindex], indent, dialect)
    assert isinstance(node, JoinTreeExpr)
    left = _deparse_jointree(node.left, query, indent, dialect, outers)
    right = _deparse_jointree(node.right, query, indent, dialect, outers)
    keyword = dialect.join_keyword(node.join_type)
    condition = (
        deparse_expr(node.quals, query, dialect, outers)
        if node.quals is not None
        else "TRUE"
    )
    return f"({left}\n{' ' * indent}  {keyword} {right} ON {condition})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def deparse_expr(
    expr: ex.Expr,
    query: Query,
    dialect: Dialect | None = None,
    outers: _Outers = (),
) -> str:
    """Render an analyzed expression as SQL relative to ``query``'s scope."""
    dialect = dialect or _DEFAULT

    def render(sub: ex.Expr) -> str:
        return deparse_expr(sub, query, dialect, outers)

    if isinstance(expr, ex.Var):
        return _deparse_var(expr, query, dialect, outers)
    if isinstance(expr, ex.Const):
        return dialect.const(expr.value)
    if isinstance(expr, ex.OpExpr):
        if len(expr.args) == 1:
            return f"(-{render(expr.args[0])})"
        return dialect.binary_op(expr, render)
    if isinstance(expr, ex.BoolOpExpr):
        if expr.op == "not":
            return f"NOT ({render(expr.args[0])})"
        joiner = f" {expr.op.upper()} "
        return "(" + joiner.join(render(a) for a in expr.args) + ")"
    if isinstance(expr, ex.FuncExpr):
        return dialect.function(expr, query, render)
    if isinstance(expr, ex.Aggref):
        if expr.star:
            return f"{expr.aggname}(*)"
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.aggname}({prefix}{render(expr.arg)})"
    if isinstance(expr, ex.CaseExpr):
        whens = " ".join(
            f"WHEN {render(c)} THEN {render(r)}" for c, r in expr.whens
        )
        default = f" ELSE {render(expr.default)}" if expr.default is not None else ""
        return f"CASE {whens}{default} END"
    if isinstance(expr, ex.NullTest):
        negation = "NOT " if expr.negated else ""
        return f"{render(expr.arg)} IS {negation}NULL"
    if isinstance(expr, ex.LikeTest):
        return dialect.like(render(expr.arg), render(expr.pattern), expr.negated)
    if isinstance(expr, ex.InList):
        negation = "NOT " if expr.negated else ""
        items = ", ".join(render(i) for i in expr.items)
        return f"{render(expr.arg)} {negation}IN ({items})"
    if isinstance(expr, ex.SubLink):
        return _deparse_sublink(expr, query, dialect, outers)
    raise PermError(f"cannot deparse expression {expr!r}")


def _deparse_var(
    var: ex.Var, query: Query, dialect: Dialect, outers: _Outers
) -> str:
    if var.levelsup > 0:
        return dialect.outer_var(var, query, outers)
    if var.varno < 0 or var.varno >= len(query.range_table):
        return var.name or f"${var.varno}.{var.varattno}"
    rte = query.range_table[var.varno]
    return (
        f"{dialect.identifier(rte.alias)}."
        f"{dialect.identifier(rte.column_names[var.varattno])}"
    )


_EXTRACT_FUNCS = {"extract_year": "YEAR", "extract_month": "MONTH", "extract_day": "DAY"}


def _deparse_sublink(
    expr: ex.SubLink, query: Query, dialect: Dialect, outers: _Outers
) -> str:
    inner = deparse_query(expr.subquery, indent=2, dialect=dialect, outers=outers + (query,))
    if expr.kind == ex.SubLinkKind.EXISTS:
        return f"EXISTS (\n{inner}\n)"
    if expr.kind == ex.SubLinkKind.SCALAR:
        return f"(\n{inner}\n)"
    test = deparse_expr(expr.testexpr, query, dialect, outers)
    return dialect.quantified_sublink(expr, test, inner)
