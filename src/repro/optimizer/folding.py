"""Constant folding and trivial-pass cleanup (optimizer rule 4).

Four independent simplifications, each sound under the engine's 3-valued
logic and bag semantics:

* **constant folding** — any expression whose leaves are all constants is
  evaluated once at optimize time with the executor's own scalar
  implementations (so folded semantics are exactly runtime semantics);
  the rewriter- and TPC-H-heavy ``DATE '…' + INTERVAL '1' YEAR`` shapes
  collapse to plain date literals, which also widens what the SQLite
  dialect can translate;
* **boolean shortening** — ``TRUE``/``FALSE`` absorption in AND/OR chains
  (NULL-safe: ``FALSE AND NULL`` is ``FALSE``, ``TRUE OR NULL`` is
  ``TRUE``), ``NOT`` of a constant, constant-condition CASE arms, and OR
  factoring — ``(a AND x) OR (a AND y)`` becomes ``a AND (x OR y)`` and
  ``a OR (a AND y)`` becomes ``a`` (distributivity and absorption hold in
  Kleene logic).  Factoring is what lets a SQL backend see TPC-H Q19's
  join key: left inside each OR arm, SQLite plans a nested loop;
* **WHERE TRUE / ON TRUE removal** — a qual that folded to ``TRUE`` is
  dropped (inner-join ``ON TRUE`` conditions included);
* **subquery ORDER BY / DISTINCT cleanup** — an ORDER BY without LIMIT in
  a non-root query node is a no-op under bag semantics and is dropped
  (with its resjunk carrier columns); a DISTINCT on the direct operand of
  a set-semantics set operation is redundant (the operation deduplicates
  anyway) and is cleared.
"""

from __future__ import annotations

import datetime
from typing import Optional

from repro.datatypes import Interval, SQLType
from repro.errors import PermError
from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import (
    JoinTreeExpr,
    JoinTreeNode,
    Query,
    RTEKind,
    SetOpNode,
    SetOpRangeRef,
)
from repro.planner.logical import _factor_or, conjoin

BOOL = SQLType.BOOLEAN

#: Value types the deparser can render back to SQL literals; folding never
#: produces a constant it could not ship to an execution backend.
_LITERAL_TYPES = (bool, int, float, str, datetime.date, Interval)

#: Functions excluded from folding: provenance-polynomial primitives mint
#: tuple variables / polynomial values that have no SQL literal form.
_UNFOLDABLE_FUNCS = ("perm_poly_",)


class _FoldState:
    __slots__ = ("changed",)

    def __init__(self) -> None:
        self.changed = False


def fold_node(query: Query) -> bool:
    """Fold constants in every expression owned by ``query``; drop quals
    that folded to TRUE.  Returns True when anything changed."""
    state = _FoldState()

    def fold(expr: ex.Expr) -> ex.Expr:
        folded = _fold_expr(expr)
        if folded is not expr:
            state.changed = True
        return folded

    for target in query.target_list:
        target.expr = fold(target.expr)
    if query.jointree.quals is not None:
        quals = fold(query.jointree.quals)
        query.jointree.quals = None if _is_true(quals) else quals
        if query.jointree.quals is None:
            state.changed = True
    _fold_jointree(query.jointree.items, fold)
    query.group_clause = [fold(g) for g in query.group_clause]
    if query.having is not None:
        query.having = fold(query.having)
    return state.changed


def _fold_jointree(items: list[JoinTreeNode], fold) -> None:
    stack: list[JoinTreeNode] = list(items)
    while stack:
        node = stack.pop()
        if isinstance(node, JoinTreeExpr):
            if node.quals is not None:
                quals = fold(node.quals)
                # ON TRUE on an *inner* join is a cross join; outer joins
                # keep the constant (it decides null extension).
                if node.join_type in ("inner", "cross") and _is_true(quals):
                    node.quals = None
                else:
                    node.quals = quals
            stack.append(node.left)
            stack.append(node.right)


def cleanup_node(query: Query, is_root: bool) -> bool:
    """Trivial-pass cleanup on one query node (ORDER BY / junk / DISTINCT
    rules that need the root/non-root distinction)."""
    changed = False
    if not is_root and query.sort_clause and query.limit_count is None \
            and query.limit_offset is None:
        # Bag semantics: a subquery's ordering is invisible to its parent
        # unless a LIMIT consumes it.
        query.sort_clause = []
        changed = True
    if not query.sort_clause and any(t.resjunk for t in query.target_list):
        # resjunk entries exist only to feed ORDER BY (planner slices them
        # away); with the sort gone they are dead weight.  The root keeps
        # its junk only while a sort references it, so this also fires for
        # user-level queries whose sort was subsumed elsewhere.
        query.target_list = [t for t in query.target_list if not t.resjunk]
        changed = True
    changed |= _drop_redundant_distinct(query)
    return changed


def _drop_redundant_distinct(query: Query) -> bool:
    """DISTINCT on the direct operand of a set-semantics set operation is
    redundant: UNION/INTERSECT/EXCEPT (without ALL) deduplicate their
    result and ignore input multiplicities."""
    if query.set_operations is None:
        return False
    changed = False
    stack = [query.set_operations]
    while stack:
        node = stack.pop()
        if isinstance(node, SetOpRangeRef):
            continue
        assert isinstance(node, SetOpNode)
        if not node.all:
            for child in (node.left, node.right):
                if isinstance(child, SetOpRangeRef):
                    rte = query.range_table[child.rtindex]
                    sub = rte.subquery
                    if (
                        sub is not None
                        and rte.kind is RTEKind.SUBQUERY
                        and sub.distinct
                    ):
                        sub.distinct = False
                        changed = True
        stack.append(node.left)
        stack.append(node.right)
    return changed


# ---------------------------------------------------------------------------
# Expression folding
# ---------------------------------------------------------------------------


def _fold_expr(expr: ex.Expr) -> ex.Expr:
    children = expr.children()
    if children:
        new_children = [_fold_expr(c) for c in children]
        if any(new is not old for new, old in zip(new_children, children)):
            expr = ex.rebuild_with_children(expr, new_children)
    if isinstance(expr, ex.BoolOpExpr):
        return _shorten_bool(expr)
    if isinstance(expr, ex.CaseExpr):
        return _shorten_case(expr)
    if isinstance(expr, (ex.Var, ex.Const, ex.Aggref, ex.SubLink)):
        return expr
    # Children are already folded, so "all children constant" suffices:
    # constant subtrees collapse bottom-up one node at a time.
    if expr.children() and all(
        isinstance(c, ex.Const) for c in expr.children()
    ) and _foldable(expr):
        folded = _evaluate_const(expr)
        if folded is not None:
            return folded
    return expr


def _foldable(expr: ex.Expr) -> bool:
    if isinstance(expr, ex.FuncExpr) and expr.name.startswith(_UNFOLDABLE_FUNCS):
        return False
    if isinstance(expr, ex.SubLink):
        return False
    return True


def _evaluate_const(expr: ex.Expr) -> Optional[ex.Const]:
    """Evaluate a variable-free expression with the executor's own scalar
    semantics; None when evaluation fails (the runtime error is preserved
    by keeping the expression) or produces a non-literal value."""
    from repro.executor.context import ExecContext
    from repro.executor.expr_eval import ExprCompiler

    try:
        value = ExprCompiler({}).compile(expr)((), ExecContext())
    except (PermError, ArithmeticError, TypeError, ValueError):
        # The typed ways evaluation fails (``1/0``, a bad cast): the
        # expression stays and raises at run time.  Anything else is a
        # compiler bug and must surface.
        return None
    if value is not None and not isinstance(value, _LITERAL_TYPES):
        return None
    return ex.Const(value, expr.type)


def _is_true(expr: ex.Expr) -> bool:
    return isinstance(expr, ex.Const) and expr.value is True


def _is_false(expr: ex.Expr) -> bool:
    return isinstance(expr, ex.Const) and expr.value is False


def _is_null_const(expr: ex.Expr) -> bool:
    return isinstance(expr, ex.Const) and expr.value is None


def _shorten_bool(expr: ex.BoolOpExpr) -> ex.Expr:
    args = list(expr.args)
    if expr.op == "not":
        arg = args[0]
        if isinstance(arg, ex.Const):
            if arg.value is None:
                return ex.Const(None, BOOL)
            return ex.Const(not arg.value, BOOL)
        return expr
    if expr.op == "and":
        if any(_is_false(a) for a in args):
            return ex.Const(False, BOOL)
        keep = [a for a in args if not _is_true(a)]
        if not keep:
            return ex.Const(True, BOOL)
        if all(_is_null_const(a) for a in keep):
            return ex.Const(None, BOOL)
    else:  # or
        if any(_is_true(a) for a in args):
            return ex.Const(True, BOOL)
        keep = [a for a in args if not _is_false(a)]
        if not keep:
            return ex.Const(False, BOOL)
        if all(_is_null_const(a) for a in keep):
            return ex.Const(None, BOOL)
        if len(keep) > 1:
            if len(keep) != len(args):
                expr = ex.BoolOpExpr("or", tuple(keep))
            factored = _factor_or(expr)
            return expr if factored is None else conjoin(factored)
    if len(keep) == 1:
        return keep[0]
    if len(keep) != len(args):
        return ex.BoolOpExpr(expr.op, tuple(keep))
    return expr


def _shorten_case(expr: ex.CaseExpr) -> ex.Expr:
    whens: list[tuple[ex.Expr, ex.Expr]] = []
    for cond, result in expr.whens:
        if _is_false(cond) or _is_null_const(cond):
            continue  # arm can never fire
        if _is_true(cond) and not whens:
            return result  # first live arm always fires
        whens.append((cond, result))
        if _is_true(cond):
            break  # later arms unreachable
    if len(whens) == len(expr.whens):
        return expr
    if not whens:
        return expr.default if expr.default is not None \
            else ex.Const(None, expr.type)
    return ex.CaseExpr(tuple(whens), expr.default, expr.type)
