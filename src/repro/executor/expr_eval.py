"""Expression compiler: analyzed expressions -> Python closures.

Each expression compiles to ``fn(row, ctx) -> value`` where ``row`` is the
current input tuple of the plan node evaluating the expression and ``ctx``
is the :class:`~repro.executor.context.ExecContext`.

Design points:

* Vars are resolved to positional slots at compile time via ``varmap``
  (``(varno, varattno) -> slot``); outer references (``levelsup > 0``)
  resolve through ``outer_varmaps`` and read ``ctx.outer_rows`` at runtime.
* Three-valued logic is implemented exactly: comparisons return None on
  NULL input, AND/OR short-circuit per SQL, NOT maps None to None.
* Sublinks compile to subplan executions.  Uncorrelated sublinks execute
  once per query and cache their result in ``ctx.caches`` (so a re-run of
  the same plan on a fresh context recomputes); correlated sublinks
  re-execute per row with the row pushed onto the context's outer stack.
* LIKE patterns that are constants are compiled to regexes once.

Plan nodes execute the *column-wise* kernels ``fn(chunk, ctx) -> list``
of :meth:`ExprCompiler.compile_batch` over
:class:`~repro.storage.chunk.Chunk` inputs (see the section at the bottom
of this module); the row closures serve the projection's row-backed
emitter, per-row kernel fallbacks and constant evaluation.
"""

from __future__ import annotations

import datetime
import functools
import math
import re
from typing import Any, Callable, Optional, Sequence

from repro.datatypes import Interval, SQLType, date_add, parse_date
from repro.errors import ExecutionError, PlanError
from repro.analyzer import expressions as ex

CompiledExpr = Callable[[tuple, Any], Any]
#: Batch kernels map a Chunk to one output column (list of values).
BatchExpr = Callable[[Any, Any], list]
VarMap = dict[tuple[int, int], int]

#: Sentinel distinguishing "not cached yet" from a cached None result.
_UNCACHED = object()


# ---------------------------------------------------------------------------
# Scalar operator implementations (null-propagating)
# ---------------------------------------------------------------------------


def _eq(a, b):
    return None if a is None or b is None else a == b


def _ne(a, b):
    return None if a is None or b is None else a != b


def _lt(a, b):
    return None if a is None or b is None else a < b


def _le(a, b):
    return None if a is None or b is None else a <= b


def _gt(a, b):
    return None if a is None or b is None else a > b


def _ge(a, b):
    return None if a is None or b is None else a >= b


def _null_safe_eq(a, b):
    """``IS NOT DISTINCT FROM`` -- never returns NULL.

    Used by the provenance rewriter's joins (aggregation and set-operation
    rewrites) where NULL grouping keys / NULL set-op columns must match
    each other, mirroring GROUP BY and UNION null semantics.
    """
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a == b


def _null_safe_ne(a, b):
    """``IS DISTINCT FROM`` (negation of the above)."""
    return not _null_safe_eq(a, b)


COMPARISONS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _eq,
    "<>": _ne,
    "<": _lt,
    "<=": _le,
    ">": _gt,
    ">=": _ge,
    "<=>": _null_safe_eq,
    "<!=>": _null_safe_ne,
}

_NEGATED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _add(a, b):
    return None if a is None or b is None else a + b


def _sub(a, b):
    return None if a is None or b is None else a - b


def _mul(a, b):
    return None if a is None or b is None else a * b


def _div_float(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _div_int(a, b):
    """PostgreSQL integer division truncates toward zero."""
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return int(math.trunc(a / b)) if (a < 0) != (b < 0) else a // b


def _mod(a, b):
    """PostgreSQL %: result takes the sign of the dividend."""
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return a - _div_int(a, b) * b


def _concat(a, b):
    if a is None or b is None:
        return None
    return _text(a) + _text(b)


def _text(v: Any) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "t" if v else "f"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    if isinstance(v, datetime.date):
        return v.isoformat()
    return str(v)


def _date_plus(a, b):
    if a is None or b is None:
        return None
    if isinstance(b, Interval):
        return date_add(a, b)
    return a + datetime.timedelta(days=int(b))


def _date_minus(a, b):
    if a is None or b is None:
        return None
    if isinstance(b, Interval):
        return date_add(a, -b)
    if isinstance(b, datetime.date):
        return (a - b).days
    return a - datetime.timedelta(days=int(b))


# ---------------------------------------------------------------------------
# Scalar function implementations
# ---------------------------------------------------------------------------


def _null_guard(fn: Callable) -> Callable:
    def wrapped(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a, b):
    if a is None:
        return None
    if b is not None and a == b:
        return None
    return a


def _greatest(*args):
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _least(*args):
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _substr(s: str, start: int, length: Optional[int] = None) -> str:
    # SQL substring is 1-based; clamp like PostgreSQL.
    begin = max(start - 1, 0)
    if length is None:
        return s[begin:]
    if length < 0:
        raise ExecutionError("negative substring length not allowed")
    end = max(start - 1 + length, begin)
    return s[begin:end]


def _cast_integer(v):
    if isinstance(v, str):
        return int(v.strip())
    return int(v)


def _cast_date(v):
    if isinstance(v, datetime.date):
        return v
    return parse_date(str(v))


# -- provenance polynomial primitives --------------------------------------
#
# Emitted only by the polynomial rewrite strategy; one copy in
# repro.semiring, shared with the SQLite backend.

from repro.semiring.polynomial import Polynomial, poly_monus, poly_mul, poly_token


SCALAR_FUNCTIONS: dict[str, Callable] = {
    "upper": _null_guard(lambda s: s.upper()),
    "lower": _null_guard(lambda s: s.lower()),
    "length": _null_guard(len),
    "abs": _null_guard(abs),
    "round": _null_guard(lambda x, n=0: round(float(x), int(n))),
    "floor": _null_guard(lambda x: float(math.floor(x))),
    "ceil": _null_guard(lambda x: float(math.ceil(x))),
    "sqrt": _null_guard(math.sqrt),
    "power": _null_guard(lambda a, b: float(a) ** float(b)),
    "mod": _mod,
    "coalesce": _coalesce,
    "concat": lambda *args: "".join(_text(a) for a in args if a is not None),
    "substr": _null_guard(_substr),
    "strpos": _null_guard(lambda s, sub: s.find(sub) + 1),
    "trim": _null_guard(lambda s: s.strip()),
    "nullif": _nullif,
    "greatest": _greatest,
    "least": _least,
    "extract_year": _null_guard(lambda d: d.year),
    "extract_month": _null_guard(lambda d: d.month),
    "extract_day": _null_guard(lambda d: d.day),
    "cast_integer": _null_guard(_cast_integer),
    "cast_float": _null_guard(lambda v: float(v)),
    "cast_text": _null_guard(_text),
    "cast_date": _null_guard(_cast_date),
    "cast_boolean": _null_guard(bool),
    "perm_poly_token": poly_token,
    "perm_poly_mul": poly_mul,
    "perm_poly_one": Polynomial.one,
    "perm_poly_monus": poly_monus,
}


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern into an anchored regex."""
    out: list[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out), re.DOTALL)


#: Compiled-regex memo for *dynamic* LIKE patterns (the pattern is an
#: expression, so each row may produce a different — but in practice
#: heavily repeated — pattern string).  ``lru_cache`` is thread-safe,
#: which matters because a database served by ``start_in_thread`` runs
#: statements on the server's engine thread and on the embedding
#: program's own thread, and both share this cache.
_cached_like_regex = functools.lru_cache(maxsize=256)(like_to_regex)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class ExprCompiler:
    """Compiles expressions for one plan node's input layout.

    ``varmap`` maps level-0 ``(varno, varattno)`` to input slots;
    ``outer_varmaps`` is the stack of enclosing layouts (innermost last)
    for correlated sublinks.  ``plan_subquery`` plans a sublink's query
    tree and returns an executable plan node; it is injected by the
    planner to avoid a circular import.
    """

    def __init__(
        self,
        varmap: VarMap,
        outer_varmaps: Sequence[VarMap] = (),
        plan_subquery: Optional[Callable] = None,
    ) -> None:
        self.varmap = varmap
        self.outer_varmaps = list(outer_varmaps)
        self.plan_subquery = plan_subquery
        # Row closures memoized per expression node: a projection's row
        # emitter and its batch kernels (whose per-row fallbacks wrap the
        # row closure) compile the same expressions, and re-compiling a
        # SubLink would plan its subquery again.
        self._row_memo: dict[int, tuple[ex.Expr, CompiledExpr]] = {}
        # Sublink subplans memoized the same way: the row closure and the
        # dedicated batch kernel of one SubLink share one planned subtree.
        self._subplan_memo: dict[int, tuple[ex.Expr, Any]] = {}

    def compile(self, expr: ex.Expr) -> CompiledExpr:
        memoized = self._row_memo.get(id(expr))
        if memoized is not None and memoized[0] is expr:
            return memoized[1]
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise PlanError(f"cannot compile expression {expr!r}")
        compiled = method(expr)
        self._row_memo[id(expr)] = (expr, compiled)
        return compiled

    # -- leaves -------------------------------------------------------------

    def _compile_Var(self, expr: ex.Var) -> CompiledExpr:
        if expr.levelsup == 0:
            key = (expr.varno, expr.varattno)
            if key not in self.varmap:
                raise PlanError(f"variable {expr} not found in plan layout")
            slot = self.varmap[key]
            return lambda row, ctx: row[slot]
        level = expr.levelsup
        if level > len(self.outer_varmaps):
            raise PlanError(f"outer reference {expr} exceeds nesting depth")
        outer_map = self.outer_varmaps[-level]
        key = (expr.varno, expr.varattno)
        if key not in outer_map:
            raise PlanError(f"outer variable {expr} not found in enclosing layout")
        slot = outer_map[key]
        return lambda row, ctx: ctx.outer_rows[-level][slot]

    def _compile_Const(self, expr: ex.Const) -> CompiledExpr:
        value = expr.value
        return lambda row, ctx: value

    # -- operators ------------------------------------------------------------

    def _compile_OpExpr(self, expr: ex.OpExpr) -> CompiledExpr:
        if len(expr.args) == 1:  # unary minus
            arg = self.compile(expr.args[0])
            return lambda row, ctx: None if (v := arg(row, ctx)) is None else -v
        left_expr, right_expr = expr.args
        fn = self._select_binary_fn(expr.op, left_expr.type, right_expr.type)
        # Operand inlining: slot reads and constants bind directly into
        # the operator closure, cutting call frames in the hottest paths
        # (scan predicates, aggregate arguments, join keys).
        lslot = self._direct_slot(left_expr)
        rslot = self._direct_slot(right_expr)
        if lslot is not None:
            if rslot is not None:
                return lambda row, ctx: fn(row[lslot], row[rslot])
            if isinstance(right_expr, ex.Const):
                rval = right_expr.value
                return lambda row, ctx: fn(row[lslot], rval)
            right = self.compile(right_expr)
            return lambda row, ctx: fn(row[lslot], right(row, ctx))
        if rslot is not None:
            if isinstance(left_expr, ex.Const):
                lval = left_expr.value
                return lambda row, ctx: fn(lval, row[rslot])
            left = self.compile(left_expr)
            return lambda row, ctx: fn(left(row, ctx), row[rslot])
        left = self.compile(left_expr)
        if isinstance(right_expr, ex.Const):
            rval = right_expr.value
            return lambda row, ctx: fn(left(row, ctx), rval)
        right = self.compile(right_expr)
        return lambda row, ctx: fn(left(row, ctx), right(row, ctx))

    def _direct_slot(self, expr: ex.Expr) -> Optional[int]:
        """Input slot for a local Var operand; None otherwise."""
        if isinstance(expr, ex.Var) and expr.levelsup == 0:
            return self.varmap.get((expr.varno, expr.varattno))
        return None

    def _select_binary_fn(
        self, op: str, left_type: SQLType, right_type: SQLType
    ) -> Callable[[Any, Any], Any]:
        if op in COMPARISONS:
            return COMPARISONS[op]
        if op == "||":
            return _concat
        if op == "+":
            if left_type == SQLType.DATE:
                return _date_plus
            if right_type == SQLType.DATE:
                return lambda a, b: _date_plus(b, a)
            return _add
        if op == "-":
            if left_type == SQLType.DATE:
                return _date_minus
            return _sub
        if op == "*":
            return _mul
        if op == "/":
            if left_type == SQLType.INTEGER and right_type == SQLType.INTEGER:
                return _div_int
            return _div_float
        if op == "%":
            return _mod
        raise PlanError(f"unknown operator {op!r}")

    def _compile_BoolOpExpr(self, expr: ex.BoolOpExpr) -> CompiledExpr:
        compiled = [self.compile(a) for a in expr.args]
        if expr.op == "not":
            arg = compiled[0]

            def _not(row, ctx):
                v = arg(row, ctx)
                return None if v is None else not v

            return _not
        if expr.op == "and":

            def _and(row, ctx):
                saw_null = False
                for fn in compiled:
                    v = fn(row, ctx)
                    if v is False:
                        return False
                    if v is None:
                        saw_null = True
                return None if saw_null else True

            return _and

        def _or(row, ctx):
            saw_null = False
            for fn in compiled:
                v = fn(row, ctx)
                if v is True:
                    return True
                if v is None:
                    saw_null = True
            return None if saw_null else False

        return _or

    def _compile_FuncExpr(self, expr: ex.FuncExpr) -> CompiledExpr:
        if expr.name not in SCALAR_FUNCTIONS:
            raise PlanError(f"unknown function {expr.name!r}")
        fn = SCALAR_FUNCTIONS[expr.name]
        compiled = [self.compile(a) for a in expr.args]
        if len(compiled) == 1:
            arg0 = compiled[0]
            return lambda row, ctx: fn(arg0(row, ctx))
        if len(compiled) == 2:
            arg0, arg1 = compiled
            return lambda row, ctx: fn(arg0(row, ctx), arg1(row, ctx))
        if len(compiled) == 3:  # e.g. a token over a 2-column identity
            arg0, arg1, arg2 = compiled
            return lambda row, ctx: fn(arg0(row, ctx), arg1(row, ctx), arg2(row, ctx))
        return lambda row, ctx: fn(*[c(row, ctx) for c in compiled])

    def _compile_Aggref(self, expr: ex.Aggref) -> CompiledExpr:
        raise PlanError(
            "internal error: Aggref must be replaced by the planner before "
            "expression compilation"
        )

    def _compile_CaseExpr(self, expr: ex.CaseExpr) -> CompiledExpr:
        whens = [(self.compile(c), self.compile(r)) for c, r in expr.whens]
        default = self.compile(expr.default) if expr.default is not None else None

        def _case(row, ctx):
            for cond, result in whens:
                if cond(row, ctx) is True:
                    return result(row, ctx)
            return default(row, ctx) if default is not None else None

        return _case

    def _compile_NullTest(self, expr: ex.NullTest) -> CompiledExpr:
        arg = self.compile(expr.arg)
        if expr.negated:
            return lambda row, ctx: arg(row, ctx) is not None
        return lambda row, ctx: arg(row, ctx) is None

    def _compile_LikeTest(self, expr: ex.LikeTest) -> CompiledExpr:
        arg = self.compile(expr.arg)
        negated = expr.negated
        if isinstance(expr.pattern, ex.Const) and expr.pattern.value is not None:
            regex = like_to_regex(str(expr.pattern.value))

            def _like_const(row, ctx):
                v = arg(row, ctx)
                if v is None:
                    return None
                matched = regex.fullmatch(v) is not None
                return (not matched) if negated else matched

            return _like_const
        pattern = self.compile(expr.pattern)

        def _like(row, ctx):
            v = arg(row, ctx)
            p = pattern(row, ctx)
            if v is None or p is None:
                return None
            matched = _cached_like_regex(str(p)).fullmatch(v) is not None
            return (not matched) if negated else matched

        return _like

    def _compile_InList(self, expr: ex.InList) -> CompiledExpr:
        arg = self.compile(expr.arg)
        items = [self.compile(i) for i in expr.items]
        negated = expr.negated

        def _in(row, ctx):
            v = arg(row, ctx)
            if v is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, ctx)
                if candidate is None:
                    saw_null = True
                elif candidate == v:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return _in

    # -- sublinks -----------------------------------------------------------------

    def _sublink_subplan(self, expr: ex.SubLink):
        """The sublink's planned subquery, shared across compilations.

        The enclosing-layout stack is ordered outermost..innermost, so
        the current layout is appended last (Var levelsup=k reads
        stack[-k]).
        """
        memoized = self._subplan_memo.get(id(expr))
        if memoized is not None and memoized[0] is expr:
            return memoized[1]
        subplan = self.plan_subquery(
            expr.subquery, [*self.outer_varmaps, self.varmap]
        )
        self._subplan_memo[id(expr)] = (expr, subplan)
        return subplan

    def _compile_SubLink(self, expr: ex.SubLink) -> CompiledExpr:
        if self.plan_subquery is None:
            raise PlanError("sublinks are not allowed in this context")
        subplan = self._sublink_subplan(expr)
        if expr.kind == ex.SubLinkKind.SCALAR:
            return self._compile_scalar_sublink(expr, subplan)
        if expr.kind == ex.SubLinkKind.EXISTS:
            return self._compile_exists_sublink(expr, subplan)
        return self._compile_quantified_sublink(expr, subplan)

    @staticmethod
    def _run_subplan(subplan, ctx, row, correlated: bool) -> list[tuple]:
        # Resolved at call time: callers may wrap ``run_plan_rows``.
        from repro.executor.nodes import run_plan_rows

        if correlated:
            ctx.push_outer(row)
            try:
                return run_plan_rows(subplan, ctx)
            finally:
                ctx.pop_outer()
        return run_plan_rows(subplan, ctx)

    def _compile_scalar_sublink(self, expr: ex.SubLink, subplan) -> CompiledExpr:
        correlated = expr.correlated
        # Uncorrelated sublinks evaluate once per *execution*: the memo
        # lives in ctx.caches under a per-closure sentinel, so a prepared
        # plan re-run on a fresh context recomputes against live data.
        key = object()

        def _scalar(row, ctx):
            if not correlated:
                cached = ctx.caches.get(key, _UNCACHED)
                if cached is not _UNCACHED:
                    return cached
            rows = self._run_subplan(subplan, ctx, row, correlated)
            if len(rows) > 1:
                raise ExecutionError(
                    "more than one row returned by a subquery used as an expression"
                )
            value = rows[0][0] if rows else None
            if not correlated:
                ctx.caches[key] = value
            return value

        return _scalar

    def _compile_exists_sublink(self, expr: ex.SubLink, subplan) -> CompiledExpr:
        correlated = expr.correlated
        key = object()

        def _probe(ctx) -> bool:
            return any(len(chunk) for chunk in subplan.run_batches(ctx))

        def _exists(row, ctx):
            if correlated:
                ctx.push_outer(row)
                try:
                    return _probe(ctx)
                finally:
                    ctx.pop_outer()
            found = ctx.caches.get(key, _UNCACHED)
            if found is _UNCACHED:
                found = _probe(ctx)
                ctx.caches[key] = found
            return found

        return _exists

    def _compile_quantified_sublink(self, expr: ex.SubLink, subplan) -> CompiledExpr:
        """``x op ANY (subq)`` / ``x op ALL (subq)`` with full 3VL."""
        testfn = self.compile(expr.testexpr)
        op = expr.operator or "="
        cmp = COMPARISONS[op]
        is_any = expr.kind == ex.SubLinkKind.ANY
        correlated = expr.correlated
        key = object()

        def _values(row, ctx) -> list:
            if not correlated:
                values = ctx.caches.get(key)
                if values is not None:
                    return values
            rows = self._run_subplan(subplan, ctx, row, correlated)
            values = [r[0] for r in rows]
            if not correlated:
                ctx.caches[key] = values
            return values

        def _quantified(row, ctx):
            values = _values(row, ctx)
            test = testfn(row, ctx)
            saw_null = False
            if is_any:
                for value in values:
                    verdict = cmp(test, value)
                    if verdict is True:
                        return True
                    if verdict is None:
                        saw_null = True
                return None if saw_null else False
            for value in values:
                verdict = cmp(test, value)
                if verdict is False:
                    return False
                if verdict is None:
                    saw_null = True
            return None if saw_null else True

        return _quantified

    # ------------------------------------------------------------------
    # Batch mode: expressions -> column-wise kernels over Chunks
    # ------------------------------------------------------------------
    #
    # ``compile_batch`` produces ``fn(chunk, ctx) -> list`` evaluating the
    # expression for every logical row of the chunk at once.  NULLs stay
    # in-band (None entries; boolean columns are True/False/None — the
    # 3VL "null mask" is the None pattern itself).  Two invariants keep
    # batch mode exactly equivalent to row mode:
    #
    # * Conditional constructs (AND, OR, CASE) evaluate later arms only
    #   on still-active rows, via sub-chunks carrying selection vectors.
    #   Row mode's short-circuiting therefore transfers: an arm that
    #   would raise (division by zero, say) on a row the earlier arms
    #   already decided is never evaluated on that row in batch mode
    #   either.
    # * Anything that resists vectorization — correlated sublinks, odd
    #   engine edge cases — falls back to evaluating the row closure per
    #   row over ``chunk.rows()``.  The fallback is local to the one
    #   expression: the surrounding pipeline stays batched.

    def compile_batch(self, expr: ex.Expr) -> BatchExpr:
        method = getattr(self, f"_batch_{type(expr).__name__}", None)
        if method is not None:
            kernel = method(expr)
            if kernel is not None:
                return kernel
        return self._batch_fallback(expr)

    def _batch_fallback(self, expr: ex.Expr) -> BatchExpr:
        """Per-row fallback: the row closure applied over the chunk's rows."""
        fn = self.compile(expr)

        def kernel(chunk, ctx):
            return [fn(row, ctx) for row in chunk.rows()]

        return kernel

    # -- leaves -------------------------------------------------------------

    def _batch_Var(self, expr: ex.Var) -> Optional[BatchExpr]:
        if expr.levelsup == 0:
            key = (expr.varno, expr.varattno)
            if key not in self.varmap:
                raise PlanError(f"variable {expr} not found in plan layout")
            slot = self.varmap[key]
            return lambda chunk, ctx: chunk.column(slot)
        level = expr.levelsup
        if level > len(self.outer_varmaps):
            raise PlanError(f"outer reference {expr} exceeds nesting depth")
        outer_map = self.outer_varmaps[-level]
        key = (expr.varno, expr.varattno)
        if key not in outer_map:
            raise PlanError(f"outer variable {expr} not found in enclosing layout")
        slot = outer_map[key]
        # Constant within the batch: the enclosing row is fixed while a
        # correlated subplan's chunks stream by.
        return lambda chunk, ctx: [ctx.outer_rows[-level][slot]] * len(chunk)

    def _batch_Const(self, expr: ex.Const) -> BatchExpr:
        value = expr.value
        return lambda chunk, ctx: [value] * len(chunk)

    # -- operators ----------------------------------------------------------

    def _batch_OpExpr(self, expr: ex.OpExpr) -> Optional[BatchExpr]:
        if len(expr.args) == 1:  # unary minus
            arg = self.compile_batch(expr.args[0])
            return lambda chunk, ctx: [
                None if v is None else -v for v in arg(chunk, ctx)
            ]
        left_expr, right_expr = expr.args
        fn = self._select_binary_fn(expr.op, left_expr.type, right_expr.type)
        template = _BATCH_BINARY_TEMPLATES.get(fn)
        if isinstance(right_expr, ex.Const):
            left = self.compile_batch(left_expr)
            const = right_expr.value
            if (
                template is None
                and fn is _div_float
                and const is not None
                and const != 0
            ):
                # Division is excluded from the hot-operator templates
                # only because of the zero check; with a constant
                # nonzero divisor that check happens here, once.
                template = "(None if a is None else a / b)"
            if template is not None:
                return _KERNEL_COL_CONST(template)(left, const)
            return lambda chunk, ctx: [fn(a, const) for a in left(chunk, ctx)]
        if isinstance(left_expr, ex.Const):
            right = self.compile_batch(right_expr)
            const = left_expr.value
            if template is not None:
                return _KERNEL_CONST_COL(template)(right, const)
            return lambda chunk, ctx: [fn(const, b) for b in right(chunk, ctx)]
        left = self.compile_batch(left_expr)
        right = self.compile_batch(right_expr)
        if template is not None:
            return _KERNEL_COL_COL(template)(left, right)
        return lambda chunk, ctx: [
            fn(a, b) for a, b in zip(left(chunk, ctx), right(chunk, ctx))
        ]

    def _batch_BoolOpExpr(self, expr: ex.BoolOpExpr) -> Optional[BatchExpr]:
        if expr.op == "not":
            arg = self.compile_batch(expr.args[0])
            return lambda chunk, ctx: [
                None if v is None else not v for v in arg(chunk, ctx)
            ]
        kernels = [self.compile_batch(a) for a in expr.args]
        if expr.op == "and":
            return self._batch_progressive(kernels, short_on=False)
        return self._batch_progressive(kernels, short_on=True)

    @staticmethod
    def _batch_progressive(kernels: list[BatchExpr], short_on: bool) -> BatchExpr:
        """AND/OR over columns with row-mode short-circuit semantics.

        ``short_on`` is the verdict that decides a row immediately (False
        for AND, True for OR).  Decided rows drop out of the active set,
        and later arms are evaluated on a sub-chunk of only the still
        active rows — so an arm never runs on a row an earlier arm
        already decided, exactly like the row engine's short-circuit.
        NULL marks the row "undecided-with-null": it stays active (a
        later decisive verdict overrides) and resolves to None at the
        end, matching SQL's 3VL.
        """
        neutral = not short_on

        def _boolop(chunk, ctx):
            n = len(chunk)
            out: list = [neutral] * n
            active = list(range(n))
            sub = chunk
            for position, fn in enumerate(kernels):
                if not active:
                    break
                if position:
                    sub = chunk.select(active)
                verdicts = fn(sub, ctx)
                next_active: list[int] = []
                push = next_active.append
                for index, verdict in zip(active, verdicts):
                    if verdict is short_on:
                        out[index] = short_on
                    elif verdict is None:
                        out[index] = None
                        push(index)
                    else:
                        push(index)
                active = next_active
            return out

        return _boolop

    def _batch_FuncExpr(self, expr: ex.FuncExpr) -> Optional[BatchExpr]:
        if expr.name not in SCALAR_FUNCTIONS:
            raise PlanError(f"unknown function {expr.name!r}")
        fn = SCALAR_FUNCTIONS[expr.name]
        kernels = [self.compile_batch(a) for a in expr.args]
        if not kernels:
            return lambda chunk, ctx: [fn() for _ in range(len(chunk))]
        if len(kernels) == 1:
            arg0 = kernels[0]
            return lambda chunk, ctx: [fn(a) for a in arg0(chunk, ctx)]
        if len(kernels) == 2:
            arg0, arg1 = kernels
            return lambda chunk, ctx: [
                fn(a, b) for a, b in zip(arg0(chunk, ctx), arg1(chunk, ctx))
            ]
        return lambda chunk, ctx: [
            fn(*vals) for vals in zip(*(k(chunk, ctx) for k in kernels))
        ]

    def _batch_Aggref(self, expr: ex.Aggref) -> BatchExpr:
        raise PlanError(
            "internal error: Aggref must be replaced by the planner before "
            "expression compilation"
        )

    def _batch_CaseExpr(self, expr: ex.CaseExpr) -> Optional[BatchExpr]:
        whens = [
            (self.compile_batch(c), self.compile_batch(r)) for c, r in expr.whens
        ]
        default = (
            self.compile_batch(expr.default) if expr.default is not None else None
        )

        def _case(chunk, ctx):
            n = len(chunk)
            out: list = [None] * n
            active = list(range(n))
            for position, (cond, result) in enumerate(whens):
                if not active:
                    break
                sub = chunk if position == 0 and len(active) == n else chunk.select(active)
                verdicts = cond(sub, ctx)
                matched = [i for i, v in zip(active, verdicts) if v is True]
                if matched:
                    values = result(chunk.select(matched), ctx)
                    for index, value in zip(matched, values):
                        out[index] = value
                active = [i for i, v in zip(active, verdicts) if v is not True]
            if default is not None and active:
                values = default(chunk.select(active), ctx)
                for index, value in zip(active, values):
                    out[index] = value
            return out

        return _case

    def _batch_NullTest(self, expr: ex.NullTest) -> Optional[BatchExpr]:
        arg = self.compile_batch(expr.arg)
        if expr.negated:
            return lambda chunk, ctx: [v is not None for v in arg(chunk, ctx)]
        return lambda chunk, ctx: [v is None for v in arg(chunk, ctx)]

    def _batch_LikeTest(self, expr: ex.LikeTest) -> Optional[BatchExpr]:
        arg = self.compile_batch(expr.arg)
        if isinstance(expr.pattern, ex.Const):
            if expr.pattern.value is None:
                return lambda chunk, ctx: [None] * len(chunk)
            match = like_to_regex(str(expr.pattern.value)).fullmatch
            if expr.negated:
                return lambda chunk, ctx: [
                    None if v is None else match(v) is None
                    for v in arg(chunk, ctx)
                ]
            return lambda chunk, ctx: [
                None if v is None else match(v) is not None
                for v in arg(chunk, ctx)
            ]
        # Dynamic pattern: evaluate the pattern column batch-wise and
        # memoize the compiled regex per distinct pattern string — a
        # chunk-local dict fronts the shared LRU, so the common case
        # (few distinct patterns per chunk) never touches a lock.
        pattern = self.compile_batch(expr.pattern)
        negated = expr.negated

        def _like_dynamic(chunk, ctx):
            values = arg(chunk, ctx)
            patterns = pattern(chunk, ctx)
            matchers: dict[str, Any] = {}
            out = []
            for v, p in zip(values, patterns):
                if v is None or p is None:
                    out.append(None)
                    continue
                key = str(p)
                match = matchers.get(key)
                if match is None:
                    match = _cached_like_regex(key).fullmatch
                    matchers[key] = match
                matched = match(v) is not None
                out.append((not matched) if negated else matched)
            return out

        return _like_dynamic

    def _batch_InList(self, expr: ex.InList) -> Optional[BatchExpr]:
        if not all(isinstance(item, ex.Const) for item in expr.items):
            return None  # expression items: per-row fallback
        arg = self.compile_batch(expr.arg)
        values = {item.value for item in expr.items if item.value is not None}
        saw_null = any(item.value is None for item in expr.items)
        negated = expr.negated
        hit = False if negated else True
        miss = None if saw_null else (True if negated else False)

        def _in(chunk, ctx):
            return [
                None if v is None else (hit if v in values else miss)
                for v in arg(chunk, ctx)
            ]

        return _in

    # -- sublinks (batch) ---------------------------------------------------

    def _batch_SubLink(self, expr: ex.SubLink) -> Optional[BatchExpr]:
        if expr.correlated:
            return None  # re-executes per row: fall back to the row closure
        if expr.kind in (ex.SubLinkKind.ANY, ex.SubLinkKind.ALL):
            return self._batch_quantified_sublink(expr)
        fn = self.compile(expr)

        def _broadcast(chunk, ctx):
            n = len(chunk)
            if n == 0:
                return []
            # Uncorrelated: the row argument is ignored and the result is
            # cached in ctx, so one evaluation serves the whole batch.
            return [fn((), ctx)] * n

        return _broadcast

    def _batch_quantified_sublink(self, expr: ex.SubLink) -> Optional[BatchExpr]:
        """Vectorized uncorrelated ``x op ANY/ALL (subq)``.

        The subquery column is reduced *once per execution* into the
        cheapest digest the operator admits — a hash set for ``=`` /
        ``<>`` (the IN / NOT IN rewrites), the extreme value for the
        range operators (``x < ANY(S)`` ⇔ ``x < max(S)``, ``x < ALL(S)``
        ⇔ ``x < min(S)``, and dually for ``>``) — and the whole test
        column probes it in one comprehension, replacing the former
        per-row fallback loop.  Exact 3VL is preserved: a NULL test
        value or a NULL among the subquery values yields NULL whenever
        the quantifier is not already decided without it.
        """
        op = expr.operator or "="
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            return None  # null-safe operators keep the row path
        if self.plan_subquery is None:
            raise PlanError("sublinks are not allowed in this context")
        subplan = self._sublink_subplan(expr)
        test_kernel = self.compile_batch(expr.testexpr)
        is_any = expr.kind == ex.SubLinkKind.ANY
        cache_key = object()

        def _digest(ctx):
            digest = ctx.caches.get(cache_key)
            if digest is None:
                rows = self._run_subplan(subplan, ctx, (), correlated=False)
                values = [r[0] for r in rows]
                non_null = [v for v in values if v is not None]
                saw_null = len(non_null) < len(values)
                if op in ("=", "<>"):
                    reduced: Any = set(non_null)
                elif non_null:
                    # ANY wants the loosest bound, ALL the tightest.
                    if (op in ("<", "<=")) == is_any:
                        reduced = max(non_null)
                    else:
                        reduced = min(non_null)
                else:
                    reduced = None
                digest = (reduced, bool(non_null), saw_null)
                ctx.caches[cache_key] = digest
            return digest

        cmp = COMPARISONS[op]
        eq_based = op in ("=", "<>")

        def _kernel(chunk, ctx):
            reduced, has_values, saw_null = _digest(ctx)
            tests = test_kernel(chunk, ctx)
            if not has_values and not saw_null:
                # Empty subquery: ANY is False, ALL is True, regardless
                # of the test value (even NULL).
                return [is_any is False for _ in tests]
            out = []
            append = out.append
            if eq_based:
                members = reduced
                if is_any:
                    # x = ANY: True on membership; x <> ANY: True unless
                    # every value equals x (set has other values).
                    for v in tests:
                        if v is None:
                            append(None)
                        elif op == "=":
                            append(True if v in members else (None if saw_null else False))
                        else:  # <> ANY
                            others = len(members) - (1 if v in members else 0)
                            append(True if others > 0 else (None if saw_null else False))
                else:
                    for v in tests:
                        if v is None:
                            append(None)
                        elif op == "=":
                            # = ALL: every value equals x.
                            only_x = members == {v}
                            append(
                                False
                                if (members and not only_x)
                                else (None if saw_null else only_x)
                            )
                        else:  # <> ALL (NOT IN)
                            append(
                                False
                                if v in members
                                else (None if saw_null else True)
                            )
                return out
            bound = reduced
            if is_any:
                for v in tests:
                    if v is None:
                        append(None)
                    elif bound is not None and cmp(v, bound) is True:
                        append(True)
                    else:
                        append(None if saw_null else False)
            else:
                for v in tests:
                    if v is None:
                        append(None)
                    elif bound is not None and cmp(v, bound) is not True:
                        append(False)
                    else:
                        append(None if saw_null else True)
            return out

        return _kernel


# -- generated column kernels for the common binary operators ---------------
#
# For the hot operators (comparisons, + - *, null-safe =) the kernel body
# is generated source with the null checks inlined in the comprehension:
# no per-element Python call at all.  ``a``/``b`` name the two operands;
# the three shapes bind them to two columns, column+constant, or
# constant+column.

_BATCH_BINARY_TEMPLATES: dict[Callable, str] = {
    _eq: "(None if a is None or b is None else a == b)",
    _ne: "(None if a is None or b is None else a != b)",
    _lt: "(None if a is None or b is None else a < b)",
    _le: "(None if a is None or b is None else a <= b)",
    _gt: "(None if a is None or b is None else a > b)",
    _ge: "(None if a is None or b is None else a >= b)",
    _add: "(None if a is None or b is None else a + b)",
    _sub: "(None if a is None or b is None else a - b)",
    _mul: "(None if a is None or b is None else a * b)",
    _null_safe_eq: "((b is None) if a is None else (False if b is None else a == b))",
    _null_safe_ne: "((b is not None) if a is None else (True if b is None else a != b))",
}


def _kernel_factory(source: str) -> Callable:
    cache: dict[str, Callable] = {}

    def factory(template: str) -> Callable:
        built = cache.get(template)
        if built is None:
            built = eval(source.format(expr=template))  # generated templates only
            cache[template] = built
        return built

    return factory


_KERNEL_COL_COL = _kernel_factory(
    "lambda lk, rk: lambda chunk, ctx: "
    "[{expr} for a, b in zip(lk(chunk, ctx), rk(chunk, ctx))]"
)
_KERNEL_COL_CONST = _kernel_factory(
    "lambda lk, b: lambda chunk, ctx: [{expr} for a in lk(chunk, ctx)]"
)
_KERNEL_CONST_COL = _kernel_factory(
    "lambda rk, a: lambda chunk, ctx: [{expr} for b in rk(chunk, ctx)]"
)
