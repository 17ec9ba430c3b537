"""Pipeline fusion: one generated kernel per scan→filter→project chain.

The vectorized engine executes a pipeline as a chain of per-operator
batch passes: each scan predicate kernel walks a column and narrows a
selection vector, and the projection applies per-column kernels (or a
zero-copy slice) to the surviving rows.  Every operator boundary costs
one full pass plus an intermediate list, and the selection vector is
re-applied lazily by every downstream column read.

This pass replaces such a chain with a :class:`FusedPipelineNode`
holding ONE generated Python function over the chunk's physical
columns::

    def _fused(chunk, ctx):
        n = chunk.nrows
        c4 = chunk.column(4)
        c6 = chunk.column(6)
        return [(c4[i], f1(c6[i]))
                for i in _range(n)
                if (None if c6[i] is None else c6[i] < k2)]

i.e. a single comprehension that inlines every filter conjunct (with
short-circuit between conjuncts) and every projection expression — no
verdict lists, no selection vectors, no intermediate chunks.  It is the
chain-level generalization of ``ProjectNode._build_emitter``'s fused
slot reads.

Correctness rests on two facts about SQL's three-valued logic in
Python:

* The engine keeps a row exactly when the predicate evaluates to
  ``True``; with NULL represented as ``None``, *truthiness* of a 3VL
  value (one of ``True``/``False``/``None``) is exactly "is True".
  Python ``and``/``or`` chains over 3VL values return one of the
  operand values, whose truthiness again matches Kleene semantics — so
  conjunctions and disjunctions inline as plain ``and``/``or``.
* In filter position ``NOT x`` is true iff ``x is False``; nested
  NOT-over-AND/OR is pushed down by De Morgan (exact in Kleene logic).

Value-position expressions use explicit ``None``-propagation mirroring
the row compiler's operator helpers; operators whose semantics carry
state (division errors, date arithmetic, LIKE regexes, scalar
functions) bind the *same* helper objects from
:mod:`repro.executor.expr_eval` into the generated function's globals.

A chain is fusible when its planner-attached ``fusion`` metadata (the
original analyzed expressions plus the variable layout; see
``physical.py``) exists for every predicate-bearing node and every
expression compiles through :class:`_SourceEmitter`.  Anything the
emitter cannot express — sublinks, correlated outer references, dynamic
LIKE patterns, non-constant IN lists — raises :class:`NotFusible` and
the chain simply keeps its unfused operators.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analyzer import expressions as ex
from repro.datatypes import SQLType
from repro.executor.expr_eval import (
    SCALAR_FUNCTIONS,
    _concat,
    _date_minus,
    _date_plus,
    _div_float,
    _div_int,
    _mod,
    _null_safe_eq,
    _null_safe_ne,
    like_to_regex,
)
from repro.executor.nodes import (
    FilterNode,
    PlanNode,
    ProjectNode,
    SeqScan,
    SliceNode,
)
from repro.storage.chunk import Chunk

#: Plan-tree child links the fusion walk rewrites in place.
_CHILD_ATTRS = ("child", "left", "right")


class NotFusible(Exception):
    """An expression (or chain) the source emitter cannot inline."""


#: Binary comparisons inlined as native operators (null-propagating).
_INLINE_COMPARE = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
#: Null-propagating arithmetic inlined as native operators.
_INLINE_ARITH = {"+": "+", "-": "-", "*": "*"}
#: Operators that keep their row-path helper (stateful semantics:
#: division errors, text coercion, null-safe equality).
_HELPER_OPS = {
    "%": _mod,
    "||": _concat,
    "<=>": _null_safe_eq,
    "<!=>": _null_safe_ne,
}


class _SourceEmitter:
    """Compiles analyzed expressions to Python source fragments.

    Fragments read the current chunk row through ``c<phys>[i]`` column
    accesses; ``varmap`` (the emitting node's layout) and ``state`` (the
    node-input-slot → physical-scan-column mapping threaded through
    interior slices) are set by the caller before each node's
    expressions are emitted.  Non-literal runtime objects (constants,
    regexes, helper functions, IN sets) are bound into ``env``, the
    generated function's globals.
    """

    def __init__(self) -> None:
        self.env: dict[str, Any] = {"_range": range}
        self.used: dict[int, str] = {}  # physical column -> local name
        self.varmap: dict = {}
        self.state: list[int] = []
        self._counter = 0

    # -- naming helpers -----------------------------------------------------

    def _name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def bind(self, value: Any, prefix: str) -> str:
        name = self._name(prefix)
        self.env[name] = value
        return name

    def col(self, slot: int) -> str:
        phys = self.state[slot]
        name = self.used.setdefault(phys, f"c{phys}")
        return f"{name}[i]"

    def _operand(self, expr: ex.Expr) -> tuple[str, str]:
        """``(first_use, reuse)`` sources for an operand referenced more
        than once in a template: compound operands bind a walrus temp at
        their first (leftmost) evaluation point."""
        src, simple = self.value(expr)
        if simple:
            return src, src
        temp = self._name("_t")
        return f"({temp} := {src})", temp

    # -- filter position ----------------------------------------------------

    def cond(self, expr: ex.Expr) -> str:
        """Source whose *truthiness* equals "the predicate is True"."""
        if isinstance(expr, ex.BoolOpExpr):
            if expr.op == "and":
                return "(" + " and ".join(self.cond(a) for a in expr.args) + ")"
            if expr.op == "or":
                return "(" + " or ".join(self.cond(a) for a in expr.args) + ")"
            arg = expr.args[0]
            if isinstance(arg, ex.BoolOpExpr):
                if arg.op == "not":  # ¬¬x = x (exact in Kleene logic)
                    return self.cond(arg.args[0])
                flipped = "or" if arg.op == "and" else "and"
                pushed = ex.BoolOpExpr(
                    op=flipped,
                    args=tuple(
                        ex.BoolOpExpr(op="not", args=(a,), type=expr.type)
                        for a in arg.args
                    ),
                    type=expr.type,
                )
                return self.cond(pushed)
            src, _ = self.value(arg)
            return f"({src} is False)"
        src, _ = self.value(expr)
        return src

    # -- value position -----------------------------------------------------

    def value(self, expr: ex.Expr) -> tuple[str, bool]:
        """``(source, is_simple)`` for the expression's SQL value; simple
        sources (column reads, bound constants) are re-evaluation-free."""
        method = getattr(self, f"_value_{type(expr).__name__}", None)
        if method is None:
            raise NotFusible(type(expr).__name__)
        return method(expr)

    def _value_Var(self, expr: ex.Var) -> tuple[str, bool]:
        if expr.levelsup != 0:
            raise NotFusible("correlated outer reference")
        slot = self.varmap.get((expr.varno, expr.varattno))
        if slot is None:
            raise NotFusible("variable outside the chain layout")
        return self.col(slot), True

    def _value_Const(self, expr: ex.Const) -> tuple[str, bool]:
        if expr.value is None:
            return "None", True
        return self.bind(expr.value, "k"), True

    def _value_OpExpr(self, expr: ex.OpExpr) -> tuple[str, bool]:
        if len(expr.args) == 1:  # unary minus
            a1, a = self._operand(expr.args[0])
            return f"(None if {a1} is None else -{a})", False
        left, right = expr.args
        op = expr.op
        if op in _INLINE_COMPARE or op in _INLINE_ARITH:
            if op in _INLINE_ARITH and SQLType.DATE in (left.type, right.type):
                return self._date_arith(expr)
            py_op = _INLINE_COMPARE.get(op) or _INLINE_ARITH[op]
            return self._null_propagating(left, right, py_op)
        if op == "/":
            helper = (
                _div_int
                if left.type == SQLType.INTEGER and right.type == SQLType.INTEGER
                else _div_float
            )
            return self._helper_call(helper, left, right)
        if op in _HELPER_OPS:
            return self._helper_call(_HELPER_OPS[op], left, right)
        raise NotFusible(f"operator {op!r}")

    def _null_propagating(
        self, left: ex.Expr, right: ex.Expr, py_op: str
    ) -> tuple[str, bool]:
        a1, a = self._operand(left)
        b1, b = self._operand(right)
        # A non-NULL constant operand needs no None test of its own.
        checks = []
        if not (isinstance(left, ex.Const) and left.value is not None):
            checks.append(f"{a1} is None")
            a1 = a
        if not (isinstance(right, ex.Const) and right.value is not None):
            checks.append(f"{b1} is None")
        if not checks:
            return f"({a} {py_op} {b})", False
        guard = " or ".join(checks)
        return f"(None if {guard} else {a} {py_op} {b})", False

    def _date_arith(self, expr: ex.OpExpr) -> tuple[str, bool]:
        left, right = expr.args
        if expr.op == "+":
            if left.type == SQLType.DATE:
                return self._helper_call(_date_plus, left, right)
            return self._helper_call(_date_plus, right, left)
        if expr.op == "-" and left.type == SQLType.DATE:
            return self._helper_call(_date_minus, left, right)
        return self._null_propagating(left, right, _INLINE_ARITH[expr.op])

    def _helper_call(self, fn, *args: ex.Expr) -> tuple[str, bool]:
        name = self.bind(fn, "f")
        sources = ", ".join(self.value(a)[0] for a in args)
        return f"{name}({sources})", False

    def _value_BoolOpExpr(self, expr: ex.BoolOpExpr) -> tuple[str, bool]:
        if expr.op != "not":
            # Value-position AND/OR would need non-short-circuit Kleene
            # evaluation, diverging from the row path on errors; filters
            # (the hot case) go through cond() instead.
            raise NotFusible("boolean value expression")
        a1, a = self._operand(expr.args[0])
        return f"(None if {a1} is None else not {a})", False

    def _value_NullTest(self, expr: ex.NullTest) -> tuple[str, bool]:
        src, _ = self.value(expr.arg)
        test = "is not None" if expr.negated else "is None"
        return f"({src} {test})", False

    def _value_LikeTest(self, expr: ex.LikeTest) -> tuple[str, bool]:
        if not isinstance(expr.pattern, ex.Const) or expr.pattern.value is None:
            raise NotFusible("dynamic LIKE pattern")
        regex = self.bind(like_to_regex(str(expr.pattern.value)), "r")
        a1, a = self._operand(expr.arg)
        verdict = "is None" if expr.negated else "is not None"
        return (
            f"(None if {a1} is None else {regex}.fullmatch({a}) {verdict})",
            False,
        )

    def _value_InList(self, expr: ex.InList) -> tuple[str, bool]:
        if not all(isinstance(item, ex.Const) for item in expr.items):
            raise NotFusible("non-constant IN list")
        values = [item.value for item in expr.items]
        has_null = any(v is None for v in values)
        members = self.bind(frozenset(v for v in values if v is not None), "s")
        a1, a = self._operand(expr.arg)
        if expr.negated:
            tail = "None" if has_null else "True"
            body = f"False if {a} in {members} else {tail}"
        else:
            tail = "None" if has_null else "False"
            body = f"True if {a} in {members} else {tail}"
        return f"(None if {a1} is None else ({body}))", False

    def _value_FuncExpr(self, expr: ex.FuncExpr) -> tuple[str, bool]:
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise NotFusible(f"function {expr.name!r}")
        return self._helper_call(fn, *expr.args)

    def _value_CaseExpr(self, expr: ex.CaseExpr) -> tuple[str, bool]:
        if expr.default is not None:
            result = self.value(expr.default)[0]
        else:
            result = "None"
        # WHEN conditions use is-True semantics = cond() truthiness; the
        # nested conditionals preserve the row path's short-circuit.
        for when, then in reversed(expr.whens):
            result = f"({self.value(then)[0]} if {self.cond(when)} else {result})"
        return result, False


# ---------------------------------------------------------------------------
# The fused node
# ---------------------------------------------------------------------------


class FusedPipelineNode(PlanNode):
    """A scan→filter→project chain collapsed into one generated kernel.

    ``child`` is a bare clone of the chain's scan (no predicates) so
    chunks arrive unfiltered and uninstrumented passes see honest scan
    cardinalities.  ``fallback`` is the original operator chain; no plan
    executes it — its one use is as the reference the fusion tests run
    each generated kernel against.
    """

    def __init__(
        self,
        scan: SeqScan,
        fallback: PlanNode,
        kernel,
        n_predicates: int,
        source: str,
    ) -> None:
        self.child = scan
        self.fallback = fallback
        self.kernel = kernel
        self.n_predicates = n_predicates
        self.source = source  # generated kernel text (debugging aid)
        self.output_names = list(fallback.output_names)
        self.estimate = fallback.estimate
        self.batch_size_hint = fallback.batch_size_hint

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return (
            f"FusedPipeline [{self.n_predicates} preds -> "
            f"{len(self.output_names)} cols]"
        )

    def run_batches(self, ctx):
        kernel = self.kernel
        width = len(self.output_names)
        for chunk in self.child.run_batches(ctx):
            rows = kernel(chunk, ctx)
            if rows:
                yield Chunk.from_rows(rows, width)


# ---------------------------------------------------------------------------
# Chain detection and code generation
# ---------------------------------------------------------------------------


def _try_fuse(root: PlanNode) -> Optional[FusedPipelineNode]:
    """Fuse the chain rooted at ``root``, or None when it isn't one.

    Fusible chains are a ``ProjectNode`` (with planner fusion metadata)
    or a ``SliceNode`` on top of interior ``FilterNode``/``SliceNode``
    operators bottoming out in a ``SeqScan``, with at least one filter
    conjunct in between — projection-only chains keep the existing
    zero-copy column paths, which fusion could only make worse.
    """
    if isinstance(root, ProjectNode):
        if root.fusion is None:
            return None
    elif not isinstance(root, SliceNode):
        return None
    mids: list[PlanNode] = []
    current = root.child
    while isinstance(current, (FilterNode, SliceNode)):
        if isinstance(current, FilterNode) and current.fusion is None:
            return None
        mids.append(current)
        current = current.child
    if not isinstance(current, SeqScan):
        return None
    scan = current
    scan_conjuncts: list[ex.Expr] = []
    if scan.predicates:
        if scan.fusion is None:
            return None
        scan_conjuncts = scan.fusion[1]
    n_predicates = len(scan_conjuncts) + sum(
        len(node.fusion[1]) for node in mids if isinstance(node, FilterNode)
    )
    if n_predicates == 0:
        return None

    emitter = _SourceEmitter()
    state = list(range(scan.width()))
    conds: list[str] = []
    try:
        if scan_conjuncts:
            emitter.varmap, emitter.state = scan.fusion[0], state
            conds += [emitter.cond(c) for c in scan_conjuncts]
        for node in reversed(mids):
            if isinstance(node, SliceNode):
                state = [state[k] for k in node.keep]
                continue
            emitter.varmap, emitter.state = node.fusion[0], state
            conds += [emitter.cond(c) for c in node.fusion[1]]
        if isinstance(root, SliceNode):
            emitter.state = state
            outs = [emitter.col(k) for k in root.keep]
        else:
            emitter.varmap, emitter.state = root.fusion[0], state
            outs = [emitter.value(e)[0] for e in root.fusion[1]]
    except NotFusible:
        return None

    if len(outs) == 1:
        row_src = f"({outs[0]},)"
    else:
        row_src = "(" + ", ".join(outs) + ")"
    lines = ["def _fused(chunk, ctx):", "    n = chunk.nrows"]
    for phys in sorted(emitter.used):
        lines.append(f"    {emitter.used[phys]} = chunk.column({phys})")
    cond_src = " and ".join(conds)
    lines.append(f"    return [{row_src} for i in _range(n) if {cond_src}]")
    source = "\n".join(lines)
    namespace: dict[str, Any] = {}
    exec(compile(source, "<fused-pipeline>", "exec"), emitter.env, namespace)

    bare = SeqScan(
        scan.table,
        list(scan.output_names),
        columns=list(scan.columns) if scan.columns is not None else None,
    )
    return FusedPipelineNode(bare, root, namespace["_fused"], n_predicates, source)


def fuse_pipelines(plan: PlanNode) -> PlanNode:
    """Fuse every eligible pipeline in the tree (post-order, in place);
    returns the (possibly replaced) root."""
    fused = _try_fuse(plan)
    if fused is not None:
        return fused
    for attr in _CHILD_ATTRS:
        child = getattr(plan, attr, None)
        if isinstance(child, PlanNode):
            setattr(plan, attr, fuse_pipelines(child))
    return plan
