"""Stage 2 of the planner pipeline: selectivity and cardinality estimation.

The :class:`CostModel` turns ANALYZE statistics
(:mod:`repro.planner.stats`) into the numbers the physical stage plans
by: how many rows a filtered scan produces, how large a join output is,
how many groups an aggregation collapses to.  Estimates follow the
classic System-R recipes:

* equality against a constant — the MCV list when the value (or its
  absence) is recorded there, ``1/ndv`` over the non-MCV remainder
  otherwise;
* range predicates — the MCV fractions satisfying the comparison plus
  equi-depth histogram interpolation (numbers, dates *and* strings);
  without a histogram, linear interpolation between ``min``/``max``;
* ``LIKE`` against a constant pattern — a literal prefix becomes a
  range probe over the string histogram; patterns without a usable
  prefix are matched against the MCV values and histogram bounds as a
  sample;
* equi-joins — ``|L|·|R| / max(ndv(L keys), ndv(R keys))`` where each
  side's key NDV is the product of its per-key NDVs clamped by the
  side's current row estimate (the containment assumption, which also
  kills the independence error on composite keys: a table cannot carry
  more distinct key *combinations* than rows);
* grouping — product of group-key NDVs capped by the input cardinality
  (``extract_year``/``month``/``day`` over a dated column use the value
  range — the shape of every TPC-H provenance aggregate).

Join estimation is split in two so that join ordering can afford to
price thousands of candidate joins: :meth:`CostModel.classify_conjuncts`
reads each join conjunct once into a :class:`ConjunctFacts` record, and
:meth:`CostModel.price_join` — the only place a join is estimated or
scored — is arithmetic over those records.

Everything degrades gracefully without statistics: magic-constant
defaults keep the estimates ordinal (selective things look smaller),
so an un-ANALYZEd database still plans correctly, just less sharply.

Column statistics travel with plan slots through joins and subquery
target lists (``_Unit.scope`` in the physical stage), so a provenance
rewrite's re-joined aggregate still knows the NDV of the base column a
group key came from.  The optimizer's annotations feed in here as well:
projection pruning's ``used_attnos`` narrows estimated scan widths, and
aggregation-fusion pairs inherit their shared core's estimate.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Optional

from repro.analyzer import expressions as ex
from repro.catalog.catalog import Catalog
from repro.errors import PermError
from repro.planner.logical import equi_sides
from repro.planner.stats import ColumnStats

# Defaults when no statistics are available (System-R-style constants).
DEFAULT_EQ_SEL = 0.1
DEFAULT_RANGE_SEL = 0.3
DEFAULT_LIKE_SEL = 0.1
DEFAULT_PREFIX_LIKE_SEL = 0.05
DEFAULT_NULL_FRAC = 0.05
DEFAULT_SEL = 0.25
#: NDV guess for group keys without statistics (PostgreSQL's 200).
DEFAULT_GROUP_NDV = 200.0
#: Weight of evaluation work (pairs probed / hashed) against output
#: cardinality when scoring candidate join pairs: output size dominates,
#: but a tiny-output nested loop over huge inputs must still lose to a
#: hash join producing slightly more rows.
WORK_WEIGHT = 0.05

_MIN_SEL = 1e-4

Scope = Optional[dict]  # (varno, varattno) -> ColumnStats | None


def _clamp_sel(value: float) -> float:
    return min(1.0, max(_MIN_SEL, value))


#: Sentinel distinguishing "not a constant" from a constant SQL NULL.
_NO_CONST = object()


def _const_value(expr: ex.Expr) -> Any:
    """The value of a var-free constant expression, or :data:`_NO_CONST`.

    Constant arithmetic can reach the planner unfolded — TPC-H's
    ``DATE '1993-01-01' + INTERVAL '1' MONTH`` window bounds are the
    canonical case — and treating it as opaque cost Q14 a 13× scan
    misestimate.  Anything var-free and sublink-free evaluates with the
    ordinary row compiler against no row at all."""
    if isinstance(expr, ex.Const):
        return expr.value
    if not isinstance(expr, (ex.OpExpr, ex.FuncExpr)):
        return _NO_CONST
    if ex.collect_vars(expr) or ex.contains_sublink(expr):
        return _NO_CONST
    from repro.executor.expr_eval import ExprCompiler

    try:
        return ExprCompiler({}).compile(expr)(None, None)
    except (PermError, ArithmeticError, TypeError, ValueError):
        # The typed ways constant evaluation fails (``1/0``, an unknown
        # function, mismatched operand types): not a usable constant.
        # Anything else is a bug in the compiler and must surface.
        return _NO_CONST


@dataclass(eq=False, slots=True)
class ConjunctFacts:
    """What pricing a join needs to know about one conjunct — everything
    that does not depend on *which* join is being priced.

    Join ordering prices thousands of candidate splits over the same few
    immutable conjuncts, so :meth:`CostModel.classify_conjuncts` reads
    each expression once and :meth:`CostModel.price_join` works from
    these numbers alone.  Operands are bit positions (one per join
    operand of the ordering problem); a mask is a set of them.

    * ``mask`` — the operands the conjunct references; 0 when it has no
      Vars or references something outside the problem (never placeable
      at a join).
    * ``key_a`` / ``key_b`` — for a sublink-free ``a = b`` / ``a <=> b``
      with Vars on both sides, each side's operand mask (both non-zero);
      the conjunct is a hash key of a join exactly when one side lies in
      each input.  0/0 otherwise.
    * ``ndv_a`` / ``ndv_b`` — the column NDV of a key side that is a
      plain column with statistics; None = "as many as the side has
      rows".
    * ``selectivity`` — what the conjunct keeps as a residual filter;
      None for the rewriter's ``ON TRUE`` marker, which prices nothing.
    """

    conjunct: ex.Expr
    mask: int = 0
    key_a: int = 0
    key_b: int = 0
    ndv_a: Optional[float] = None
    ndv_b: Optional[float] = None
    selectivity: Optional[float] = None


def _operand_mask(variables: list[ex.Var], bit_of: dict[int, int]) -> int:
    """Operand bitmask of a Var list; 0 when one lies outside ``bit_of``."""
    mask = 0
    for var in variables:
        bit = bit_of.get(var.varno)
        if bit is None:
            return 0
        mask |= 1 << bit
    return mask


class CostModel:
    """Selectivity/cardinality estimation over ANALYZE statistics."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- scope plumbing -----------------------------------------------------

    @staticmethod
    def _stats_for_var(expr: ex.Expr, scope: Scope) -> Optional[ColumnStats]:
        if (
            scope
            and isinstance(expr, ex.Var)
            and expr.levelsup == 0
        ):
            return scope.get((expr.varno, expr.varattno))
        return None

    # -- predicate selectivity ----------------------------------------------

    def conjunct_selectivity(self, conjunct: ex.Expr, scope: Scope) -> float:
        """Fraction of input rows the predicate keeps (clamped)."""
        return _clamp_sel(self._sel(conjunct, scope or {}))

    def _sel(self, e: ex.Expr, scope: dict) -> float:
        if isinstance(e, ex.Const):
            return 1.0 if e.value is True else _MIN_SEL
        if isinstance(e, ex.BoolOpExpr):
            if e.op == "and":
                sel = 1.0
                for arg in e.args:
                    sel *= self._sel(arg, scope)
                return sel
            if e.op == "or":
                keep_none = 1.0
                for arg in e.args:
                    keep_none *= 1.0 - _clamp_sel(self._sel(arg, scope))
                return 1.0 - keep_none
            return 1.0 - _clamp_sel(self._sel(e.args[0], scope))
        if isinstance(e, ex.NullTest):
            stats = self._stats_for_var(e.arg, scope)
            frac = stats.null_frac if stats is not None else DEFAULT_NULL_FRAC
            return (1.0 - frac) if e.negated else frac
        if isinstance(e, ex.LikeTest):
            if isinstance(e.pattern, ex.Const) and isinstance(e.pattern.value, str):
                stats = self._stats_for_var(e.arg, scope)
                sel = _like_sel(stats, e.pattern.value)
            else:
                sel = DEFAULT_LIKE_SEL
            return (1.0 - sel) if e.negated else sel
        if isinstance(e, ex.InList):
            stats = self._stats_for_var(e.arg, scope)
            if stats is not None and all(
                isinstance(item, ex.Const) for item in e.items
            ):
                sel = min(
                    1.0,
                    sum(_eq_sel(stats, item.value) for item in e.items),
                )
            elif stats is not None and stats.ndv > 0:
                sel = min(1.0, len(e.items) / stats.ndv)
            else:
                sel = min(1.0, DEFAULT_EQ_SEL * len(e.items))
            return (1.0 - sel) if e.negated else sel
        if isinstance(e, ex.OpExpr) and len(e.args) == 2:
            return self._op_sel(e, scope)
        if ex.contains_sublink(e):
            return DEFAULT_SEL
        return DEFAULT_SEL

    def _op_sel(self, e: ex.OpExpr, scope: dict) -> float:
        op = e.op
        left, right = e.args
        left_stats = self._stats_for_var(left, scope)
        right_stats = self._stats_for_var(right, scope)
        if op in ("=", "<=>"):
            if left_stats is not None and right_stats is not None:
                # Column-to-column equality within one relation set.
                return 1.0 / max(left_stats.ndv, right_stats.ndv, 1)
            stats, const = self._var_const(left, right, left_stats, right_stats)
            if stats is not None:
                return _eq_sel(stats, const)
            return DEFAULT_EQ_SEL
        if op in ("<>", "<!=>"):
            eq = self._op_sel(
                ex.OpExpr("=", e.args, e.type), scope
            )
            return 1.0 - _clamp_sel(eq)
        if op in ("<", "<=", ">", ">="):
            stats, const = self._var_const(left, right, left_stats, right_stats)
            if stats is None or const is None:
                return DEFAULT_RANGE_SEL
            # Orient the operator as ``column op constant``.
            if self._stats_for_var(left, scope) is None:
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            sel = _range_sel(stats, const, op)
            if sel is None:
                return DEFAULT_RANGE_SEL
            return sel
        return DEFAULT_SEL

    def range_bound(
        self, e: ex.Expr, scope: Scope
    ) -> Optional[tuple[tuple[int, int], str, float]]:
        """``((varno, attno), 'lo'|'hi', selectivity)`` when ``e`` is a
        one-sided range bound on a plain column against a constant whose
        selectivity the statistics can actually estimate; None otherwise.

        Conjuncts are pushed (and estimated) one at a time, so without
        pairing them up ``col >= lo AND col < hi`` multiplies two large
        marginals instead of measuring the interval — TPC-H's one-month
        windows (Q14's ``l_shipdate`` bounds) came out 13× too big.  The
        caller pairs opposite bounds on the same column and replaces the
        independence product with ``s_lo + s_hi - 1``.
        """
        scope = scope or {}
        if not (isinstance(e, ex.OpExpr) and len(e.args) == 2):
            return None
        op = e.op
        if op not in ("<", "<=", ">", ">="):
            return None
        left, right = e.args
        left_stats = self._stats_for_var(left, scope)
        right_stats = self._stats_for_var(right, scope)
        if (left_stats is None) == (right_stats is None):
            return None
        stats, const = self._var_const(left, right, left_stats, right_stats)
        if stats is None or const is None:
            return None
        if left_stats is None:
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            var = right
        else:
            var = left
        sel = _range_sel(stats, const, op)
        if sel is None:
            return None
        kind = "lo" if op in (">", ">=") else "hi"
        return (var.varno, var.varattno), kind, sel

    @staticmethod
    def combine_range_bounds(lo: float, hi: float) -> float:
        """Interval mass of paired lower/upper bound selectivities."""
        return min(lo, hi, max(lo + hi - 1.0, _MIN_SEL))

    @staticmethod
    def _var_const(
        left: ex.Expr,
        right: ex.Expr,
        left_stats: Optional[ColumnStats],
        right_stats: Optional[ColumnStats],
    ) -> tuple[Optional[ColumnStats], Optional[Any]]:
        """(column stats, constant value) for a var-vs-const comparison."""
        if left_stats is not None:
            value = _const_value(right)
            if value is not _NO_CONST:
                return left_stats, value
        if right_stats is not None:
            value = _const_value(left)
            if value is not _NO_CONST:
                return right_stats, value
        return None, None

    # -- join estimation -----------------------------------------------------

    def classify_conjuncts(
        self, conjuncts: list[ex.Expr], bit_of: dict[int, int], scope: Scope
    ) -> list[ConjunctFacts]:
        """One :class:`ConjunctFacts` per conjunct, in order.

        ``bit_of`` maps range-table indexes to operand bits; ``scope`` is
        the union of the operands' statistics scopes.  Scope keys are
        ``(varno, attno)`` and every operand owns its varnos, so looking
        a column up in the union finds exactly what the operand's own
        scope would — which is why NDVs and residual selectivities do
        not depend on the split and can be read here, once.
        """
        scope = scope or {}
        facts: list[ConjunctFacts] = []
        for conjunct in conjuncts:
            fact = ConjunctFacts(conjunct)
            facts.append(fact)
            if isinstance(conjunct, ex.Const) and conjunct.value is True:
                continue
            sides = equi_sides(conjunct)
            if sides is None:
                fact.mask = _operand_mask(ex.collect_vars(conjunct), bit_of)
            else:
                a, vars_a, b, vars_b = sides
                key_a = _operand_mask(vars_a, bit_of)
                key_b = _operand_mask(vars_b, bit_of)
                if key_a and key_b:
                    fact.mask = key_a | key_b
                    fact.key_a, fact.key_b = key_a, key_b
                    fact.ndv_a = self._column_ndv(a, scope)
                    fact.ndv_b = self._column_ndv(b, scope)
            fact.selectivity = self.conjunct_selectivity(conjunct, scope)
        return facts

    def _column_ndv(self, key: ex.Expr, scope: dict) -> Optional[float]:
        stats = self._stats_for_var(key, scope)
        if stats is not None and stats.ndv > 0:
            return float(stats.ndv)
        return None

    @staticmethod
    def price_join(
        rows_left: float,
        rows_right: float,
        left: int,
        right: int,
        facts: list[ConjunctFacts],
    ) -> tuple[float, float]:
        """``(inner-join output estimate, ordering score)`` of one join.

        The single estimation kernel: ``left`` / ``right`` are the operand
        masks of the two inputs, ``facts`` the conjuncts evaluated at this
        join (each referencing nothing outside ``left | right``).  Plain
        arithmetic over pre-classified facts — no expression is looked at.

        Estimate: ``|L|·|R| / max(ndv(L keys), ndv(R keys))`` times the
        residual selectivities.  Composite keys: multiplying per-key
        selectivities overstates the distinct-combination count; a side
        cannot carry more distinct key tuples than rows, so each side's NDV
        product is clamped by its row estimate (and so is each key's NDV: a
        filtered side cannot carry more distinct keys than rows).

        Score: primarily the estimate; the work term adds the evaluation
        cost (hash: linear in the inputs, conditional nested loop: the full
        cross of pairs) so a cheap-output but quadratically-evaluated
        candidate does not always win.
        """
        la = rows_left if rows_left > 1.0 else 1.0
        lb = rows_right if rows_right > 1.0 else 1.0
        ndv_l = ndv_r = 1.0
        keyed = False
        residual: Optional[list[float]] = None
        for fact in facts:
            key_a, key_b = fact.key_a, fact.key_b
            if key_a and not (key_a & right or key_b & left):
                ndv_left, ndv_right = fact.ndv_a, fact.ndv_b
            elif key_a and not (key_a & left or key_b & right):
                ndv_left, ndv_right = fact.ndv_b, fact.ndv_a
            else:
                # Not a key of this join: no equality at all, or one of
                # its sides spans both inputs.
                if fact.selectivity is not None:
                    if residual is None:
                        residual = []
                    residual.append(fact.selectivity)
                continue
            keyed = True
            if ndv_left is None or ndv_left > la:
                ndv_left = la
            if ndv_right is None or ndv_right > lb:
                ndv_right = lb
            ndv_l *= ndv_left if ndv_left > 1.0 else 1.0
            ndv_r *= ndv_right if ndv_right > 1.0 else 1.0
        sel = 1.0
        if keyed:
            sel = 1.0 / max(min(ndv_l, la), min(ndv_r, lb), 1.0)
        if residual is not None:
            for fraction in residual:
                sel *= fraction
        estimate = max(la * lb * sel, 1.0)
        if keyed:
            work = la + lb
        elif facts:
            work = la * lb
        else:
            work = estimate  # cross product: output built directly
        return estimate, estimate + WORK_WEIGHT * work

    def _price_units(
        self, left, right, conjuncts: list[ex.Expr]
    ) -> tuple[float, float]:
        """:meth:`price_join` for two placed units: the left is operand 0,
        the right operand 1."""
        bit_of = dict.fromkeys(left.rtindexes, 0)
        bit_of.update(dict.fromkeys(right.rtindexes, 1))
        scope = {**(left.scope or {}), **(right.scope or {})}
        return self.price_join(
            getattr(left.plan, "estimate", 1.0),
            getattr(right.plan, "estimate", 1.0),
            1,
            2,
            self.classify_conjuncts(conjuncts, bit_of, scope),
        )

    def join_estimate(
        self, left, right, conjuncts: list[ex.Expr], join_type: str
    ) -> float:
        """Estimated output rows of joining two placed units."""
        inner, _score = self._price_units(left, right, conjuncts)
        la = max(getattr(left.plan, "estimate", 1.0), 1.0)
        lb = max(getattr(right.plan, "estimate", 1.0), 1.0)
        if join_type == "left":
            return max(inner, la)
        if join_type == "right":
            return max(inner, lb)
        if join_type == "full":
            return max(inner, la + lb)
        return inner

    def pair_score(self, left, right, conjuncts: list[ex.Expr]) -> float:
        """Join-ordering score of joining two units next (see
        :meth:`price_join`)."""
        return self._price_units(left, right, conjuncts)[1]

    # -- aggregation estimation ----------------------------------------------

    def group_estimate(
        self, group_clause: list[ex.Expr], scope: Scope, input_rows: float
    ) -> float:
        """Estimated group count of an aggregation."""
        if not group_clause:
            return 1.0
        input_rows = max(input_rows, 1.0)
        ndv = 1.0
        for key in group_clause:
            ndv *= self._group_key_ndv(key, scope or {}, input_rows)
            if ndv >= input_rows:
                return input_rows
        return max(1.0, min(ndv, input_rows))

    def _group_key_ndv(
        self, key: ex.Expr, scope: dict, input_rows: float
    ) -> float:
        stats = self._stats_for_var(key, scope)
        if stats is not None and stats.ndv > 0:
            return float(stats.ndv) + (1.0 if stats.null_frac > 0 else 0.0)
        if isinstance(key, ex.FuncExpr) and key.args:
            arg_stats = self._stats_for_var(key.args[0], scope)
            if key.name == "extract_year":
                span = _year_span(arg_stats)
                if span is not None:
                    return span
            elif key.name == "extract_month":
                return 12.0
            elif key.name == "extract_day":
                return 31.0
        return min(DEFAULT_GROUP_NDV, input_rows)


def _year_span(stats: Optional[ColumnStats]) -> Optional[float]:
    if (
        stats is not None
        and isinstance(stats.min_value, datetime.date)
        and isinstance(stats.max_value, datetime.date)
    ):
        return float(stats.max_value.year - stats.min_value.year + 1)
    return None


def _eq_sel(stats: ColumnStats, value: Any) -> float:
    """Selectivity of ``column = value`` from the MCV list + NDV.

    An MCV hit returns the recorded fraction exactly.  A miss spreads
    the non-NULL, non-MCV row mass uniformly over the remaining distinct
    values — the classic PostgreSQL recipe.
    """
    if stats.mcv:
        for mcv_value, frac in stats.mcv:
            if mcv_value == value:
                return frac
        rest_ndv = stats.ndv - len(stats.mcv)
        if rest_ndv <= 0:
            # Every distinct value is in the MCV list; an absent
            # constant matches (almost) nothing.
            return _MIN_SEL
        rest_frac = max(
            0.0, 1.0 - stats.null_frac - stats.mcv_total_frac()
        )
        return rest_frac / rest_ndv
    if stats.ndv > 0:
        return 1.0 / stats.ndv
    return DEFAULT_EQ_SEL


def _range_sel(stats: ColumnStats, value: Any, op: str) -> Optional[float]:
    """Selectivity of ``column op value`` (op oriented column-first)
    from the MCV list and the equi-depth histogram; None when neither
    the histogram nor min/max interpolation applies to the types."""
    lower = op in ("<", "<=")
    inclusive = op in ("<=", ">=")
    mcv_part = 0.0
    try:
        for mcv_value, frac in stats.mcv:
            if mcv_value == value:
                if inclusive:
                    mcv_part += frac
            elif (mcv_value < value) is lower:
                mcv_part += frac
    except TypeError:
        return None
    if len(stats.histogram) >= 2:
        below = _hist_fraction_below(stats.histogram, value)
        if below is None:
            return None
        part = below if lower else 1.0 - below
        return mcv_part + stats.histogram_frac * part
    fraction = _range_fraction(value, stats.min_value, stats.max_value)
    if fraction is None:
        return None
    rest = max(0.0, 1.0 - stats.null_frac - stats.mcv_total_frac())
    return mcv_part + rest * (fraction if lower else 1.0 - fraction)


def _hist_fraction_below(bounds: tuple, value: Any) -> Optional[float]:
    """Fraction of histogram-covered rows strictly below ``value``:
    complete buckets plus linear interpolation inside the straddling
    bucket (positional 0.5 for strings, which do not interpolate)."""
    try:
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        import bisect

        index = bisect.bisect_right(bounds, value) - 1
    except TypeError:
        return None
    within = _range_fraction(value, bounds[index], bounds[index + 1])
    if within is None:
        within = 0.5
    return (index + within) / (len(bounds) - 1)


def _like_prefix(pattern: str) -> str:
    """The literal prefix of a LIKE pattern (up to the first wildcard),
    with escaped wildcards kept literal."""
    prefix = []
    i = 0
    while i < len(pattern):
        char = pattern[i]
        if char in ("%", "_"):
            break
        if char == "\\" and i + 1 < len(pattern):
            i += 1
            char = pattern[i]
        prefix.append(char)
        i += 1
    return "".join(prefix)


def _like_sel(stats: Optional[ColumnStats], pattern: str) -> float:
    """Selectivity of ``column LIKE 'pattern'`` against a constant.

    With statistics, an anchored pattern becomes a range probe over the
    string histogram: ``prefix <= col < prefix⁺`` (the prefix with its
    last character incremented), multiplied by a residual factor when
    wildcards follow the prefix.  Unanchored patterns are matched
    against the MCV values exactly and against the histogram bounds as
    a small sample.  Without statistics, the old magic constants.
    """
    prefix = _like_prefix(pattern)
    anchored = bool(prefix)
    usable = stats is not None and (stats.mcv or len(stats.histogram) >= 2)
    if not usable:
        return DEFAULT_PREFIX_LIKE_SEL if anchored else DEFAULT_LIKE_SEL
    from repro.executor.expr_eval import _cached_like_regex

    regex = _cached_like_regex(pattern)
    matched = 0.0
    sampled = 0.0
    try:
        for value, frac in stats.mcv:
            sampled += frac
            if isinstance(value, str) and regex.fullmatch(value) is not None:
                matched += frac
    except TypeError:  # pragma: no cover - non-string MCVs
        return DEFAULT_LIKE_SEL
    bounds = stats.histogram
    if len(bounds) >= 2 and stats.histogram_frac > 0.0:
        hist_done = False
        if anchored and all(isinstance(b, str) for b in (bounds[0], bounds[-1])):
            upper = prefix[:-1] + chr(ord(prefix[-1]) + 1)
            below_hi = _hist_fraction_below(bounds, upper)
            below_lo = _hist_fraction_below(bounds, prefix)
            if below_hi is not None and below_lo is not None:
                range_frac = max(0.0, below_hi - below_lo)
                # An exact-prefix pattern ('PROMO%') is the range probe
                # itself; trailing wildcards keep only part of it.
                residual = 1.0 if pattern == prefix + "%" else DEFAULT_SEL
                matched += stats.histogram_frac * range_frac * residual
                hist_done = True
        if not hist_done:
            # No prefix range: treat the bucket bounds as a value
            # sample — the fraction of bounds matching the pattern
            # approximates the fraction of rows matching it.
            hits = sum(
                1
                for b in bounds
                if isinstance(b, str) and regex.fullmatch(b) is not None
            )
            matched += stats.histogram_frac * hits / len(bounds)
        sampled += stats.histogram_frac
    if sampled <= 0.0:
        return DEFAULT_PREFIX_LIKE_SEL if anchored else DEFAULT_LIKE_SEL
    return matched


def _range_fraction(value: Any, lo: Any, hi: Any) -> Optional[float]:
    """Position of ``value`` within ``[lo, hi]`` as a fraction, or None
    when the types do not interpolate (strings, mixed types)."""
    if lo is None or hi is None or value is None:
        return None
    try:
        if isinstance(value, datetime.date) and isinstance(lo, datetime.date):
            span = (hi - lo).days
            offset = (value - lo).days
        elif isinstance(value, (int, float)) and isinstance(lo, (int, float)):
            span = hi - lo
            offset = value - lo
        else:
            return None
    except TypeError:
        return None
    if span <= 0:
        return 0.5
    return min(0.999, max(0.001, offset / span))
