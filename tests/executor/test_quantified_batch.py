"""The hashed-probe batch kernels for uncorrelated ANY/ALL sublinks.

Every 3VL edge case is pinned against a direct transcription of the SQL
definition (:func:`_quantified`): NULL test values, NULLs among the
subquery values, empty subqueries, and all six operators in both
quantifiers.  (SQLite has no ANY/ALL, so it cannot serve as the
reference here.)
"""

from __future__ import annotations

import operator

import pytest

import repro

_X = (0, 1, 2, 3, None)

_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _quantified(x, op: str, quantifier: str, values) -> object:
    """``x op ANY|ALL (values)`` in SQL three-valued logic."""
    verdicts = [
        None if x is None or y is None else _OPS[op](x, y) for y in values
    ]
    if quantifier == "ANY":
        if True in verdicts:
            return True
        return None if None in verdicts else False
    if False in verdicts:
        return False
    return None if None in verdicts else True


def _db(values) -> repro.PermDatabase:
    db = repro.connect()
    db.execute("CREATE TABLE t (x integer)")
    db.execute("CREATE TABLE sub (y integer)")
    db.load_table("t", [(x,) for x in _X])
    db.load_table("sub", [(v,) for v in values])
    return db


_SUBQUERY_VALUES = (
    (),
    (1,),
    (1, 2),
    (1, None),
    (None,),
    (1, 1, 3),
)

#: (predicate, operator, quantifier): IN is ``= ANY``, NOT IN ``<> ALL``.
_PREDICATES = tuple(
    (f"x {op} {quantifier} (SELECT y FROM sub)", op, quantifier)
    for op in _OPS
    for quantifier in ("ANY", "ALL")
) + (
    ("x IN (SELECT y FROM sub)", "=", "ANY"),
    ("x NOT IN (SELECT y FROM sub)", "<>", "ALL"),
)


@pytest.mark.parametrize("values", _SUBQUERY_VALUES, ids=repr)
@pytest.mark.parametrize("predicate", _PREDICATES, ids=lambda p: p[0])
def test_batch_matches_3vl_reference(values, predicate):
    sql, op, quantifier = predicate
    rows = _db(values).execute(f"SELECT x FROM t WHERE {sql}").rows
    expected = [(x,) for x in _X if _quantified(x, op, quantifier, values) is True]
    assert sorted(map(repr, rows)) == sorted(map(repr, expected)), f"{sql} over {values}"


@pytest.mark.parametrize("values", _SUBQUERY_VALUES, ids=repr)
def test_negated_quantifier_matches(values):
    # NOT over the kernel's None results must keep 3VL (None stays None).
    sql = "SELECT x FROM t WHERE NOT (x = ANY (SELECT y FROM sub))"
    rows = _db(values).execute(sql).rows
    expected = [(x,) for x in _X if _quantified(x, "=", "ANY", values) is False]
    assert sorted(map(repr, rows)) == sorted(map(repr, expected))


def test_projection_position_sees_null_verdicts():
    # In the select list the 3VL verdict itself is visible (not just its
    # filtering effect), so None/True/False must match exactly.
    for values in _SUBQUERY_VALUES:
        sql = "SELECT x, x > ALL (SELECT y FROM sub) FROM t"
        rows = _db(values).execute(sql).rows
        expected = [(x, _quantified(x, ">", "ALL", values)) for x in _X]
        assert sorted(map(repr, rows)) == sorted(map(repr, expected)), f"values={values}"


def test_subquery_evaluates_once_per_execution():
    db = _db((1, 2))
    result = db.execute("SELECT count(*) FROM t WHERE x = ANY (SELECT y FROM sub)")
    assert result.scalar() == 2
    # Mutating the subquery table between executions is visible (the
    # digest lives in the per-execution context, not the plan).
    db.execute("INSERT INTO sub VALUES (3)")
    result = db.execute("SELECT count(*) FROM t WHERE x = ANY (SELECT y FROM sub)")
    assert result.scalar() == 3
