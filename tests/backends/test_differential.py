"""Hypothesis differential: random SPJ(+provenance) queries, both backends.

The property the backend subsystem stands on: for any supported query,
``PythonBackend`` and ``SqliteBackend`` return identical multisets of
rows — including witness-list provenance blocks and polynomial
annotation columns.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.tpch.dbgen import tpch_database
from repro.workloads import setop_queries

from tests.backends.support import assert_same_result

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_value = st.integers(min_value=0, max_value=3)
_rows_r = st.lists(st.tuples(_value, st.one_of(st.none(), _value)), max_size=6)
_rows_s = st.lists(st.tuples(_value, _value), max_size=6)


def _make_db(backend: str, rows_r, rows_s) -> repro.PermDatabase:
    db = repro.connect(backend=backend)
    db.execute("CREATE TABLE r (k integer, v integer)")
    db.execute("CREATE TABLE s (k2 integer, w integer)")
    db.load_table("r", rows_r)
    db.load_table("s", rows_s)
    return db


@st.composite
def sql_queries(draw) -> str:
    """Random single-block SQL over r and s (integer domain → exact)."""
    shape = draw(st.sampled_from(["spj", "agg", "setop", "sublink", "distinct"]))
    comparison = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]))
    constant = draw(_value)
    if shape == "spj":
        join = draw(st.sampled_from(["", f", s WHERE k {comparison} k2"]))
        if join:
            return f"SELECT k, w FROM r{join}"
        return f"SELECT k, v FROM r WHERE k {comparison} {constant}"
    if shape == "agg":
        having = draw(st.sampled_from(["", " HAVING count(*) > 1"]))
        return f"SELECT k, sum(v) AS sv, count(*) AS c FROM r GROUP BY k{having}"
    if shape == "setop":
        op = draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
        return f"SELECT k FROM r {op} SELECT k2 FROM s"
    if shape == "distinct":
        return f"SELECT DISTINCT v FROM r ORDER BY v NULLS LAST"
    negated = draw(st.sampled_from(["", "NOT "]))
    return (
        f"SELECT k FROM r WHERE v IS NOT NULL AND "
        f"k {negated}IN (SELECT k2 FROM s)"
    )


def _marker(draw_provenance: str) -> str:
    return {
        "plain": "SELECT",
        "witness": "SELECT PROVENANCE",
        "polynomial": "SELECT PROVENANCE (polynomial)",
    }[draw_provenance]


@given(
    rows_r=_rows_r,
    rows_s=_rows_s,
    sql=sql_queries(),
    semantics=st.sampled_from(["plain", "witness", "polynomial"]),
)
@_SETTINGS
def test_backends_agree_on_random_queries(rows_r, rows_s, sql, semantics):
    statement = sql.replace("SELECT", _marker(semantics), 1)
    if semantics == "polynomial":
        try:
            reference = _make_db("python", rows_r, rows_s).execute(statement)
        except repro.RewriteError:
            # Constructs the polynomial strategy rejects (e.g. sublinks)
            # are out of scope for the differential property.
            return
    else:
        reference = _make_db("python", rows_r, rows_s).execute(statement)
    candidate = _make_db("sqlite", rows_r, rows_s).execute(statement)

    assert reference.columns == candidate.columns
    # Integer/NULL domain and canonical polynomials → exact comparison.
    assert Counter(reference.rows) == Counter(candidate.rows), statement


@pytest.fixture(scope="module")
def tpch_backends():
    python_db = tpch_database(scale_factor=0.001, seed=42)
    sqlite_db = tpch_database(scale_factor=0.001, seed=42)
    sqlite_db.set_backend("sqlite")
    return python_db, sqlite_db


@pytest.mark.parametrize("num_sub", (4, 6, 8))
def test_backends_agree_on_nested_setop_trees(tpch_backends, num_sub):
    """Nested set-operation trees keep their grouping in the shipped SQL
    (SQLite evaluates a flat compound select left to right): faithful or
    loud, never different rows."""
    python_db, sqlite_db = tpch_backends
    for sql in setop_queries(num_sub, count=10, max_partkey=200, seed=42):
        reference = python_db.execute(sql)
        try:
            candidate = sqlite_db.execute(sql)
        except repro.BackendUnsupportedError:
            continue
        assert_same_result(reference, candidate, context=f"for {sql!r}")
