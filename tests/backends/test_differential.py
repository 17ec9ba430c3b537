"""Differential suite: the Python engine against SQLite.

The property the backend subsystem stands on: for any supported query,
``PythonBackend`` and ``SqliteBackend`` return identical multisets of
rows — including witness-list provenance blocks and polynomial
annotation columns.  SQLite is an engine written by other people, so
this is also the independent reference for the Python executor itself:
the paper's running examples, hypothesis-generated query shapes,
scan→filter→project pipelines sweeping every construct the fused-kernel
emitter inlines, and joins on conditions beyond an equi-key.  Shapes
the SQLite dialect rejects are checked against hand-computed rows
instead.
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
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_MARKERS = {
    "plain": "SELECT",
    "witness": "SELECT PROVENANCE",
    "polynomial": "SELECT PROVENANCE (polynomial)",
}


def _run_both(setup, statement: str) -> tuple[repro.QueryResult, repro.QueryResult]:
    """``statement`` on a python and a sqlite database built by ``setup``."""
    results = []
    for backend in ("python", "sqlite"):
        db = repro.connect(backend=backend)
        setup(db)
        results.append(db.execute(statement))
    return results[0], results[1]


def _assert_exact(reference, candidate, statement: str) -> None:
    # Integer/text/NULL domain and canonical polynomials → exact comparison.
    assert reference.columns == candidate.columns, statement
    assert Counter(reference.rows) == Counter(candidate.rows), statement


# ---------------------------------------------------------------------------
# The paper's shop/sales/items examples
# ---------------------------------------------------------------------------

_EXAMPLE_SETUP = (
    "CREATE TABLE shop (name text, numempl integer)",
    "CREATE TABLE sales (sname text, itemid integer)",
    "CREATE TABLE items (id integer, price integer)",
    "INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)",
    "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
    "('Merdies', 2), ('Joba', 3), ('Joba', 3)",
    "INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)",
)

# The paper's running examples plus shapes exercising every plan node:
# filtered scans, joins (hash + nested loop, outer), aggregation (grand
# and grouped, HAVING), DISTINCT, set operations, sorting, LIMIT/OFFSET,
# sublinks (scalar/EXISTS/IN, correlated), CASE and LIKE.
_EXAMPLE_QUERIES = (
    "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE name, sum(price) FROM shop, sales, items "
    "WHERE name = sname AND itemid = id GROUP BY name",
    "SELECT PROVENANCE name FROM shop WHERE name IN (SELECT sname FROM sales)",
    "SELECT PROVENANCE sname FROM sales UNION SELECT name FROM shop",
    "SELECT PROVENANCE * FROM (SELECT sname AS n, itemid FROM sales "
    "WHERE itemid > 1) AS sub",
    "SELECT PROVENANCE name, (SELECT max(price) FROM items) FROM shop",
    "SELECT PROVENANCE (polynomial) name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE (polynomial) sname, count(*) FROM sales GROUP BY sname",
    "SELECT name, total FROM shop, (SELECT sname, count(*) AS total "
    "FROM sales GROUP BY sname) AS agg WHERE name = sname AND total > 1",
    "SELECT DISTINCT sname FROM sales ORDER BY itemid",
    "SELECT name FROM shop LEFT JOIN sales ON name = sname AND itemid > 2",
    "SELECT sname FROM sales INTERSECT SELECT name FROM shop",
    "SELECT CASE WHEN numempl < 10 THEN 'small' ELSE 'big' END FROM shop",
    "SELECT name FROM shop WHERE name LIKE 'M%'",
    "SELECT name FROM shop WHERE EXISTS "
    "(SELECT 1 FROM sales WHERE sname = name AND itemid = 2)",
    "SELECT sname, itemid FROM sales ORDER BY itemid DESC LIMIT 2 OFFSET 1",
    "SELECT count(*), sum(itemid), min(sname), max(itemid), avg(itemid) FROM sales",
    "SELECT sum(itemid) FROM sales WHERE itemid > 99",
    "SELECT name, (SELECT count(*) FROM sales WHERE sname = name) FROM shop",
)


def _example_setup(db: repro.PermDatabase) -> None:
    for statement in _EXAMPLE_SETUP:
        db.execute(statement)


@pytest.mark.parametrize("sql", _EXAMPLE_QUERIES)
def test_paper_examples_match(sql):
    reference, candidate = _run_both(_example_setup, sql)
    assert_same_result(reference, candidate, context=f"for {sql!r}")


def test_except_all_example_matches_hand_computed_rows():
    # SQLite has only the DISTINCT form of EXCEPT: Merdies sold three
    # times, twice item 2, so one Merdies row survives; both Joba rows do.
    db = repro.connect()
    _example_setup(db)
    result = db.execute(
        "SELECT sname FROM sales EXCEPT ALL SELECT sname FROM sales WHERE itemid = 2"
    )
    assert Counter(result.rows) == Counter(
        [("Merdies",), ("Joba",), ("Joba",)]
    )


# ---------------------------------------------------------------------------
# Hypothesis: random small databases × random query shapes
# ---------------------------------------------------------------------------

_value = st.integers(min_value=0, max_value=3)
_rows_r = st.lists(st.tuples(_value, st.one_of(st.none(), _value)), max_size=6)
_rows_s = st.lists(st.tuples(_value, _value), max_size=6)


@st.composite
def sql_queries(draw) -> str:
    """Random SQL over r(k, v) and s(k2, w) (integer domain → exact)."""
    shape = draw(
        st.sampled_from(
            [
                "spj",
                "join",
                "subquery",
                "agg",
                "setop",
                "setop_subquery",
                "sublink",
                "outer",
                "scalar",
                "distinct",
            ]
        )
    )
    comparison = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]))
    constant = draw(_value)
    if shape == "spj":
        return f"SELECT k, v FROM r WHERE k {comparison} {constant}"
    if shape == "join":
        return f"SELECT k, w FROM r, s WHERE k {comparison} k2"
    if shape == "subquery":
        return (
            "SELECT a, b FROM "
            f"(SELECT k AS a, v AS b FROM r WHERE k {comparison} {constant}) "
            "AS sub WHERE a IS NOT NULL"
        )
    if shape == "agg":
        having = draw(st.sampled_from(["", " HAVING count(*) > 1"]))
        return (
            "SELECT k, sum(v) AS sv, count(*) AS c FROM r "
            f"WHERE k {comparison} {constant} GROUP BY k{having}"
        )
    if shape in ("setop", "setop_subquery"):
        op = draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
        if shape == "setop":
            return f"SELECT k FROM r {op} SELECT k2 FROM s"
        return (
            f"SELECT a FROM (SELECT k AS a FROM r {op} "
            f"SELECT k2 FROM s) AS u WHERE a {comparison} {constant}"
        )
    if shape == "sublink":
        negated = draw(st.sampled_from(["", "NOT "]))
        return (
            "SELECT k FROM r WHERE v IS NOT NULL AND "
            f"k {negated}IN (SELECT k2 FROM s)"
        )
    if shape == "outer":
        return (
            "SELECT k, w FROM r LEFT JOIN "
            f"(SELECT k2 AS j, w FROM s WHERE w {comparison} {constant}) "
            "AS sub ON k = j"
        )
    if shape == "scalar":
        return f"SELECT k FROM r WHERE v {comparison} (SELECT max(w) FROM s)"
    return "SELECT DISTINCT v FROM r ORDER BY v NULLS LAST"


@given(
    rows_r=_rows_r,
    rows_s=_rows_s,
    sql=sql_queries(),
    semantics=st.sampled_from(sorted(_MARKERS)),
)
@_SETTINGS
def test_backends_agree_on_random_queries(rows_r, rows_s, sql, semantics):
    statement = sql.replace("SELECT", _MARKERS[semantics], 1)

    def setup(db):
        db.execute("CREATE TABLE r (k integer, v integer)")
        db.execute("CREATE TABLE s (k2 integer, w integer)")
        db.load_table("r", rows_r)
        db.load_table("s", rows_s)

    try:
        reference, candidate = _run_both(setup, statement)
    except repro.RewriteError:
        # Constructs the polynomial strategy rejects (sublinks) are out
        # of scope for the differential property.
        assert semantics == "polynomial"
        return
    _assert_exact(reference, candidate, statement)


# ---------------------------------------------------------------------------
# Hypothesis: scan→filter→project pipelines (the fused-kernel shapes)
# ---------------------------------------------------------------------------

_pipeline_value = st.one_of(st.none(), st.integers(min_value=-2, max_value=3))
_pipeline_text = st.one_of(st.none(), st.sampled_from(["ab", "ba", "abc", "", "a%b"]))
_pipeline_rows = st.lists(
    st.tuples(_pipeline_value, _pipeline_value, _pipeline_text), max_size=8
)

# Predicate fragments sweeping every construct the fused-kernel emitter
# inlines: 3VL comparisons, AND/OR/NOT nesting, IS NULL, LIKE, IN lists,
# CASE, null-safe comparison, arithmetic, and scalar function calls.
_PREDICATES = (
    "a {cmp} {k}",
    "a {cmp} b",
    "NOT (a {cmp} {k})",
    "a {cmp} {k} AND b IS NOT NULL",
    "a {cmp} {k} OR NOT (b {cmp} 1)",
    "NOT (a {cmp} {k} AND b {cmp} 0)",
    "a IS NULL OR b {cmp} {k}",
    "t LIKE 'a%'",
    "t LIKE '%b' AND a {cmp} {k}",
    "a IN (0, 1, {k})",
    "a NOT IN (1, {k})",
    "a + b {cmp} {k}",
    "a * 2 - b {cmp} {k}",
    "abs(a) {cmp} {k}",
    "CASE WHEN a {cmp} {k} THEN b ELSE a END = 1",
    "a IS NOT DISTINCT FROM b",
    "coalesce(a, b, 0) {cmp} {k}",
)

_TARGETS = (
    "a, b, t",
    "a + b, t",
    "a, -b",
    "CASE WHEN a IS NULL THEN 0 ELSE a END, b",
    "abs(b), length(t)",
    "a IS DISTINCT FROM b, coalesce(t, 'x')",
    "t || '!', b",
)


@st.composite
def pipelines(draw) -> str:
    """A random scan→filter→project statement over r(a, b, t)."""
    predicate = draw(st.sampled_from(_PREDICATES)).format(
        cmp=draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])),
        k=draw(st.integers(min_value=-1, max_value=2)),
    )
    targets = draw(st.sampled_from(_TARGETS))
    provenance = draw(st.sampled_from(["", "PROVENANCE "]))
    return f"SELECT {provenance}{targets} FROM r WHERE {predicate}"


def pipeline_setup(rows):
    def setup(db):
        db.execute("CREATE TABLE r (a integer, b integer, t text)")
        db.load_table("r", rows)

    return setup


@given(rows=_pipeline_rows, sql=pipelines())
@_SETTINGS
def test_backends_agree_on_random_pipelines(rows, sql):
    reference, candidate = _run_both(pipeline_setup(rows), sql)
    _assert_exact(reference, candidate, sql)


# ---------------------------------------------------------------------------
# Outer joins with conditions beyond an equi-key
# ---------------------------------------------------------------------------
#
# Both-side residuals on every outer join type (the hash join's two-phase
# filter-then-reconcile kernel), and conditions with no equi-key at all
# (the nested loop's blocked condition kernel).  NULL join keys and NULL
# operands exercise 3VL verdicts: a NULL verdict must not match, but
# must still null-extend.


def _residual_setup(db: repro.PermDatabase) -> None:
    db.execute("CREATE TABLE l (lk integer, lv integer, lt text)")
    db.execute("CREATE TABLE r (rk integer, rv integer, rt text)")
    db.load_table(
        "l",
        [(1, 10, "ab"), (1, None, "ba"), (2, 5, None), (None, 7, "x"), (3, 0, "y")],
    )
    db.load_table(
        "r",
        [(1, 8, "ab"), (1, 12, None), (2, None, "z"), (None, 1, "w"), (4, 2, "q")],
    )


_RESIDUAL_JOINS = [
    "l LEFT JOIN r ON lk = rk AND lv < rv",
    "l LEFT JOIN r ON lk = rk AND lv + rv > 12",
    "l LEFT JOIN r ON lk = rk AND (lt = rt OR rv IS NULL)",
    "l RIGHT JOIN r ON lk = rk AND lv < rv",
    "l FULL JOIN r ON lk = rk AND lv * 2 <> rv",
    "l FULL JOIN r ON lk = rk AND coalesce(lv, 0) <= coalesce(rv, 0)",
]

_NESTED_LOOP_JOINS = [
    "l LEFT JOIN r ON lv < rv",
    "l RIGHT JOIN r ON lv + rv > 12",
    "l FULL JOIN r ON lt = rt OR rv IS NULL",
    "l JOIN r ON lk < rk",
]


@pytest.mark.parametrize("join", _RESIDUAL_JOINS + _NESTED_LOOP_JOINS)
@pytest.mark.parametrize("provenance", ("", "PROVENANCE "), ids=["plain", "prov"])
def test_conditional_join_match(join, provenance):
    sql = f"SELECT {provenance}* FROM {join}"
    reference, candidate = _run_both(_residual_setup, sql)
    _assert_exact(reference, candidate, sql)


# ---------------------------------------------------------------------------
# Nested set-operation trees on TPC-H SF-tiny
# ---------------------------------------------------------------------------


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
