"""Differential property tests: optimized ≡ unoptimized tree.

The optimizer must be semantically invisible.  Each statement runs
through ``db.execute`` (analyze → rewrite → optimize) and, as the
reference, through analyze → rewrite alone, with no optimizer call,
executed by the same backend.  Checked over the paper's
shop/sales/items examples, the TPC-H SF-tiny workload (normal,
provenance, and polynomial-provenance forms) on both execution backends,
and hypothesis-generated queries.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.analyzer.analyzer import Analyzer
from repro.core.rewriter import traverse_query_tree
from repro.errors import BackendUnsupportedError
from repro.sql.parser import parse_statement
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query
from repro.tpch.queries import SUPPORTED_QUERIES

from tests.backends.support import assert_same_result

BACKENDS = ("python", "sqlite")

_EXAMPLE_SETUP = (
    "CREATE TABLE shop (name text, numempl integer)",
    "CREATE TABLE sales (sname text, itemid integer)",
    "CREATE TABLE items (id integer, price integer)",
    "INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)",
    "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
    "('Merdies', 2), ('Joba', 3), ('Joba', 3)",
    "INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)",
)

# The paper's running examples plus shapes exercising every rule.
_EXAMPLE_QUERIES = (
    "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE name, sum(price) FROM shop, sales, items "
    "WHERE name = sname AND itemid = id GROUP BY name",
    "SELECT PROVENANCE name FROM shop WHERE name IN (SELECT sname FROM sales)",
    "SELECT PROVENANCE sname FROM sales UNION SELECT name FROM shop",
    "SELECT PROVENANCE * FROM (SELECT sname AS n, itemid FROM sales "
    "WHERE itemid > 1) AS sub",
    "SELECT PROVENANCE name, (SELECT max(price) FROM items) FROM shop",
    "SELECT name, total FROM shop, (SELECT sname, count(*) AS total "
    "FROM sales GROUP BY sname) AS agg WHERE name = sname AND total > 1",
    "SELECT DISTINCT sname FROM sales ORDER BY itemid",
)


def _unoptimized(db, sql: str) -> repro.QueryResult:
    """The reference: ``sql`` analyzed and provenance-rewritten, never
    optimized, on ``db``'s backend."""
    query = traverse_query_tree(Analyzer(db.catalog).analyze(parse_statement(sql)))
    return db.backend.run_select(query)


def _compare(db, sql, context):
    assert_same_result(_unoptimized(db, sql), db.execute(sql), context=context)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sql", _EXAMPLE_QUERIES)
def test_paper_examples_match(backend, sql):
    db = repro.connect(backend=backend)
    for statement in _EXAMPLE_SETUP:
        db.execute(statement)
    _compare(db, sql, f"{backend}: {sql!r}")


# ---------------------------------------------------------------------------
# TPC-H SF-tiny, both backends, all three query forms
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_dbs():
    databases = {}
    for backend in BACKENDS:
        db = tpch_database(scale_factor=0.001, seed=42)
        if backend != "python":
            db.set_backend(backend)
        databases[backend] = db
    return databases


def _compare_on_off(tpch_dbs, backend, sql, tag):
    db = tpch_dbs[backend]
    try:
        reference = _unoptimized(db, sql)
    except BackendUnsupportedError:
        pytest.skip(f"{tag}: unsupported on {backend}")
    assert_same_result(reference, db.execute(sql), context=tag)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_tpch_normal_match(tpch_dbs, backend, number):
    sql = generate_query(number, seed=7)
    _compare_on_off(tpch_dbs, backend, sql, f"Q{number} normal {backend}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_tpch_provenance_match(tpch_dbs, backend, number):
    sql = generate_query(number, seed=7, provenance=True)
    _compare_on_off(tpch_dbs, backend, sql, f"Q{number} provenance {backend}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("number", (1, 3, 6, 12))
def test_tpch_polynomial_match(tpch_dbs, backend, number):
    sql = generate_query(number, seed=7, provenance=True).replace(
        "SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1
    )
    db = tpch_dbs[backend]
    reference = _unoptimized(db, sql)
    candidate = db.execute(sql)
    assert_same_result(reference, candidate, context=f"Q{number} poly {backend}")
    assert sorted(map(str, reference.annotations())) == sorted(
        map(str, candidate.annotations())
    )


# ---------------------------------------------------------------------------
# Hypothesis: random small databases × random query shapes
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_value = st.integers(min_value=0, max_value=3)
_rows_r = st.lists(st.tuples(_value, st.one_of(st.none(), _value)), max_size=6)
_rows_s = st.lists(st.tuples(_value, _value), max_size=5)


@st.composite
def _queries(draw) -> str:
    shape = draw(
        st.sampled_from(
            [
                "spj", "subquery", "agg", "setop", "sublink", "outer",
                "outer_where", "limit", "null_const", "scalar",
            ]
        )
    )
    comparison = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]))
    constant = draw(_value)
    provenance = draw(st.sampled_from(["", "PROVENANCE "]))
    if shape == "spj":
        return f"SELECT {provenance}k, v FROM r WHERE k {comparison} {constant}"
    if shape == "subquery":
        return (
            f"SELECT {provenance}a, b FROM "
            f"(SELECT k AS a, v AS b FROM r WHERE k {comparison} {constant}) "
            "AS sub WHERE a IS NOT NULL"
        )
    if shape == "agg":
        having = draw(st.sampled_from(["", " HAVING count(*) > 1"]))
        return (
            f"SELECT {provenance}k, sum(v), count(*) FROM r "
            f"WHERE k {comparison} {constant} GROUP BY k{having}"
        )
    if shape == "setop":
        op = draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
        return (
            f"SELECT {provenance}a FROM (SELECT k AS a FROM r {op} "
            f"SELECT k2 FROM s) AS u WHERE a {comparison} {constant}"
        )
    if shape == "sublink":
        negated = draw(st.sampled_from(["", "NOT "]))
        return (
            f"SELECT {provenance}k FROM r WHERE v IS NOT NULL AND "
            f"k {negated}IN (SELECT k2 FROM s)"
        )
    if shape == "outer":
        return (
            f"SELECT {provenance}k, w FROM r LEFT JOIN "
            f"(SELECT k2 AS j, w FROM s WHERE w {comparison} {constant}) "
            "AS sub ON k = j"
        )
    if shape == "outer_where":
        # A filter over the nullable side of a LEFT JOIN also drops the
        # null-extended rows, so it must stay above the join.
        return (
            f"SELECT {provenance}k, w FROM r LEFT JOIN "
            "(SELECT DISTINCT k2 AS j, w FROM s) AS sub ON k = j "
            f"WHERE w {comparison} {constant}"
        )
    if shape == "limit":
        # ``v`` is read only by the subquery's ORDER BY.
        return (
            f"SELECT {provenance}a FROM (SELECT k AS a, v FROM r "
            f"ORDER BY v, k LIMIT {constant}) AS sub"
        )
    if shape == "null_const":
        # Pull-up inlines the NULL placeholder: ``NULL = NULL`` is
        # unknown, not true.
        return (
            f"SELECT {provenance}a FROM (SELECT k AS a, NULL AS b FROM r) "
            f"AS sub WHERE b = NULL OR a {comparison} {constant}"
        )
    return (
        f"SELECT {provenance}k FROM r "
        f"WHERE v {comparison} (SELECT max(w) FROM s)"
    )


_EXAMPLE_R = [(0, None), (1, 1), (2, 3), (3, 2), (1, 0)]
_EXAMPLE_S = [(1, 2), (2, 0), (3, 3)]


@given(rows_r=_rows_r, rows_s=_rows_s, sql=_queries())
@example(
    rows_r=_EXAMPLE_R,
    rows_s=_EXAMPLE_S,
    sql="SELECT PROVENANCE k, w FROM r LEFT JOIN "
    "(SELECT DISTINCT k2 AS j, w FROM s) AS sub ON k = j WHERE w > 1",
)
@example(
    rows_r=_EXAMPLE_R,
    rows_s=_EXAMPLE_S,
    sql="SELECT PROVENANCE a FROM (SELECT k AS a, v FROM r "
    "ORDER BY v, k LIMIT 2) AS sub",
)
@example(
    rows_r=_EXAMPLE_R,
    rows_s=_EXAMPLE_S,
    sql="SELECT PROVENANCE a FROM (SELECT k AS a, NULL AS b FROM r) "
    "AS sub WHERE b = NULL OR a > 1",
)
@_SETTINGS
def test_hypothesis_on_off_equivalence(rows_r, rows_s, sql):
    db = repro.connect()
    db.execute("CREATE TABLE r (k integer, v integer)")
    db.execute("CREATE TABLE s (k2 integer, w integer)")
    db.load_table("r", rows_r)
    db.load_table("s", rows_s)
    _compare(db, sql, sql)
