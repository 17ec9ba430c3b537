"""Differential suite: the python planner ≡ SQLite.

The statistics-driven planner must be semantically invisible: every
query returns the same result multiset (float summation tolerance aside
— different join orders regroup partial sums) whether the python engine
plans it from default estimates (no ANALYZE, ``raw``) or from collected
statistics (``analyzed``), and both equal what SQLite returns for the
deparsed ``q+``.  SQLite shares no planner or executor code with the
python engine, so a dropped join conjunct, a mis-remapped key slot or a
build/probe swap that scrambles columns shows up as a difference.
Checked over the paper's shop/sales/items examples, the TPC-H SF-tiny
workload (normal, provenance and polynomial forms) and
hypothesis-generated databases × query shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query
from repro.tpch.queries import SUPPORTED_QUERIES

from tests.backends.support import assert_same_result

_EXAMPLE_SETUP = (
    "CREATE TABLE shop (name text, numempl integer)",
    "CREATE TABLE sales (sname text, itemid integer)",
    "CREATE TABLE items (id integer, price integer)",
    "INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)",
    "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
    "('Merdies', 2), ('Joba', 3), ('Joba', 3)",
    "INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)",
)

# Shapes exercising every ordering/strategy decision: multi-way joins,
# outer joins with pushable filters, cross-unit OR conditions (the Q7
# pattern), sublinks, aggregation + fusion, set operations, DISTINCT
# with hidden sort columns.
_EXAMPLE_QUERIES = (
    "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE name, sum(price) FROM shop, sales, items "
    "WHERE name = sname AND itemid = id GROUP BY name",
    "SELECT name, price FROM shop, sales, items "
    "WHERE name = sname AND itemid = id AND price > 20",
    "SELECT a.name, b.name FROM shop AS a, shop AS b "
    "WHERE (a.name = 'Merdies' AND b.name = 'Joba') "
    "OR (a.name = 'Joba' AND b.name = 'Merdies')",
    "SELECT PROVENANCE name FROM shop WHERE name IN (SELECT sname FROM sales)",
    "SELECT name FROM shop WHERE numempl < ANY (SELECT itemid FROM sales)",
    "SELECT name FROM shop WHERE numempl > ALL "
    "(SELECT itemid FROM sales WHERE sname = 'Joba')",
    "SELECT PROVENANCE sname FROM sales UNION SELECT name FROM shop",
    "SELECT PROVENANCE name, (SELECT max(price) FROM items) FROM shop",
    "SELECT PROVENANCE (polynomial) sname, count(*) FROM sales GROUP BY sname",
    "SELECT name, total FROM shop, (SELECT sname, count(*) AS total "
    "FROM sales GROUP BY sname) AS agg WHERE name = sname AND total > 1",
    "SELECT DISTINCT sname FROM sales ORDER BY itemid",
    "SELECT name FROM shop LEFT JOIN sales ON name = sname AND itemid > 2",
    "SELECT name, id FROM shop LEFT JOIN sales ON name = sname "
    "LEFT JOIN items ON itemid = id WHERE numempl < 10",
    "SELECT sname FROM sales EXCEPT ALL SELECT sname FROM sales WHERE itemid = 2",
    "SELECT sname, itemid FROM sales ORDER BY itemid DESC LIMIT 2 OFFSET 1",
    "SELECT name, (SELECT count(*) FROM sales WHERE sname = name) FROM shop",
)


#: SQLite is faithful or loud: it has no quantified comparison besides
#: ``= ANY``/``<> ALL`` and no EXCEPT ALL.  These examples are checked
#: against an equivalent statement it does run (exact on this data,
#: whose compared columns hold no NULLs).
_SQLITE_FORMS = {
    "SELECT name FROM shop WHERE numempl < ANY (SELECT itemid FROM sales)":
    "SELECT name FROM shop WHERE EXISTS "
    "(SELECT itemid FROM sales WHERE numempl < itemid)",
    "SELECT name FROM shop WHERE numempl > ALL "
    "(SELECT itemid FROM sales WHERE sname = 'Joba')":
    "SELECT name FROM shop WHERE NOT EXISTS "
    "(SELECT itemid FROM sales WHERE sname = 'Joba' AND numempl <= itemid)",
    "SELECT sname FROM sales EXCEPT ALL SELECT sname FROM sales WHERE itemid = 2":
    "SELECT sname FROM sales WHERE itemid <> 2",
}


def _example_db(backend: str, analyze: bool) -> repro.PermDatabase:
    db = repro.connect(backend=backend)
    for statement in _EXAMPLE_SETUP:
        db.execute(statement)
    if analyze:
        db.analyze()
    return db


@pytest.mark.parametrize("analyze", (False, True), ids=("raw", "analyzed"))
@pytest.mark.parametrize("sql", _EXAMPLE_QUERIES)
def test_paper_examples_match(sql, analyze):
    reference = _example_db("sqlite", analyze=False).execute(
        _SQLITE_FORMS.get(sql, sql)
    )
    candidate = _example_db("python", analyze=analyze).execute(sql)
    assert_same_result(reference, candidate, context=f"python vs sqlite: {sql!r}")


# ---------------------------------------------------------------------------
# TPC-H SF-tiny: normal, provenance, and polynomial forms
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_dbs():
    databases = {}
    for name in ("raw", "analyzed", "sqlite"):
        db = tpch_database(scale_factor=0.001, seed=42)
        if name == "analyzed":
            db.analyze()
        if name == "sqlite":
            db.set_backend("sqlite")
        databases[name] = db
    return databases


def _compare(tpch_dbs, stats, sql, tag):
    reference = tpch_dbs["sqlite"].execute(sql)
    candidate = tpch_dbs[stats].execute(sql)
    assert_same_result(reference, candidate, context=f"{tag} [python {stats}]")
    return reference, candidate


@pytest.mark.parametrize("stats", ("raw", "analyzed"))
@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_tpch_normal_match(tpch_dbs, stats, number):
    sql = generate_query(number, seed=7)
    _compare(tpch_dbs, stats, sql, f"Q{number} normal")


@pytest.mark.parametrize("stats", ("raw", "analyzed"))
@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_tpch_provenance_match(tpch_dbs, stats, number):
    sql = generate_query(number, seed=7, provenance=True)
    _compare(tpch_dbs, stats, sql, f"Q{number} provenance")


@pytest.mark.parametrize("stats", ("raw", "analyzed"))
@pytest.mark.parametrize("number", (1, 3, 6, 12))
def test_tpch_polynomial_match(tpch_dbs, stats, number):
    sql = generate_query(number, seed=7, provenance=True).replace(
        "SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1
    )
    reference, candidate = _compare(tpch_dbs, stats, sql, f"Q{number} polynomial")
    # Annotations are canonical N[X] polynomials: exact equality holds.
    assert sorted(map(str, reference.annotations())) == sorted(
        map(str, candidate.annotations())
    )


def test_analyze_does_not_change_results(tpch_dbs):
    """Fresh statistics may change the plan, never the result."""
    db = tpch_dbs["analyzed"]
    sql = generate_query(9, seed=7, provenance=True)
    before = db.execute(sql)
    db.analyze()
    after = db.execute(sql)
    assert_same_result(before, after, context="re-ANALYZE Q9")


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


#: The provenance of ``r`` joined with the sublink tuples of ``s`` (the
#: columns ``SELECT PROVENANCE k FROM r WHERE ...`` returns).
_PROVENANCE_COLUMNS = (
    "r.k AS k, r.k AS prov_r_k, r.v AS prov_r_v, "
    "s.k2 AS prov_s_k2, s.w AS prov_s_w"
)


#: One column kept from a six-column join: the planner pushes the
#: projection below the top hash join and remaps its key slots (late
#: materialization).
_WIDE = (
    "SELECT {provenance}a.k FROM r AS a, s AS b, r AS c "
    "WHERE a.k = b.k2 AND b.w = c.k AND a.v {comparison} {constant} "
    "AND c.v IS NOT NULL"
)


@st.composite
def _queries(draw) -> tuple[str, str]:
    """A statement and the equivalent statement SQLite runs."""
    shape = draw(
        st.sampled_from(
            [
                "join3",
                "wide",
                "subquery",
                "agg",
                "setop",
                "sublink",
                "outer",
                "any_all",
            ]
        )
    )
    comparison = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]))
    constant = draw(_value)
    provenance = draw(st.sampled_from(["", "PROVENANCE "]))
    if shape == "any_all":
        return _quantified(comparison, draw(st.sampled_from(["ANY", "ALL"])), provenance)
    if shape == "join3":
        sql = (
            f"SELECT {provenance}a.k, b.k2, c.k FROM r AS a, s AS b, r AS c "
            f"WHERE a.k = b.k2 AND b.k2 = c.k AND a.v {comparison} {constant}"
        )
    elif shape == "wide":
        sql = _WIDE.format(
            provenance=provenance, comparison=comparison, constant=constant
        )
    elif shape == "subquery":
        sql = (
            f"SELECT {provenance}a, b FROM "
            f"(SELECT k AS a, v AS b FROM r WHERE k {comparison} {constant}) "
            "AS sub WHERE a IS NOT NULL"
        )
    elif shape == "agg":
        having = draw(st.sampled_from(["", " HAVING count(*) > 1"]))
        sql = (
            f"SELECT {provenance}k, sum(v), count(*) FROM r "
            f"WHERE k {comparison} {constant} GROUP BY k{having}"
        )
    elif shape == "setop":
        op = draw(st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]))
        sql = (
            f"SELECT {provenance}a FROM (SELECT k AS a FROM r {op} "
            f"SELECT k2 FROM s) AS u WHERE a {comparison} {constant}"
        )
    elif shape == "sublink":
        negated = draw(st.sampled_from(["", "NOT "]))
        sql = (
            f"SELECT {provenance}k FROM r WHERE v IS NOT NULL AND "
            f"k {negated}IN (SELECT k2 FROM s)"
        )
    else:
        sql = (
            f"SELECT {provenance}k, w FROM r LEFT JOIN "
            f"(SELECT k2 AS j, w FROM s WHERE w {comparison} {constant}) "
            "AS sub ON k = j"
        )
    return sql, sql


def _quantified(comparison: str, quantifier: str, provenance: str) -> tuple[str, str]:
    """``v <op> ANY|ALL (SELECT w FROM s)`` and its SQLite form.

    SQLite runs only ``= ANY`` and ``<> ALL``; the rest become EXISTS
    tests (``s.w`` is never NULL, so only ``r.v`` can make a comparison
    unknown).  With provenance, the SQLite form spells out the witness
    the paper defines: the ``s`` tuples satisfying the comparison for
    ANY, every ``s`` tuple (NULLs when ``s`` is empty) for ALL.
    """
    sql = (
        f"SELECT {provenance}k FROM r "
        f"WHERE v {comparison} {quantifier} (SELECT w FROM s)"
    )
    if (comparison, quantifier) in (("=", "ANY"), ("<>", "ALL")):
        return sql, sql
    if quantifier == "ANY":
        if provenance:
            return sql, (
                f"SELECT {_PROVENANCE_COLUMNS} FROM r JOIN s ON r.v {comparison} s.w"
            )
        return sql, (
            f"SELECT k FROM r WHERE EXISTS (SELECT w FROM s WHERE v {comparison} w)"
        )
    holds = (
        "NOT EXISTS (SELECT w FROM s AS t "
        f"WHERE r.v IS NULL OR NOT (r.v {comparison} t.w))"
    )
    if provenance:
        return sql, f"SELECT {_PROVENANCE_COLUMNS} FROM r LEFT JOIN s ON TRUE WHERE {holds}"
    return sql, f"SELECT k FROM r WHERE {holds}"


@given(rows_r=_rows_r, rows_s=_rows_s, statement=_queries(), analyze=st.booleans())
@example(
    rows_r=[(0, 1), (1, 2), (2, 3), (3, None), (1, 0)],
    rows_s=[(0, 1), (1, 2), (2, 0), (3, 3), (1, 3)],
    statement=(_WIDE.format(provenance="", comparison="<", constant=3),) * 2,
    analyze=True,
)
@_SETTINGS
def test_hypothesis_planner_matches_sqlite(rows_r, rows_s, statement, analyze):
    sql, sqlite_sql = statement
    results = []
    for backend, text in (("sqlite", sqlite_sql), ("python", sql)):
        db = repro.connect(backend=backend)
        db.execute("CREATE TABLE r (k integer, v integer)")
        db.execute("CREATE TABLE s (k2 integer, w integer)")
        db.load_table("r", rows_r)
        db.load_table("s", rows_s)
        if backend == "python" and analyze:
            db.analyze()
        results.append(db.execute(text))
    assert_same_result(results[0], results[1], context=sql)
