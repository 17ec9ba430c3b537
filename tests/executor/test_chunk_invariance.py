"""Differential suite: results do not depend on the chunk size.

The executor runs every plan batch-at-a-time, so chunk boundaries fall
wherever the scan's ``batch_size`` puts them: between the build and
probe rows of a hash join, across the groups of an aggregation, between
a row and its outer-join partner, inside a LIMIT/OFFSET window.  None
of that may show in a result.  Each plan here is planned once and run
twice — at the batch size the planner chose, and at a tiny one that
cuts the data into many chunks (a single row each, on the small
tables) — and both runs must return the same multiset of rows (float
summation tolerance aside: partial sums regroup across chunks).

Checked over the paper's shop/sales/items examples, the TPC-H SF-tiny
workload (normal, provenance and polynomial forms, planned with and
without ANALYZE statistics), joins on conditions beyond an
equi-key (outer-join null extension across probe chunks), and
hypothesis-generated queries at random chunk sizes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import repro
from repro.executor.context import ExecContext
from repro.executor.nodes import run_plan_rows
from repro.sql.parser import parse_sql
from repro.storage.chunk import DEFAULT_BATCH_SIZE
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query
from repro.tpch.queries import SUPPORTED_QUERIES

from tests.backends.support import assert_same_result
from tests.backends.test_differential import (
    _EXAMPLE_QUERIES,
    _MARKERS,
    _NESTED_LOOP_JOINS,
    _RESIDUAL_JOINS,
    _SETTINGS,
    _example_setup,
    _residual_setup,
    _rows_r,
    _rows_s,
    sql_queries,
)


def assert_chunk_size_invariant(
    db: repro.PermDatabase, sql: str, batch_size: int
) -> tuple[repro.QueryResult, repro.QueryResult]:
    """Run ``sql``'s plan at its own batch size and at ``batch_size``;
    the results must agree.  Returns (planned, tiny) results."""
    (stmt,) = parse_sql(sql)
    query, _ = db._analyze_and_rewrite(stmt)
    plan = db.backend._plan(query)
    results = []
    for size in (plan.batch_size_hint or DEFAULT_BATCH_SIZE, batch_size):
        results.append(
            repro.QueryResult(
                columns=list(plan.output_names),
                rows=run_plan_rows(plan, ExecContext(batch_size=size)),
                annotation_column=query.annotation_column,
            )
        )
    assert_same_result(results[0], results[1], context=f"batch {batch_size}: {sql!r}")
    return results[0], results[1]


# ---------------------------------------------------------------------------
# The paper's examples, one row per chunk
# ---------------------------------------------------------------------------

_CHUNK_EXAMPLES = (
    "SELECT sname FROM sales EXCEPT ALL SELECT sname FROM sales WHERE itemid = 2",
    # An OFFSET that skips whole chunks before slicing into the next one.
    "SELECT sname, itemid FROM sales ORDER BY itemid DESC LIMIT 2 OFFSET 3",
)


@pytest.fixture(scope="module")
def example_db():
    db = repro.connect()
    _example_setup(db)
    return db


@pytest.mark.parametrize("sql", _EXAMPLE_QUERIES + _CHUNK_EXAMPLES)
def test_paper_examples_match(example_db, sql):
    assert_chunk_size_invariant(example_db, sql, batch_size=1)


# ---------------------------------------------------------------------------
# TPC-H SF-tiny: with and without ANALYZE, normal / provenance / polynomial
# ---------------------------------------------------------------------------

# Small and prime: scans split into hundreds of chunks whose boundaries
# fall out of step with every key and group.
_TPCH_BATCH = 61


@pytest.fixture(scope="module", params=[True, False], ids=["cost", "raw"])
def tpch_db(request):
    # "raw" plans from default estimates (no ANALYZE), so its join orders
    # and batch sizes differ from the analyzed ones.
    db = tpch_database(scale_factor=0.001, seed=42)
    if request.param:
        db.execute("ANALYZE")
    return db


@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_tpch_normal_match(tpch_db, number):
    sql = generate_query(number, seed=7)
    assert_chunk_size_invariant(tpch_db, sql, _TPCH_BATCH)


@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_tpch_provenance_match(tpch_db, number):
    sql = generate_query(number, seed=7, provenance=True)
    assert_chunk_size_invariant(tpch_db, sql, _TPCH_BATCH)


#: The polynomial rewrite rejects sublinks (Q11, Q15, Q16).
POLYNOMIAL_QUERIES = tuple(n for n in SUPPORTED_QUERIES if n not in (11, 15, 16))


@pytest.mark.parametrize("number", POLYNOMIAL_QUERIES)
def test_tpch_polynomial_match(tpch_db, number):
    sql = generate_query(number, seed=7, provenance=True).replace(
        "SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1
    )
    planned, tiny = assert_chunk_size_invariant(tpch_db, sql, _TPCH_BATCH)
    # Annotations are canonical N[X] polynomials: exact equality holds.
    assert sorted(map(str, planned.annotations())) == sorted(
        map(str, tiny.annotations())
    )


# ---------------------------------------------------------------------------
# Joins on conditions beyond an equi-key, one row per chunk
# ---------------------------------------------------------------------------
#
# An outer join decides null extension only after every probe chunk has
# had its chance to match: a row matched in one chunk and not in the
# next must come out once, extended or not, never both.


@pytest.fixture(scope="module")
def residual_db():
    db = repro.connect()
    _residual_setup(db)
    return db


@pytest.mark.parametrize("join", _RESIDUAL_JOINS + _NESTED_LOOP_JOINS)
@pytest.mark.parametrize("provenance", ("", "PROVENANCE "), ids=["plain", "prov"])
def test_conditional_join_match(residual_db, join, provenance):
    sql = f"SELECT {provenance}* FROM {join}"
    assert_chunk_size_invariant(residual_db, sql, batch_size=1)


# ---------------------------------------------------------------------------
# Hypothesis: random small databases × random query shapes × chunk sizes
# ---------------------------------------------------------------------------


@given(
    rows_r=_rows_r,
    rows_s=_rows_s,
    sql=sql_queries(),
    semantics=st.sampled_from(sorted(_MARKERS)),
    batch_size=st.integers(min_value=1, max_value=4),
)
@_SETTINGS
def test_random_queries_match_at_any_chunk_size(
    rows_r, rows_s, sql, semantics, batch_size
):
    db = repro.connect()
    db.execute("CREATE TABLE r (k integer, v integer)")
    db.execute("CREATE TABLE s (k2 integer, w integer)")
    db.load_table("r", rows_r)
    db.load_table("s", rows_s)
    statement = sql.replace("SELECT", _MARKERS[semantics], 1)
    try:
        assert_chunk_size_invariant(db, statement, batch_size)
    except repro.RewriteError:
        # The polynomial strategy rejects sublinks.
        assert semantics == "polynomial"
