"""TPC-H differential: PythonBackend vs. SqliteBackend (acceptance gate).

Every tier-1 workload query the SQLite dialect supports must return
row-for-row identical results (as multisets, float summation tolerance
aside) on both backends — normal *and* ``SELECT PROVENANCE`` forms.
Constructs the dialect cannot translate must raise
``BackendUnsupportedError``; at the current SQLite version the whole
supported workload translates.
"""

from __future__ import annotations

import pytest

from repro.errors import BackendUnsupportedError
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query
from repro.tpch.queries import ALL_QUERIES, SUPPORTED_QUERIES

from tests.backends.support import assert_same_result


@pytest.fixture(scope="module")
def python_db():
    return tpch_database(scale_factor=0.001, seed=42)


@pytest.fixture(scope="module")
def sqlite_db():
    db = tpch_database(scale_factor=0.001, seed=42)
    db.set_backend("sqlite")
    return db


def _compare(python_db, sqlite_db, sql: str, tag: str) -> None:
    reference = python_db.execute(sql)
    try:
        candidate = sqlite_db.execute(sql)
    except BackendUnsupportedError as exc:
        # Allowed outcome: loud rejection naming the feature — but it must
        # really name one, and (at SQLite >= 3.39) the supported workload
        # translates fully, so rejections here mean a dialect regression.
        pytest.fail(f"{tag} unexpectedly unsupported: {exc}")
    assert_same_result(reference, candidate, context=tag)


@pytest.mark.parametrize("number", ALL_QUERIES)
def test_normal_queries_match(python_db, sqlite_db, number):
    sql = generate_query(number, seed=2)
    _compare(python_db, sqlite_db, sql, f"Q{number}")


@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
def test_provenance_queries_match(python_db, sqlite_db, number):
    sql = generate_query(number, seed=2, provenance=True)
    _compare(python_db, sqlite_db, sql, f"Q{number} PROVENANCE")


#: The polynomial rewrite rejects sublinks (Q11, Q15, Q16).
POLYNOMIAL_QUERIES = tuple(n for n in SUPPORTED_QUERIES if n not in (11, 15, 16))


def _polynomial_sql(number: int) -> str:
    return generate_query(number, seed=2, provenance=True).replace(
        "SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1
    )


@pytest.mark.parametrize("number", POLYNOMIAL_QUERIES)
def test_polynomial_queries_match(python_db, sqlite_db, number):
    sql = _polynomial_sql(number)
    reference = python_db.execute(sql)
    candidate = sqlite_db.execute(sql)
    assert_same_result(reference, candidate, context=f"Q{number} polynomial")
    assert sorted(map(str, reference.annotations())) == sorted(
        map(str, candidate.annotations())
    )


@pytest.mark.parametrize("form", ("normal", "witness", "polynomial"))
def test_q19_join_key_reaches_sqlite(sqlite_db, form):
    # Q19 repeats p_partkey = l_partkey inside each of its OR arms; unless
    # the optimizer hoists it, SQLite sees no join key and nested-loops
    # part against lineitem (a bare SCAN of one right after the other).
    sql = {
        "normal": generate_query(19, seed=2),
        "witness": generate_query(19, seed=2, provenance=True),
        "polynomial": _polynomial_sql(19),
    }[form]
    text = sqlite_db.rewritten_sql(sql, dialect="sqlite")
    backend = sqlite_db.backend
    backend.sync_tables(["lineitem", "part"])
    plan = [row[-1] for row in backend._con.execute("EXPLAIN QUERY PLAN " + text)]
    assert any(step.startswith("SEARCH part") for step in plan), plan
    for first, second in zip(plan, plan[1:]):
        assert {first, second} != {"SCAN lineitem", "SCAN part"}, plan


def test_q15_returns_its_row_in_every_configuration():
    # Q15 keeps the supplier whose revenue sum equals the max over the
    # same view; a configuration that sums the outer copy in another
    # order than the sublink's loses the row (morsel-parallel execution
    # did, normal and witness).  SF 0.01 ANALYZEd is the benchmark's
    # configuration, large enough that the old exchange was planned.
    from repro.sharding.backend import ShardedBackend

    db = tpch_database(scale_factor=0.01, seed=42)
    db.execute("ANALYZE")
    statements = [generate_query(15, seed=42, provenance=p) for p in (False, True)]
    reference = [db.execute(sql) for sql in statements]
    assert len(reference[0].rows) == 1
    assert len(reference[1].rows) > 1
    for backend in ("sqlite", lambda catalog: ShardedBackend(catalog, shards=2)):
        db.set_backend(backend)
        for sql, expected in zip(statements, reference):
            assert_same_result(expected, db.execute(sql), context=db.backend_name)
