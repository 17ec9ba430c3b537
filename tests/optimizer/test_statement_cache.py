"""Prepared-statement cache tests (LRU keyed on text/backend/epoch)."""

from __future__ import annotations

import pytest

import repro


@pytest.fixture
def db():
    database = repro.connect()
    database.execute("CREATE TABLE t (a integer, b integer)")
    database.load_table("t", [(1, 10), (2, 20)])
    return database


def test_repeated_select_hits_cache(db):
    first = db.execute("SELECT a FROM t WHERE b > 5")
    stats = db.cache_stats()
    assert stats["hits"] == 0 and stats["entries"] == 1
    second = db.execute("SELECT a FROM t WHERE b > 5")
    assert db.cache_stats()["hits"] == 1
    assert first.rows == second.rows


def test_cached_plan_sees_new_rows(db):
    assert len(db.execute("SELECT a FROM t")) == 2
    db.execute("INSERT INTO t VALUES (3, 30)")
    # DML does not invalidate (plans are data-independent); the cached
    # tree re-executes against the live heap.
    assert len(db.execute("SELECT a FROM t")) == 3
    assert db.cache_stats()["hits"] >= 1


def test_ddl_bumps_epoch_and_misses(db):
    db.execute("SELECT a FROM t")
    db.execute("SELECT a FROM t")
    hits = db.cache_stats()["hits"]
    db.execute("CREATE TABLE other (x integer)")
    db.execute("SELECT a FROM t")  # new catalog epoch -> fresh compile
    assert db.cache_stats()["hits"] == hits


def test_drop_and_recreate_changes_schema(db):
    assert db.execute("SELECT a, b FROM t").columns == ["a", "b"]
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (a text)")
    db.execute("INSERT INTO t VALUES ('x')")
    result = db.execute("SELECT a FROM t")
    assert result.rows == [("x",)]


def test_provenance_cached_separately(db):
    plain = db.provenance("SELECT a FROM t")
    again = db.provenance("SELECT a FROM t")
    assert plain.columns == again.columns
    assert db.cache_stats()["hits"] == 1
    poly = db.provenance("SELECT a FROM t", semantics="polynomial")
    assert poly.columns != plain.columns  # different key, no false hit


def test_backend_switch_changes_key(db):
    db.execute("SELECT a FROM t")
    db.set_backend("sqlite")
    result = db.execute("SELECT a FROM t")  # must not reuse python tree
    assert sorted(result.rows) == [(1,), (2,)]
    db.set_backend("python")


def test_cache_disabled(db):
    nocache = repro.PermDatabase(statement_cache_size=0)
    nocache.execute("CREATE TABLE t (a integer)")
    nocache.execute("INSERT INTO t VALUES (1)")
    nocache.execute("SELECT a FROM t")
    nocache.execute("SELECT a FROM t")
    stats = nocache.cache_stats()
    assert stats["hits"] == 0 and stats["entries"] == 0


def test_lru_eviction():
    db = repro.PermDatabase(statement_cache_size=2)
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("SELECT a FROM t")            # entry 1
    db.execute("SELECT a + 1 FROM t")        # entry 2
    db.execute("SELECT a + 2 FROM t")        # evicts entry 1
    assert db.cache_stats()["entries"] == 2
    db.execute("SELECT a FROM t")            # miss again
    assert db.cache_stats()["hits"] == 0


def test_select_into_not_cached(db):
    db.execute("SELECT a INTO copy1 FROM t")
    assert db.cache_stats()["entries"] == 0
    # Re-running must fail on the existing table, not replay a cache hit.
    from repro.errors import CatalogError

    with pytest.raises(CatalogError):
        db.execute("SELECT a INTO copy1 FROM t")


def test_view_read_through_execute_runs_no_frontend(db, compile_counter):
    db.execute(
        "CREATE MATERIALIZED PROVENANCE VIEW v AS SELECT PROVENANCE a FROM t"
    )
    compiles = compile_counter(db)
    hits = db.cache_stats()["hits"]
    first = db.execute("SELECT PROVENANCE a FROM t")  # miss: entry cached
    db.execute("INSERT INTO t VALUES (3, 30)")  # the view maintains itself
    second = db.execute("SELECT PROVENANCE a FROM t")  # hit
    assert db.cache_stats()["hits"] == hits + 1
    assert sorted(first.rows) == [(1, 1, 10), (2, 2, 20)]
    assert sorted(second.rows) == [(1, 1, 10), (2, 2, 20), (3, 3, 30)]
    assert db.catalog.matview("v").served_reads == 2
    assert compiles == []
