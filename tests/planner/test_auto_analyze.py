"""Auto-ANALYZE regression tests.

PR-5 left "statistics lag appends until re-ANALYZE" as a known limit;
the catalog now refreshes previously-collected statistics once a heap
grows past a base + fraction threshold, triggered from the database's
statement entry points before cache keys are computed.
"""

from __future__ import annotations

import pytest

import repro
from repro.catalog.catalog import Catalog
from repro.planner import stats as stats_module


def _grown(db, name, rows):
    db.catalog.table(name).insert_many(rows)


def test_growth_past_threshold_refreshes_stats():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    _grown(db, "t", [(i,) for i in range(1000)])
    db.execute("ANALYZE")
    epoch = db.catalog.stats_epoch
    assert db.catalog.stats_for("t").row_count == 1000

    # 128 + 0.2 * 1000 = 328 new rows due; insert 500.
    _grown(db, "t", [(i,) for i in range(500)])
    db.execute("SELECT count(*) FROM t")
    assert db.catalog.stats_epoch > epoch
    assert db.catalog.stats_for("t").row_count == 1500


def test_growth_below_threshold_keeps_stats():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    _grown(db, "t", [(i,) for i in range(1000)])
    db.execute("ANALYZE")
    epoch = db.catalog.stats_epoch

    _grown(db, "t", [(i,) for i in range(100)])  # below 328
    db.execute("SELECT count(*) FROM t")
    assert db.catalog.stats_epoch == epoch
    assert db.catalog.stats_for("t").row_count == 1000


@pytest.fixture()
def collections(monkeypatch):
    """Counts ``collect_table_stats`` calls (ANALYZE and auto-ANALYZE)."""
    calls = []
    collect = stats_module.collect_table_stats

    def counted(table, sample_rows=None):
        calls.append(table.name)
        return collect(table, sample_rows=sample_rows)

    monkeypatch.setattr(stats_module, "collect_table_stats", counted)
    return calls


def _analyzed(rows):
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b integer)")
    _grown(db, "t", [(i, i % 7) for i in range(rows)])
    db.execute("ANALYZE")
    return db


@pytest.mark.parametrize(
    "dml, updated",
    [("DELETE FROM t WHERE a = 17", 0), ("UPDATE t SET b = 99 WHERE a = 17", 1)],
)
def test_one_row_delete_or_update_keeps_stats(collections, dml, updated):
    # Row removal bumps the heap epoch; the statistics must outlive it,
    # or every DML statement re-scans the table and re-keys every plan.
    db = _analyzed(5000)
    epoch = db.catalog.stats_epoch
    collections.clear()
    db.execute(dml)
    assert db.execute("SELECT count(*) FROM t WHERE b = 99").scalar() == updated
    assert collections == []
    assert db.catalog.stats_epoch == epoch
    assert db.catalog.stats_for("t").row_count == 5000


def test_shrink_past_threshold_refreshes_stats(collections):
    db = _analyzed(5000)
    epoch = db.catalog.stats_epoch
    collections.clear()
    # 128 + 0.2 * 5000 = 1128 rows due; 1127 removed leave the stats be.
    db.execute("DELETE FROM t WHERE a < 1127")
    db.execute("SELECT count(*) FROM t")
    assert collections == []
    db.execute("DELETE FROM t WHERE a = 1127")
    db.execute("SELECT count(*) FROM t")
    assert collections == ["t"]
    assert db.catalog.stats_epoch == epoch + 1
    assert db.catalog.stats_for("t").row_count == 5000 - 1128


def test_truncate_stales_stats_even_at_the_same_row_count(collections):
    db = _analyzed(1000)
    table = db.catalog.table("t")
    table.truncate()
    _grown(db, "t", [(i, 0) for i in range(1000)])
    assert db.catalog.stats_for("t") is None
    collections.clear()
    db.execute("SELECT count(*) FROM t")  # 1000 >= 128 live rows: re-collect
    assert collections == ["t"]
    assert db.catalog.stats_for("t").column("b").ndv == 1


def test_never_analyzed_tables_stay_stats_free():
    # Conservative contract: auto-ANALYZE repairs staleness, it does not
    # opt tables into statistics.
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    _grown(db, "t", [(i,) for i in range(5000)])
    db.execute("SELECT count(*) FROM t")
    assert db.catalog.stats_for("t") is None


def test_auto_analyze_can_be_disabled():
    db = repro.connect(auto_analyze=False)
    db.execute("CREATE TABLE t (a integer)")
    _grown(db, "t", [(i,) for i in range(1000)])
    db.execute("ANALYZE")
    epoch = db.catalog.stats_epoch
    _grown(db, "t", [(i,) for i in range(5000)])
    db.execute("SELECT count(*) FROM t")
    assert db.catalog.stats_epoch == epoch


def test_refresh_invalidates_cached_statements():
    # The refresh bumps stats_epoch before the cache key is computed, so
    # a cached plan built on stale numbers cannot be reused afterwards.
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    _grown(db, "t", [(i,) for i in range(1000)])
    db.execute("ANALYZE")
    sql = "SELECT count(*) FROM t"
    db.execute(sql)
    db.execute(sql)
    hits_before = db.cache_stats()["hits"]
    assert hits_before >= 1
    _grown(db, "t", [(i,) for i in range(500)])
    assert db.execute(sql).scalar() == 1500  # fresh key, fresh plan, right answer
    assert db.cache_stats()["hits"] == hits_before


def test_catalog_maybe_auto_analyze_direct():
    catalog = Catalog()
    refreshed = catalog.maybe_auto_analyze()
    assert refreshed == []  # nothing collected: nothing refreshed
