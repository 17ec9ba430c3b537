"""Concurrent-access stress tests for the shared caches.

An embedder may call one database from many threads at once (its own
threads beside the server's engine thread and morsel workers), so
``Table.columnar()``, the prepared-statement LRU, the PythonBackend
plan cache, and the catalog's (auto-)ANALYZE path all see genuine
multi-threaded access.  These tests hammer each from many
threads and assert no exceptions and no wrong answers.
"""

from __future__ import annotations

import threading

import repro


def _run_all(workers):
    failures = []

    def wrap(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return failures


def test_columnar_cache_under_concurrent_append():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b integer)")
    table = db.catalog.table("t")
    table.insert_many([(i, i % 5) for i in range(5000)])
    stop = threading.Event()

    def writer():
        for i in range(2000):
            table.insert((5000 + i, i % 5))
        stop.set()

    def reader():
        while not stop.is_set():
            columns = table.columnar()
            # Column lists must be rectangular and never longer than the
            # live row count recorded when the cache was built.
            lengths = {len(col) for col in columns}
            assert len(lengths) == 1
            assert lengths.pop() <= table.row_count()

    failures = _run_all([writer] + [reader] * 4)
    assert not failures
    assert table.row_count() == 7000
    assert len(table.columnar()[0]) == 7000


def test_statement_and_plan_caches_under_concurrent_queries():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b integer)")
    db.catalog.table("t").insert_many([(i, i % 7) for i in range(4000)])
    db.execute("ANALYZE")
    queries = [f"SELECT count(*) FROM t WHERE b = {i}" for i in range(7)]
    expected = {sql: db.execute(sql).scalar() for sql in queries}

    def reader():
        for _ in range(15):
            for sql, want in expected.items():
                assert db.execute(sql).scalar() == want

    failures = _run_all([reader] * 6)
    assert not failures
    stats = db.cache_stats()
    assert stats["hits"] > 0
    assert stats["entries"] <= stats["capacity"]


def test_parallel_queries_from_concurrent_threads():
    # Morsel workers and query threads share one global thread pool;
    # concurrent parallel queries must still all be exactly right.
    db = repro.connect(parallel_workers=2)
    db.execute("CREATE TABLE t (a integer, b integer)")
    db.catalog.table("t").insert_many([(i, i % 3) for i in range(12000)])
    db.execute("ANALYZE")
    expected = db.execute("SELECT sum(a) FROM t WHERE b = 1").scalar()

    def reader():
        for _ in range(5):
            got = db.execute("SELECT sum(a) FROM t WHERE b = 1").scalar()
            assert got == expected

    failures = _run_all([reader] * 4)
    assert not failures


def test_auto_analyze_under_concurrent_statements():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.catalog.table("t").insert_many([(i,) for i in range(1000)])
    db.execute("ANALYZE")
    table = db.catalog.table("t")

    def writer():
        for i in range(3000):
            table.insert((i,))

    def reader():
        for _ in range(30):
            assert db.execute("SELECT min(a) FROM t").scalar() == 0

    failures = _run_all([writer, writer] + [reader] * 3)
    assert not failures
    # Growth of 6000 rows over a 1000-row snapshot is far past the
    # threshold: some statement must have refreshed the statistics.
    stats = db.catalog.stats_for("t")
    assert stats is not None and stats.row_count > 1000
