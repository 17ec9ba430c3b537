"""Materialized provenance views behind PermServer: served reads match
direct execution, concurrent writers trigger maintenance instead of
wrong answers, and reads admitted under a snapshot invalidated by
DELETE fail with the typed ``snapshot_invalid`` error."""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

import repro
from repro.server import PermClient, ServerError, start_in_thread


CREATE = (
    "CREATE MATERIALIZED PROVENANCE VIEW sales_prov AS "
    "SELECT PROVENANCE sname, itemid FROM sales"
)
READ = "SELECT PROVENANCE sname, itemid FROM sales"


@pytest.fixture
def served_db():
    db = repro.connect()
    db.execute("CREATE TABLE sales (sname text, itemid integer)")
    db.execute("INSERT INTO sales VALUES ('Merdies', 1), ('Joba', 3)")
    handle = start_in_thread(db, request_timeout=30.0)
    yield db, handle
    handle.stop()


def test_view_read_through_server_matches_direct(served_db):
    db, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        client.query(CREATE)
        view = db.catalog.matview("sales_prov")
        served = client.query(READ)
        direct = db.execute(READ)
        assert Counter(served.rows) == Counter(direct.rows)
        assert view.served_reads >= 1
        # A write through the server stales the view; the next served
        # read reflects it via incremental maintenance.
        client.query("INSERT INTO sales VALUES ('Pop', 2)")
        after = client.query(READ)
        assert ("Pop", 2, "Pop", 2) in [tuple(r) for r in after.rows]
        assert view.incremental_refreshes >= 1


def test_polynomial_view_survives_the_wire(served_db):
    db, handle = served_db
    host, port = handle.address
    body = "SELECT PROVENANCE (polynomial) sname FROM sales"
    with PermClient(host, port) as client:
        client.query(
            f"CREATE MATERIALIZED PROVENANCE VIEW poly_v AS {body}"
        )
        served = client.query(body)
        direct = db.execute(body)
        assert served.annotation_column == direct.annotation_column
        served_wire = sorted(
            (row[0], row[-1].to_wire()) for row in served.rows
        )
        direct_wire = sorted(
            (row[0], row[-1].to_wire()) for row in direct.rows
        )
        assert served_wire == direct_wire
        assert db.catalog.matview("poly_v").served_reads >= 1


def test_concurrent_inserts_and_view_reads(served_db):
    db, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        client.query(CREATE)
    view = db.catalog.matview("sales_prov")
    failures = []

    def writer(i):
        try:
            with PermClient(host, port) as client:
                for j in range(10):
                    client.query(
                        f"INSERT INTO sales VALUES ('w{i}', {j})"
                    )
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)

    def reader():
        try:
            with PermClient(host, port) as client:
                for _ in range(10):
                    result = client.query(READ)
                    # Every annotated row witnesses itself: the stored
                    # answer is internally consistent at all times.
                    for row in result.rows:
                        assert tuple(row[:2]) == tuple(row[2:])
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures
    # Once the dust settles the view serves exactly what re-execution
    # would return, and maintenance (not staleness) got us there.
    with PermClient(host, port) as client:
        served = client.query(READ)
    db.execute("DROP MATERIALIZED PROVENANCE VIEW sales_prov")
    direct = db.execute(READ)
    assert Counter(tuple(r) for r in served.rows) == Counter(direct.rows)
    assert view.incremental_refreshes + view.full_refreshes >= 2


def test_delete_invalidates_inflight_view_read_with_typed_error():
    # A read admitted before a DELETE runs under the old snapshot.  The
    # delay below holds the read on the engine thread between snapshot
    # capture and execution — exactly the window a slow scheduler or a
    # long queue creates — while the DELETE bumps the base epoch.  The
    # stale view cannot serve that snapshot and the fallback execution
    # must fail with the typed snapshot_invalid error, never a wrong or
    # partial answer.
    db = repro.connect()
    db.execute("CREATE TABLE sales (sname text, itemid integer)")
    db.execute("INSERT INTO sales VALUES ('Merdies', 1), ('Joba', 3)")
    db.execute(CREATE)
    handle = start_in_thread(db)
    host, port = handle.address
    real_run = db.run_compiled
    started, deleted = threading.Event(), threading.Event()

    def delayed_run(query, **kwargs):
        if kwargs.get("snapshot") is not None:
            started.set()
            deleted.wait(timeout=30)
        return real_run(query, **kwargs)

    db.run_compiled = delayed_run
    try:
        outcome = {}

        def reader():
            with PermClient(host, port) as client:
                try:
                    outcome["rows"] = client.query(READ).rows
                except ServerError as exc:
                    outcome["error"] = exc

        thread = threading.Thread(target=reader)
        thread.start()
        assert started.wait(timeout=30)
        db.execute("DELETE FROM sales WHERE sname = 'Joba'")
        deleted.set()
        thread.join(timeout=60)
        assert "error" in outcome, outcome
        assert outcome["error"].kind == "snapshot_invalid"
        assert "snapshot too old" in str(outcome["error"])
        # A fresh request succeeds: new snapshot, maintained view.
        db.run_compiled = real_run
        with PermClient(host, port) as client:
            rows = [tuple(r) for r in client.query(READ).rows]
        assert rows == [("Merdies", 1, "Merdies", 1)]
    finally:
        db.run_compiled = real_run
        handle.stop()


def test_served_view_read_compiles_nothing(served_db, compile_counter):
    # A read the view answers never needs the fallback tree: neither the
    # miss that caches the entry nor the hit runs the frontend.
    db, handle = served_db
    db.execute(CREATE)
    view = db.catalog.matview("sales_prov")
    compiles = compile_counter(db)
    with PermClient(*handle.address) as client:
        replies = [client.query(READ) for _ in range(2)]
    assert [reply.cached for reply in replies] == [False, True]
    assert view.served_reads == 2
    assert compiles == []
