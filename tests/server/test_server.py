"""Server integration tests: concurrent clients, snapshot isolation,
timeout, overload, sessions, and observability."""

from __future__ import annotations

import gc
import socket
import threading
import time

import pytest

import repro
from repro.errors import PermError
from repro.server import PermClient, PermServer, ServerError, start_in_thread
from repro.sql.parser import _Parser


@pytest.fixture
def served_db():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b text)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    handle = start_in_thread(db, request_timeout=30.0)
    yield db, handle
    handle.stop()


def test_query_and_provenance_match_embedded(served_db):
    db, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        sql = "SELECT a, b FROM t WHERE a > 1"
        assert client.query(sql).rows == db.execute(sql).rows

        served = client.provenance("SELECT a FROM t", semantics="polynomial")
        embedded = db.provenance("SELECT a FROM t", semantics="polynomial")
        assert served.columns == embedded.columns
        assert served.annotation_column == embedded.annotation_column
        # Polynomials survive the JSON hop bit-exactly.
        served_annotations = [row[-1].to_wire() for row in served.rows]
        embedded_annotations = [row[-1].to_wire() for row in embedded.rows]
        assert served_annotations == embedded_annotations


def test_prepared_statement_cache_hits(served_db):
    _, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        sql = "SELECT count(*) FROM t"
        first = client.query(sql)
        second = client.query(sql)
        assert not first.cached and second.cached
        stats = client.stats()
        me = [s for s in stats["sessions"] if s["session"] == client.session]
        assert me and me[0]["cache_hits"] >= 1


def test_sessions_isolate_caches(served_db):
    _, handle = served_db
    host, port = handle.address
    sql = "SELECT a FROM t"
    with PermClient(host, port, session="one") as a, PermClient(
        host, port, session="two"
    ) as b:
        assert not a.query(sql).cached
        assert not b.query(sql).cached  # different session: own cache
        assert a.query(sql).cached
        assert a.close_session()
        assert not a.query(sql).cached  # cache dropped with the session


def test_ddl_and_dml_route_through_execute(served_db):
    db, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        result = client.query("INSERT INTO t VALUES (4, 'w')")
        assert result.command.startswith("INSERT")
        assert client.query("SELECT count(*) FROM t").scalar() == 4
        with pytest.raises(ServerError) as exc:
            client.query("INSERT INTO t VALUES (5, 'v')", provenance="witness")
        assert exc.value.kind == "query_error"
    assert db.execute("SELECT count(*) FROM t").scalar() == 4


def test_concurrent_clients_zero_wrong_answers(served_db):
    db, handle = served_db
    host, port = handle.address
    expected = db.execute("SELECT sum(a) FROM t").scalar()
    answers, failures = [], []

    def worker():
        try:
            with PermClient(host, port) as client:
                for _ in range(10):
                    answers.append(client.query("SELECT sum(a) FROM t").scalar())
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert len(answers) == 120
    assert set(answers) == {expected}


def test_snapshot_isolation_across_concurrent_insert():
    # A query that started before a write must not observe it, even when
    # the write lands mid-execution.  Served writes queue behind the
    # read on the engine thread, so the write comes from an in-process
    # caller; the slow cross product keeps the read running meanwhile.
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer)")
    db.catalog.table("n").insert_many([(i,) for i in range(2000)])
    handle = start_in_thread(db)
    host, port = handle.address
    real_run = db.run_compiled
    started = threading.Event()

    def signalling_run(query, **kwargs):
        started.set()
        return real_run(query, **kwargs)

    db.run_compiled = signalling_run
    try:
        # The always-true predicate forces per-pair evaluation, keeping
        # the reader busy for over a second while the writer lands.
        slow_sql = "SELECT count(*) FROM n a, n b WHERE a.v + b.v >= 0"
        results = {}

        def reader():
            with PermClient(host, port) as client:
                results["count"] = client.query(slow_sql).scalar()

        thread = threading.Thread(target=reader)
        thread.start()
        assert started.wait(timeout=30)  # snapshot taken, execution begun
        db.execute("INSERT INTO n VALUES (9999)")
        assert thread.is_alive()  # the write landed mid-read
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results["count"] == 2000 * 2000
        # A fresh query sees the new row.
        with PermClient(host, port) as client:
            assert client.query("SELECT count(*) FROM n").scalar() == 2001
    finally:
        db.run_compiled = real_run
        handle.stop()


def test_timeout_returns_typed_error():
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer)")
    db.catalog.table("n").insert_many([(i,) for i in range(2000)])
    handle = start_in_thread(db, request_timeout=0.2)
    host, port = handle.address
    try:
        with PermClient(host, port) as client:
            with pytest.raises(ServerError) as exc:
                client.query("SELECT count(*) FROM n a, n b, n c")
            assert exc.value.kind == "timeout"
            # The connection survives a timed-out query.
            assert client.query("SELECT count(*) FROM n").scalar() == 2000
    finally:
        handle.stop()


def test_overload_refused_not_buffered():
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer)")
    db.catalog.table("n").insert_many([(i,) for i in range(2000)])
    handle = start_in_thread(db, queue_limit=0)
    host, port = handle.address
    try:
        slow_sql = "SELECT count(*) FROM n a, n b WHERE a.v + b.v >= 0"
        overloaded = []
        done = {}

        def occupant():
            with PermClient(host, port) as client:
                done["count"] = client.query(slow_sql).scalar()

        thread = threading.Thread(target=occupant)
        thread.start()
        time.sleep(0.3)
        with PermClient(host, port) as client:
            try:
                client.query("SELECT 1")
            except ServerError as exc:
                overloaded.append(exc.kind)
        thread.join(timeout=60)
        assert overloaded == ["overloaded"]
        assert done["count"] == 2000 * 2000
        stats_db = handle.server.stats
        assert stats_db.overloads >= 1
    finally:
        handle.stop()


def test_served_statements_run_one_at_a_time_on_one_thread():
    # Four clients at once: every served statement runs to completion on
    # the one engine thread, never beside another, so the collector
    # stays paused for its whole run.
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer, w integer)")
    db.catalog.table("n").insert_many([(i, i % 7) for i in range(2000)])
    handle = start_in_thread(db)
    host, port = handle.address
    backend = db.backend
    lock = threading.Lock()
    running, threads, collections = [0], set(), []
    overlaps = []

    def observed_run(query, **kwargs):
        with lock:
            running[0] += 1
            overlaps.append(running[0])
            threads.add(threading.get_ident())
        try:
            time.sleep(0.005)  # a pool would start a neighbour meanwhile
            return type(backend).run_select(backend, query, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    def on_gc(phase, info):
        if phase == "start" and running[0]:
            collections.append(info["generation"])

    backend.run_select = observed_run
    gc.callbacks.append(on_gc)
    failures = []

    def client(index):
        try:
            with PermClient(host, port) as conn:
                for i in range(10):
                    rows = conn.query(f"SELECT w, v FROM n WHERE w = {(index + i) % 7}").rows
                    assert len(rows) in (285, 286)
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append(exc)

    try:
        workers = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        gc.callbacks.remove(on_gc)
        del backend.run_select
        handle.stop()
    assert not failures
    assert len(overlaps) == 40
    assert max(overlaps) == 1
    assert len(threads) == 1
    assert collections == []


def test_queued_request_times_out_without_running():
    # The deadline is armed at admission: a request still queued behind
    # a slow occupant when it passes is answered with a timeout and
    # never reaches the engine.
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer)")
    db.catalog.table("n").insert_many([(i,) for i in range(2000)])
    handle = start_in_thread(db)
    host, port = handle.address
    real_compile = db.compile_select
    compiled, occupied = [], threading.Event()

    def recording_compile(sql, **kwargs):
        compiled.append(sql)
        occupied.set()
        return real_compile(sql, **kwargs)

    db.compile_select = recording_compile
    try:
        slow_sql = "SELECT count(*) FROM n a, n b WHERE a.v + b.v >= 0"
        done = {}

        def occupant():
            with PermClient(host, port) as client:
                done["count"] = client.query(slow_sql).scalar()

        thread = threading.Thread(target=occupant)
        thread.start()
        assert occupied.wait(timeout=30)
        with PermClient(host, port) as client:
            with pytest.raises(ServerError) as exc:
                client.query("SELECT max(v) FROM n", timeout=0.2)
            assert exc.value.kind == "timeout"
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert done["count"] == 2000 * 2000
        assert len(compiled) == 1  # the queued statement never ran
        assert handle.server.stats.timeouts == 1
    finally:
        db.compile_select = real_compile
        handle.stop()


def test_delete_queued_ahead_of_a_read_never_invalidates_it():
    # The snapshot is taken as the statement starts, so a DELETE queued
    # ahead of a read has landed by then: the read sees its effect
    # instead of failing with "snapshot too old".
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer)")
    db.catalog.table("n").insert_many([(i,) for i in range(2000)])
    handle = start_in_thread(db)
    host, port = handle.address
    replies = {}

    def send(name, sql):
        with PermClient(host, port) as client:
            try:
                result = client.query(sql)
                replies[name] = result.scalar() if result.rows else result.command
            except ServerError as exc:
                replies[name] = exc.kind

    def enqueue(name, sql):
        depth = handle.server._pending + 1
        thread = threading.Thread(target=send, args=(name, sql))
        thread.start()
        deadline = time.monotonic() + 30
        while handle.server._pending < depth and time.monotonic() < deadline:
            time.sleep(0.005)
        return thread

    try:
        threads = [
            enqueue("slow", "SELECT count(*) FROM n a, n b WHERE a.v + b.v >= 0"),
            enqueue("delete", "DELETE FROM n WHERE v < 1000"),
            enqueue("read", "SELECT count(*) FROM n"),
        ]
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        handle.stop()
    assert replies == {"slow": 2000 * 2000, "delete": "DELETE 1000", "read": 1000}


def test_a_select_miss_parses_once(served_db, monkeypatch):
    db, handle = served_db
    host, port = handle.address
    parses, keys = [], []
    real_parse = _Parser.parse_statements
    real_key = db.cache_key

    def counting_parse(self):
        parses.append(self.text)
        return real_parse(self)

    def counting_key(sql, mode):
        keys.append(sql)
        return real_key(sql, mode)

    monkeypatch.setattr(_Parser, "parse_statements", counting_parse)
    monkeypatch.setattr(db, "cache_key", counting_key)
    with PermClient(host, port) as client:
        sql = "SELECT a FROM t WHERE a > 1"
        assert not client.query(sql).cached
        assert (len(parses), len(keys)) == (1, 1)  # one parse, one probe
        assert client.query(sql).cached
        assert (len(parses), len(keys)) == (1, 2)  # a hit parses nothing


def test_a_served_write_parses_once_and_is_logged(tmp_path, monkeypatch):
    db = repro.connect(wal_dir=str(tmp_path))
    db.execute("CREATE TABLE t (a integer)")
    handle = start_in_thread(db, request_timeout=30.0)
    parses = []
    real_parse = _Parser.parse_statements

    def counting_parse(self):
        parses.append(self.text)
        return real_parse(self)

    monkeypatch.setattr(_Parser, "parse_statements", counting_parse)
    try:
        with PermClient(*handle.address) as client:
            for value in (1, 2):
                assert client.query(f"INSERT INTO t VALUES ({value})").command
                assert len(parses) == value  # one parse per INSERT
    finally:
        handle.stop()
        db.close()
    recovered = repro.connect(wal_dir=str(tmp_path))
    try:
        assert sorted(recovered.execute("SELECT a FROM t").rows) == [(1,), (2,)]
    finally:
        recovered.close()


def test_max_concurrency_is_gone():
    db = repro.connect()
    with pytest.raises(TypeError):
        start_in_thread(db, max_concurrency=2)


def test_stats_op_reports_counters(served_db):
    _, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        client.query("SELECT 1")
        client.query("SELECT 1")
        stats = client.stats()
    top = stats["stats"]
    assert top["total_requests"] >= 2
    assert top["ok"] >= 2
    assert "qps" in top
    assert top["latency_ms"]["p50"] <= top["latency_ms"]["p99"]
    assert "hits" in stats["statement_cache"]


def test_protocol_error_on_garbage(served_db):
    _, handle = served_db
    host, port = handle.address
    with socket.create_connection((host, port), timeout=10) as sock:
        # Valid header, invalid JSON payload.
        sock.sendall((7).to_bytes(4, "big") + b"garbage")
        header = sock.recv(4)
        length = int.from_bytes(header, "big")
        payload = b""
        while len(payload) < length:
            payload += sock.recv(length - len(payload))
        import json

        response = json.loads(payload)
        assert response["ok"] is False
        assert response["error"]["type"] == "protocol_error"


def test_unknown_op_rejected(served_db):
    _, handle = served_db
    host, port = handle.address
    with PermClient(host, port) as client:
        with pytest.raises(ServerError) as exc:
            client._roundtrip({"op": "teleport"})
        assert exc.value.kind == "protocol_error"


def test_server_requires_execution_controls():
    db = repro.connect(backend="sqlite")
    with pytest.raises(PermError):
        PermServer(db)
