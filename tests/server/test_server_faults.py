"""Graceful shutdown and injected server faults: draining semantics,
typed ``shutting_down`` refusals, and fault-point plumbing on the
query path."""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.errors import PermError
from repro.faultinject import FaultInjector
from repro.server import PermClient, ServerError, start_in_thread


@pytest.fixture()
def served_db():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b text)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    handle = start_in_thread(db, request_timeout=30.0)
    yield db, handle
    handle.stop()


def make_client(handle, **kwargs) -> PermClient:
    host, port = handle.address
    return PermClient(host, port, **kwargs)


class TestGracefulShutdown:
    def test_drain_finishes_inflight_and_refuses_new(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.query", "sleep", nth=1, seconds=0.8)

        results, errors, reports = [], [], []

        def slow_query():
            try:
                with make_client(handle) as client:
                    results.append(client.query("SELECT a FROM t"))
            except BaseException as exc:  # surfaced via the errors list
                errors.append(exc)

        with inj.installed():
            worker = threading.Thread(target=slow_query)
            worker.start()
            time.sleep(0.3)  # the slow query is admitted and sleeping

            shutter = threading.Thread(
                target=lambda: reports.append(handle.shutdown(drain_timeout=5.0))
            )
            shutter.start()
            time.sleep(0.15)  # the server is now draining

            with make_client(handle) as late:
                with pytest.raises(ServerError) as excinfo:
                    late.query("SELECT a FROM t")
            assert excinfo.value.kind == "shutting_down"

            worker.join(timeout=10.0)
            shutter.join(timeout=10.0)

        assert not errors
        assert sorted(r[0] for r in results[0].rows) == [1, 2, 3]
        assert reports == [{"drained": True, "abandoned": 0}]

    def test_drain_deadline_reports_abandoned_queries(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.query", "sleep", nth=1, seconds=2.0)
        outcome = []

        def doomed_query():
            try:
                with make_client(handle) as client:
                    outcome.append(client.query("SELECT a FROM t"))
            except PermError as exc:
                outcome.append(exc)

        with inj.installed():
            worker = threading.Thread(target=doomed_query)
            worker.start()
            time.sleep(0.3)
            report = handle.shutdown(drain_timeout=0.2)
            worker.join(timeout=10.0)

        assert report == {"drained": False, "abandoned": 1}
        # The abandoned query's connection died with the server; it must
        # surface as an error, never as a silent fake success.
        assert len(outcome) == 1
        assert isinstance(outcome[0], PermError)

    def test_idle_shutdown_is_immediate_and_idempotent(self, served_db):
        _, handle = served_db
        report = handle.shutdown(drain_timeout=5.0)
        assert report == {"drained": True, "abandoned": 0}
        # Second call: the loop is gone, so there is nothing to report.
        assert handle.shutdown() is None
        handle.stop()  # and stop stays safe to call again

    def test_refusals_are_counted(self, served_db):
        _, handle = served_db
        server = handle.server
        # Flip the draining flag directly (instead of a full shutdown)
        # so the server is still up to answer the stats op afterwards.
        server._draining = True
        try:
            with make_client(handle) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("SELECT a FROM t")
                assert excinfo.value.kind == "shutting_down"
                stats = client.stats()["stats"]
                assert stats["shutdown_refusals"] >= 1
        finally:
            server._draining = False
        with make_client(handle) as client:
            assert client.query("SELECT a FROM t").rows


class TestInjectedServerFaults:
    def test_midquery_fault_maps_to_typed_wire_error(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.query", "error", nth=1, error_type="io")
        with inj.installed(), make_client(handle) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT a FROM t")
            assert excinfo.value.kind == "io"
            # The connection survives a typed failure.
            assert client.query("SELECT a FROM t").rows

    def test_simulated_crash_kills_the_connection_not_the_result(
        self, served_db
    ):
        # A SimulatedCrash is process death: no handler may convert it
        # into a response.  The client observes a dead connection.
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.query", "crash", nth=1)
        with inj.installed(), make_client(handle) as client:
            with pytest.raises(PermError):
                client.query("SELECT a FROM t")
