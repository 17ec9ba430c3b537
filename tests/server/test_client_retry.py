"""Client retry with exponential backoff + full jitter, driven end to
end by injecting typed faults at the server's admission and query
fault points."""

from __future__ import annotations

import pytest

import repro
from repro.faultinject import FaultInjector
from repro.server import RETRYABLE_ERRORS, PermClient, ServerError, start_in_thread


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
    kwargs.setdefault("backoff_base", 0.001)  # keep tests fast
    kwargs.setdefault("retry_seed", 7)
    return PermClient(host, port, **kwargs)


class TestRetryableReads:
    def test_overloaded_read_retries_until_success(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.admission", "error", times=2, error_type="overloaded")
        with inj.installed(), make_client(handle, max_retries=5) as client:
            result = client.query("SELECT a FROM t")
        assert result.attempts == 3
        assert sorted(r[0] for r in result.rows) == [1, 2, 3]

    def test_snapshot_invalid_read_retries(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.query", "error", nth=1, error_type="snapshot_invalid")
        with inj.installed(), make_client(handle, max_retries=3) as client:
            result = client.query("SELECT a FROM t WHERE a > 1")
        assert result.attempts == 2

    def test_exhausted_retries_surface_the_attempt_count(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on(
            "server.admission", "error", times=None, error_type="overloaded"
        )
        with inj.installed(), make_client(handle, max_retries=2) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT a FROM t")
        assert excinfo.value.kind == "overloaded"
        assert excinfo.value.attempts == 3

    def test_first_try_success_is_one_attempt(self, served_db):
        _, handle = served_db
        with make_client(handle, max_retries=5) as client:
            assert client.query("SELECT a FROM t").attempts == 1


class TestRetryRefusals:
    def test_retry_off_by_default(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.admission", "error", nth=1, error_type="overloaded")
        with inj.installed(), make_client(handle) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT a FROM t")
        assert excinfo.value.attempts == 1

    def test_writes_are_never_retried(self, served_db):
        db, handle = served_db
        inj = FaultInjector()
        inj.on("server.admission", "error", times=None, error_type="overloaded")
        with inj.installed(), make_client(handle, max_retries=5) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("INSERT INTO t VALUES (9, 'w')")
        # A retryable *error* but a non-retryable *statement*: exactly
        # one attempt, because a lost response may mean a committed
        # write and replaying it is not idempotent.
        assert excinfo.value.attempts == 1
        assert db.catalog.table("t").row_count() == 3

    def test_select_into_counts_as_a_write(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.admission", "error", times=None, error_type="overloaded")
        with inj.installed(), make_client(handle, max_retries=5) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT a INTO t2 FROM t")
        assert excinfo.value.attempts == 1

    def test_shutting_down_is_not_retryable(self, served_db):
        _, handle = served_db
        assert "shutting_down" not in RETRYABLE_ERRORS
        inj = FaultInjector()
        inj.on(
            "server.admission", "error", times=None, error_type="shutting_down"
        )
        with inj.installed(), make_client(handle, max_retries=5) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT a FROM t")
        assert excinfo.value.kind == "shutting_down"
        assert excinfo.value.attempts == 1

    def test_non_retryable_error_types_fail_fast(self, served_db):
        _, handle = served_db
        inj = FaultInjector()
        inj.on("server.query", "error", times=None, error_type="io")
        with inj.installed(), make_client(handle, max_retries=5) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT a FROM t")
        assert excinfo.value.kind == "io"
        assert excinfo.value.attempts == 1


class TestBackoff:
    def test_full_jitter_within_exponential_ceiling(self, served_db):
        _, handle = served_db
        with make_client(
            handle, max_retries=5, backoff_base=0.05, backoff_cap=0.4
        ) as client:
            for attempt in range(1, 8):
                ceiling = min(0.4, 0.05 * 2 ** (attempt - 1))
                for _ in range(20):
                    delay = client._backoff_delay(attempt)
                    assert 0.0 <= delay <= ceiling

    def test_seeded_backoff_is_deterministic(self, served_db):
        _, handle = served_db
        with make_client(handle, retry_seed=42) as a, make_client(
            handle, retry_seed=42
        ) as b:
            assert [a._backoff_delay(i) for i in range(1, 6)] == [
                b._backoff_delay(i) for i in range(1, 6)
            ]
