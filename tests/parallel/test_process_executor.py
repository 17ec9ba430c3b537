"""Differential: fork-based process workers ≡ serial execution.

Mirrors the thread-pool differential suite under
``parallel_executor="process"``: morsels dispatch to forked worker
processes (results shipped back pickled over pipes), and the merged
stream must stay indistinguishable from the serial engine.  On
platforms without ``fork`` the strategy degrades to threads, so these
tests remain valid everywhere.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import PermError
from repro.parallel.dispatch import get_strategy

from tests.backends.support import assert_same_result
from tests.parallel.test_parallel_differential import (
    AGGREGATE_QUERIES,
    STREAMING_QUERIES,
    _database,
)


@pytest.fixture(scope="module")
def serial_db() -> repro.PermDatabase:
    return _database()


@pytest.fixture(scope="module")
def process_db() -> repro.PermDatabase:
    db = _database(parallel_workers=4)
    db.parallel_executor = "process"
    return db


def test_streaming_matches_serial_ordered(serial_db, process_db):
    for sql in STREAMING_QUERIES:
        expected = serial_db.execute(sql)
        actual = process_db.execute(sql)
        assert expected.columns == actual.columns, sql
        assert expected.rows == actual.rows, sql


def test_aggregates_match_serial(serial_db, process_db):
    for sql in AGGREGATE_QUERIES:
        assert_same_result(
            serial_db.execute(sql),
            process_db.execute(sql),
            context=f"for {sql!r}",
        )


def test_witness_provenance_matches_serial(serial_db, process_db):
    sql = "SELECT id, tag FROM events WHERE val > 990"
    assert_same_result(
        serial_db.provenance(sql),
        process_db.provenance(sql),
        context=f"for provenance {sql!r}",
    )


def test_polynomial_provenance_matches_serial(serial_db, process_db):
    sql = "SELECT grp, count(*) FROM events WHERE grp < 4 GROUP BY grp"
    expected = serial_db.provenance(sql, semantics="polynomial")
    actual = process_db.provenance(sql, semantics="polynomial")
    assert expected.columns == actual.columns
    assert_same_result(expected, actual, context="polynomial")


def test_worker_errors_propagate_with_message():
    strategy = get_strategy("process", 2)

    def boom():
        raise ValueError("exploded in the child")

    with pytest.raises(Exception, match="exploded in the child"):
        strategy.map_ordered([lambda: 1, boom, lambda: 3])


def test_executor_name_is_validated():
    db = repro.connect()
    with pytest.raises(PermError):
        db.parallel_executor = "fibers"


@pytest.mark.parametrize("sharding", ({}, {"shards": 2}), ids=("plain", "sharded"))
def test_executor_name_is_validated_at_connect(sharding):
    # A bad name fails where it is given, not at the first query with an
    # exchange (or, sharded, never: scatter silently ran serial).
    with pytest.raises(PermError, match="unknown parallel executor 'fibers'"):
        repro.connect(parallel_workers=2, parallel_executor="fibers", **sharding)
    with pytest.raises(PermError, match="unknown parallel executor 'fibers'"):
        repro.PermDatabase(parallel_executor="fibers", **sharding)


def test_sharded_settings_reach_every_child():
    db = repro.connect(shards=2)
    db.parallel_workers = 3
    db.parallel_executor = "process"
    backend = db.backend
    for child in (backend.local, *backend.children):
        assert (child.parallel_workers, child.parallel_executor) == (3, "process")
    assert "process scatter" in backend.describe()


def test_executor_selectable_at_connect():
    db = repro.connect(parallel_workers=2, parallel_executor="process")
    assert db.parallel_executor == "process"
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    assert db.execute("SELECT sum(a) FROM t").rows == [(6,)]
