"""Statements run with the cyclic garbage collector paused.

The pause holds only while exactly one statement is in flight, survives
same-thread nesting, and always hands the embedder back the collector
state it had.  Each test observes the collector from inside a running
statement by wrapping ``run_plan_rows`` (resolved by name at call time).
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import pytest

import repro
from repro.errors import ExecutionError, PermError
from repro.executor import nodes
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query

JOIN_TIMEOUT_S = 60.0


@pytest.fixture
def small_db() -> repro.PermDatabase:
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b text)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return db


def _wrap_run_plan_rows(monkeypatch, before):
    """Call ``before()`` at the start of every plan execution."""
    run = nodes.run_plan_rows

    def wrapped(plan, ctx):
        before()
        return run(plan, ctx)

    monkeypatch.setattr(nodes, "run_plan_rows", wrapped)


def test_no_automatic_collection_during_polynomial_q1():
    db = tpch_database(scale_factor=0.002, seed=42)
    sql = generate_query(1, seed=2, provenance=True).replace(
        "SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1
    )
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        result = db.execute(sql)
    finally:
        gc.callbacks.remove(record)
    assert result.rows
    assert collections == []


def test_embedder_state_restored_after_success_and_error(small_db, monkeypatch):
    during = []
    _wrap_run_plan_rows(monkeypatch, lambda: during.append(gc.isenabled()))
    try:
        for embedder in (True, False):
            gc.enable() if embedder else gc.disable()
            during.clear()
            assert small_db.execute("SELECT a FROM t").rows
            assert during == [False]
            assert gc.isenabled() is embedder
            with pytest.raises(PermError):
                small_db.execute("SELECT no_such_column FROM t")
            assert gc.isenabled() is embedder
            during.clear()
            with pytest.raises(ExecutionError):
                small_db.execute("SELECT a / (a - a) FROM t")
            assert during == [False]
            assert gc.isenabled() is embedder
    finally:
        gc.enable()


def test_nested_same_thread_statement_keeps_the_pause(small_db, monkeypatch):
    seen = []

    def nest():
        if seen:
            seen.append(("inner", gc.isenabled()))
            return
        seen.append(("outer", gc.isenabled()))
        small_db.execute("SELECT b FROM t")
        seen.append(("after inner", gc.isenabled()))

    _wrap_run_plan_rows(monkeypatch, nest)
    small_db.execute("SELECT a FROM t")
    assert seen == [("outer", False), ("inner", False), ("after inner", False)]
    assert gc.isenabled()


def test_overlapping_statements_run_with_the_collector_on(small_db, monkeypatch):
    lock = threading.Lock()
    inside = 0
    solo: list[bool] = []
    overlapping: list[bool] = []
    errors: list[BaseException] = []

    def sample() -> None:
        # Called with ``lock`` held: a statement counted in ``inside``
        # cannot leave (and drop the count) while we read the collector.
        (overlapping if inside >= 2 else solo).append(gc.isenabled())

    def probe(plan, ctx, run=nodes.run_plan_rows):
        nonlocal inside
        with lock:
            inside += 1
            sample()
        try:
            time.sleep(0.001)  # let another statement start meanwhile
            with lock:
                sample()
            return run(plan, ctx)
        finally:
            with lock:
                inside -= 1

    def client(rounds: int) -> None:
        try:
            for _ in range(rounds):
                small_db.execute("SELECT a, b FROM t WHERE a > 1")
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def run_clients(count: int, rounds: int) -> None:
        threads = [
            threading.Thread(target=client, args=(rounds,)) for _ in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)

    monkeypatch.setattr(nodes, "run_plan_rows", probe)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_clients(1, 1)
        assert solo == [False, False]
        run_clients((os.cpu_count() or 1) + 4, 10)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert overlapping and all(overlapping)
    assert gc.isenabled()
