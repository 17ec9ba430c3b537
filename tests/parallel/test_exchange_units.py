"""Unit tests for the parallel package: planning pass, dispatch
strategies, exchange morsels, and aggregate-state merging."""

from __future__ import annotations

import pytest

import repro
from repro.errors import ExecutionError
from repro.executor.aggregates import (
    AvgState,
    CountStarState,
    DistinctWrapper,
    MaxState,
    MinState,
    SumState,
)
from repro.executor.context import ExecContext
from repro.executor.nodes import run_plan_rows
from repro.parallel import resolve_worker_count
from repro.parallel.dispatch import (
    SerialStrategy,
    ThreadPoolStrategy,
    get_strategy,
    register_strategy,
)
from repro.parallel.exchange import ExchangeNode
from repro.parallel.planning import insert_exchanges


def _db_with_rows(n: int, workers: int = 1) -> repro.PermDatabase:
    db = repro.connect(parallel_workers=workers)
    db.execute("CREATE TABLE t (a integer, b integer)")
    db.catalog.table("t").insert_many([(i, i % 7) for i in range(n)])
    return db


def _plan(db, sql):
    return db.backend._plan(db.compile_select(sql))


# -- planning pass -----------------------------------------------------------


def test_exchange_inserted_above_large_scan():
    db = _db_with_rows(10000, workers=4)
    plan = _plan(db, "SELECT a FROM t WHERE b = 1")
    assert "Exchange" in plan.explain()


def test_no_exchange_below_row_threshold():
    db = _db_with_rows(100, workers=4)
    plan = _plan(db, "SELECT a FROM t WHERE b = 1")
    assert "Exchange" not in plan.explain()


def test_no_exchange_when_serial():
    db = _db_with_rows(10000, workers=1)
    plan = _plan(db, "SELECT a FROM t WHERE b = 1")
    assert "Exchange" not in plan.explain()


def test_no_exchange_for_sublink_predicate():
    # Sublinks execute subplans against per-row outer contexts the
    # exchange cannot fork: the planner must mark them unsafe.
    db = _db_with_rows(10000, workers=4)
    plan = _plan(db, "SELECT a FROM t WHERE b IN (SELECT b FROM t WHERE a < 5)")
    assert "Exchange" not in plan.explain()


def test_exchange_covers_aggregate_pipeline():
    db = _db_with_rows(10000, workers=4)
    plan = _plan(db, "SELECT b, count(*) FROM t GROUP BY b")
    text = plan.explain()
    assert "Exchange (partial-agg" in text
    # The exchange sits above the aggregate (accumulation in workers).
    assert text.index("Exchange") < text.index("HashAggregate")


def test_db_explain_shows_exchange():
    # db.explain() builds its own planner: it must pass the database's
    # parallel configuration through, or the displayed plan diverges
    # from the one the backend actually executes.
    db = _db_with_rows(10000, workers=4)
    assert "Exchange" in db.explain("SELECT a FROM t WHERE b = 1")
    db.parallel_workers = 1
    assert "Exchange" not in db.explain("SELECT a FROM t WHERE b = 1")


def test_insert_exchanges_respects_min_rows_override():
    db = _db_with_rows(64, workers=4)
    plan = _plan(db, "SELECT a FROM t")
    wrapped = insert_exchanges(plan, workers=4, morsel_size=16, min_rows=10)
    assert isinstance(wrapped, ExchangeNode) or "Exchange" in wrapped.explain()


# -- dispatch strategies -----------------------------------------------------


def test_strategies_preserve_task_order():
    tasks = [lambda i=i: i * i for i in range(20)]
    assert SerialStrategy().map_ordered(tasks) == [i * i for i in range(20)]
    assert ThreadPoolStrategy(4).map_ordered(tasks) == [i * i for i in range(20)]


def test_worker_exceptions_propagate():
    def boom():
        raise ExecutionError("boom")

    with pytest.raises(ExecutionError):
        ThreadPoolStrategy(2).map_ordered([lambda: 1, boom, lambda: 3])


def test_strategy_registry():
    with pytest.raises(ValueError):
        get_strategy("nosuch", 2)
    register_strategy("test-serial", lambda workers: SerialStrategy())
    assert isinstance(get_strategy("test-serial", 2), SerialStrategy)


def test_resolve_worker_count():
    assert resolve_worker_count(4) == 4
    assert resolve_worker_count(0) == 1
    assert resolve_worker_count(None) >= 1


# -- exchange morsels --------------------------------------------------------


def test_morsels_respect_snapshot_bounds():
    db = _db_with_rows(10000, workers=4)
    plan = _plan(db, "SELECT a FROM t")
    exchange = plan
    while not isinstance(exchange, ExchangeNode):
        exchange = exchange.child
    snapshot = {db.catalog.table("t").uid: (db.catalog.table("t").epoch, 1000)}
    ctx = ExecContext(snapshot=snapshot)
    morsels = exchange._morsels(ctx)
    assert morsels[0][0] == 0
    assert morsels[-1][1] == 1000
    assert all(stop - start <= exchange.morsel_size for start, stop in morsels)


def test_exchange_matches_its_serial_pipeline():
    # The serial reference is the wrapped pipeline itself, run without
    # the exchange (``exchange.run`` would be parallel too).
    db = _db_with_rows(10000, workers=4)
    plan = _plan(db, "SELECT a FROM t WHERE b = 2")
    exchange = plan
    while not isinstance(exchange, ExchangeNode):
        exchange = exchange.child
    assert len(exchange._morsels(ExecContext())) > 1
    parallel = run_plan_rows(exchange, ExecContext())
    serial = run_plan_rows(exchange.child, ExecContext())
    assert parallel == serial
    assert len(serial) == sum(1 for i in range(10000) if i % 7 == 2)


# -- aggregate-state merging -------------------------------------------------


def test_sum_state_merge_null_handling():
    a, b, c = SumState(), SumState(), SumState()
    a.add(3)
    b.add(4)
    a.merge(b)
    assert a.result() == 7
    a.merge(c)  # all-NULL partial: no contribution
    assert a.result() == 7
    c.merge(a)  # merging into an all-NULL state adopts the total
    assert c.result() == 7


def test_min_max_avg_count_merge():
    lo, hi = MinState(), MaxState()
    for state, values in ((lo, (5, 2)), (hi, (5, 2))):
        for v in values:
            state.add(v)
    other_lo, other_hi = MinState(), MaxState()
    other_lo.add(1)
    other_hi.add(9)
    lo.merge(other_lo)
    hi.merge(other_hi)
    assert (lo.result(), hi.result()) == (1, 9)

    avg_a, avg_b = AvgState(), AvgState()
    avg_a.add(2)
    avg_a.add(4)
    avg_b.add(6)
    avg_a.merge(avg_b)
    assert avg_a.result() == 4

    n_a, n_b = CountStarState(), CountStarState()
    n_a.add(None)
    n_b.add(None)
    n_b.add(None)
    n_a.merge(n_b)
    assert n_a.result() == 3


def test_distinct_merge_deduplicates():
    a = DistinctWrapper(CountStarState())
    b = DistinctWrapper(CountStarState())
    for v in (1, 2, 2):
        a.add(v)
    for v in (2, 3):
        b.add(v)
    a.merge(b)
    assert a.result() == 3  # {1, 2, 3}


def test_polynomial_sum_merge_is_polynomial_addition():
    from repro.executor.aggregates import PolySumState
    from repro.semiring.polynomial import Polynomial

    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    a, b = PolySumState(), PolySumState()
    a.add(x)
    b.add(y)
    b.add(x)
    a.merge(b)
    assert a.result() == x + x + y
