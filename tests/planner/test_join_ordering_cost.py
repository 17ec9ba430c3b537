"""The price of join ordering is structural, not timed.

Join ordering prices thousands of candidate splits per statement
(DPsub) or hundreds of pairs per round (GOO).  The candidates share a
few dozen immutable pool conjuncts, so the planner classifies each
conjunct once per ordering problem and prices every candidate from the
resulting numbers.  This suite pins that *count*: during one
``_order_joins`` call, the expression walker and ``extract_equi_keys``
run O(1) times per pool conjunct — however many splits are enumerated —
which a host's clock cannot make flaky.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analyzer import expressions as ex
from repro.datatypes import SQLType
from repro.planner import cost, logical, physical
from repro.planner.cost import WORK_WEIGHT, CostModel
from repro.planner.physical import CostBasedPlanner
from repro.planner.stats import ColumnStats
from repro.tpch.dbgen import tpch_database
from repro.workloads import setop_queries, spj_queries


@pytest.fixture(scope="module")
def tpch_db():
    return tpch_database(scale_factor=0.001, seed=42)


@pytest.fixture()
def ordering_problems(monkeypatch):
    """Every ``_order_joins`` call as ``(operands, pool conjuncts,
    expression walks, extract_equi_keys calls)``, counted only while the
    call is running."""
    problems: list[tuple[int, int, int, int]] = []
    counts = {"walk": 0, "extract": 0}
    depth = 0

    real_walk = ex.walk
    real_extract = logical.extract_equi_keys
    real_order = CostBasedPlanner._order_joins

    def walk(expr):
        if depth:
            counts["walk"] += 1
        return real_walk(expr)

    def extract(*args):
        if depth:
            counts["extract"] += 1
        return real_extract(*args)

    def order(self, units, pool):
        nonlocal depth
        before = dict(counts)
        depth += 1
        try:
            return real_order(self, units, pool)
        finally:
            depth -= 1
            problems.append(
                (
                    len(units),
                    len(pool),
                    counts["walk"] - before["walk"],
                    counts["extract"] - before["extract"],
                )
            )

    monkeypatch.setattr(ex, "walk", walk)
    monkeypatch.setattr(logical, "extract_equi_keys", extract)
    monkeypatch.setattr(physical, "extract_equi_keys", extract)
    monkeypatch.setattr(CostBasedPlanner, "_order_joins", order)
    return problems


def _witness(sql: str) -> str:
    return sql.replace("SELECT", "SELECT PROVENANCE", 1)


def _spj8() -> str:
    """Eight filtered scans of ``part`` chained on the key: 7 conjuncts."""
    (sql,) = spj_queries(8, 1, 200, seed=50)
    return _witness(sql)


def _intersect5() -> str:
    """The set-operation witness shape: the result joined back to the
    provenance of five INTERSECT operands (and theirs to each other) on
    three null-safe equalities each — 9 operands, 24 conjuncts."""
    (tree,) = setop_queries(5, 1, 200, seed=50, operator="INTERSECT")
    return _witness(f"SELECT * FROM ({tree}) AS s")


@pytest.mark.parametrize("ordering", ["dp", "goo"])
@pytest.mark.parametrize(
    "statement, shape", [(_spj8, (8, 7)), (_intersect5, (9, 24))], ids=["spj8", "setop"]
)
def test_each_pool_conjunct_is_read_a_constant_number_of_times(
    tpch_db, ordering_problems, monkeypatch, ordering, statement, shape
):
    if ordering == "goo":
        monkeypatch.setattr(CostBasedPlanner, "DP_MAX_RELATIONS", 1)
    tpch_db.explain(statement())
    assert shape in [problem[:2] for problem in ordering_problems]
    for operands, conjuncts, walks, extracts in ordering_problems:
        budget = 4 * conjuncts + operands
        assert walks <= budget, (operands, conjuncts, walks)
        # One key extraction per join actually built; none per candidate.
        assert extracts <= operands - 1, (operands, conjuncts, extracts)


def _unit(rows: float, rtindex: int, ndv: int) -> SimpleNamespace:
    """A placed join operand as the cost model sees one: a row estimate,
    its range-table indexes and a one-column statistics scope."""
    return SimpleNamespace(
        plan=SimpleNamespace(estimate=rows),
        rtindexes={rtindex},
        scope={(rtindex, 0): ColumnStats(ndv=ndv)},
    )


def _column(rtindex: int) -> ex.Var:
    return ex.Var(rtindex, 0, SQLType.INTEGER)


def test_one_kernel_prices_every_join(tpch_db, monkeypatch):
    """DP, GOO and the public ``pair_score`` / ``join_estimate`` wrappers
    all go through ``CostModel.price_join``; the walk-per-split helper
    is not even imported by the cost model any more."""
    assert not hasattr(cost, "extract_equi_keys")
    calls = []
    real = CostModel.price_join

    def spy(rows_left, rows_right, left, right, facts):
        calls.append(len(facts))
        return real(rows_left, rows_right, left, right, facts)

    monkeypatch.setattr(CostModel, "price_join", staticmethod(spy))
    tpch_db.explain(_spj8())
    enumerated = len(calls)
    assert enumerated > 7  # candidate splits, not just the 7 joins built
    monkeypatch.setattr(CostBasedPlanner, "DP_MAX_RELATIONS", 1)
    tpch_db.explain(_spj8())
    assert len(calls) > enumerated

    model = CostModel(tpch_db.catalog)
    big, small = _unit(1000.0, 0, ndv=50), _unit(10.0, 1, ndv=10)
    equality = ex.OpExpr("=", (_column(0), _column(1)), SQLType.BOOLEAN)
    del calls[:]
    # |L|·|R| / max(ndv_L, min(ndv_R, |R|)) = 1000·10 / 50; hash work |L|+|R|.
    assert model.join_estimate(big, small, [equality], "inner") == 200.0
    assert model.join_estimate(small, big, [equality], "left") == 200.0
    assert model.join_estimate(big, small, [equality], "full") == 1010.0
    assert model.pair_score(big, small, [equality]) == 200.0 + WORK_WEIGHT * 1010.0
    # No condition: the cross product, whose output is the work.
    assert model.pair_score(big, small, []) == 10000.0 * (1.0 + WORK_WEIGHT)
    assert calls == [1, 1, 1, 1, 0]


def test_a_key_whose_side_spans_both_inputs_is_a_residual():
    """``a.x = b.x + c.x`` is a hash key when b and c arrive together and
    a residual filter when the split separates them — one fact record,
    read differently per split."""
    model = CostModel(None)
    a, b, c = _column(0), _column(1), _column(2)
    conjunct = ex.OpExpr(
        "=", (a, ex.OpExpr("+", (b, c), SQLType.INTEGER)), SQLType.BOOLEAN
    )
    (fact,) = model.classify_conjuncts([conjunct], {0: 0, 1: 1, 2: 2}, None)
    assert (fact.mask, fact.key_a, fact.key_b) == (0b111, 0b001, 0b110)
    keyed, _ = model.price_join(100.0, 400.0, 0b001, 0b110, [fact])
    residual, _ = model.price_join(200.0, 200.0, 0b011, 0b100, [fact])
    assert keyed == 100.0 * 400.0 / 400.0
    assert residual == 200.0 * 200.0 * fact.selectivity
