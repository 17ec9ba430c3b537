"""DP-over-subsets join ordering: correctness and plan equivalence.

:class:`Planner` orders free inner-join sets of up to
``DP_MAX_RELATIONS`` operands by exact dynamic programming over subsets
and falls back to greedy operator ordering (GOO) above the cutoff.  The
two orderings must be semantically interchangeable — same result
multiset on every query — and the DP tree can never cost more than the
greedy one under the planner's own cost model.
"""

from __future__ import annotations

import pytest

import repro
from repro.planner import Planner
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query
from repro.tpch.queries import SUPPORTED_QUERIES

from tests.backends.support import assert_same_result


@pytest.fixture()
def goo_only(monkeypatch):
    """Force the GOO fallback regardless of operand count."""
    monkeypatch.setattr(Planner, "DP_MAX_RELATIONS", 1)


# ---------------------------------------------------------------------------
# TPC-H: DP-planned results ≡ GOO-planned results (plan equivalence)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_db():
    db = tpch_database(scale_factor=0.001, seed=42)
    db.execute("ANALYZE")
    return db


@pytest.mark.parametrize("number", SUPPORTED_QUERIES)
@pytest.mark.parametrize("provenance", (False, True), ids=["normal", "prov"])
def test_tpch_dp_matches_goo(tpch_db, monkeypatch, number, provenance):
    sql = generate_query(number, seed=7, provenance=provenance)
    dp = tpch_db.execute(sql)
    monkeypatch.setattr(Planner, "DP_MAX_RELATIONS", 1)
    tpch_db._backend._plan_cache.clear()  # force a re-plan under GOO
    goo = tpch_db.execute(sql)
    tag = f"Q{number} {'provenance' if provenance else 'normal'} DP vs GOO"
    assert_same_result(goo, dp, context=tag)


def test_dp_cutoff_uses_goo_above_limit(tpch_db, monkeypatch):
    calls = []
    original = Planner._order_joins_goo

    def spy(self, units, pool):
        calls.append(len(units))
        return original(self, units, pool)

    monkeypatch.setattr(Planner, "_order_joins_goo", spy)
    monkeypatch.setattr(Planner, "DP_MAX_RELATIONS", 3)
    tpch_db._backend._plan_cache.clear()
    # Q9 joins six relations: above a cutoff of 3, GOO must take over.
    tpch_db.execute(generate_query(9, seed=7))
    assert any(n > 3 for n in calls)


# ---------------------------------------------------------------------------
# DP beats (or ties) greedy under the planner's own cost model
# ---------------------------------------------------------------------------


def _chain_db() -> repro.PermDatabase:
    """A 4-relation chain a—b—c—d where greedy ordering is suboptimal.

    Statistics are shaped so the greedy first merge (the locally
    cheapest pair) commits to a tree whose later joins explode, while
    the DP order pays slightly more up front for a cheaper total.
    """
    db = repro.connect()
    db.execute("CREATE TABLE ta (x integer)")
    db.execute("CREATE TABLE tb (x integer, y integer)")
    db.execute("CREATE TABLE tc (y integer, z integer)")
    db.execute("CREATE TABLE td (z integer)")
    db.load_table("ta", [(i % 40,) for i in range(400)])
    db.load_table("tb", [(i % 40, i % 5) for i in range(200)])
    db.load_table("tc", [(i % 5, i % 50) for i in range(200)])
    db.load_table("td", [(i % 50,) for i in range(400)])
    db.execute("ANALYZE")
    return db


_CHAIN_SQL = (
    "SELECT count(*) FROM ta, tb, tc, td "
    "WHERE ta.x = tb.x AND tb.y = tc.y AND tc.z = td.z"
)


def test_dp_matches_goo_on_chain_query(goo_only):
    goo = _chain_db().execute(_CHAIN_SQL)
    assert _chain_db().execute(_CHAIN_SQL).rows == goo.rows


def test_dp_never_costs_more_than_goo(monkeypatch):
    """Summed pair scores of the DP tree ≤ the greedy tree's.

    Every join this chain query can form is connected, so the DP's
    lexicographic (cartesian count, score) objective reduces to pure
    score minimization and the greedy tree is one of its candidates.
    """

    def tree_cost(dp: bool) -> float:
        tracked: list[float] = []
        original_join = Planner._join_units

        def join_spy(self, left, right, join_type, conjuncts, **kwargs):
            tracked.append(self._cost.pair_score(left, right, conjuncts))
            return original_join(self, left, right, join_type, conjuncts, **kwargs)

        monkeypatch.setattr(Planner, "_join_units", join_spy)
        monkeypatch.setattr(
            Planner, "DP_MAX_RELATIONS", 12 if dp else 1
        )
        _chain_db().explain(_CHAIN_SQL)
        return sum(tracked)

    assert tree_cost(dp=True) <= tree_cost(dp=False) + 1e-9
