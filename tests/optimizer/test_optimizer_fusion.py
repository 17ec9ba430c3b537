"""Aggregation-join fusion and subplan-sharing unit tests."""

from __future__ import annotations

import pytest

import repro
from repro.analyzer.analyzer import Analyzer
from repro.core.rewriter import traverse_query_tree
from repro.optimizer import optimize_query_tree
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = repro.connect(optimize=False)
    database.execute("CREATE TABLE t (a integer, b integer)")
    database.execute("CREATE TABLE u (k integer, v integer)")
    database.load_table("t", [(1, 10), (1, 15), (2, 20), (None, 5)])
    database.load_table("u", [(1, 1), (2, 2), (3, 3)])
    return database


def rewritten(db, sql):
    return traverse_query_tree(Analyzer(db.catalog).analyze(parse_statement(sql)))


def run_query(db, query):
    from repro.executor.context import ExecContext
    from repro.planner import Planner

    plan = Planner(db.catalog).plan(query)
    return sorted(map(repr, plan.run(ExecContext())))


def test_fusion_marks_aggregation_rewrite(db):
    query = rewritten(db, "SELECT PROVENANCE a, sum(b) FROM t GROUP BY a")
    baseline = run_query(db, query)
    optimize_query_tree(query)
    assert len(query.agg_shares) == 1
    agg_index, prov_index, positions = query.agg_shares[0]
    assert query.range_table[agg_index].subquery.has_aggs
    assert len(positions) == 1
    assert run_query(db, query) == baseline


def test_fusion_handles_null_group_keys(db):
    # The NULL group must still pair with its provenance rows (null-safe
    # join keys), fused or not.
    sql = "SELECT PROVENANCE a, count(*) FROM t GROUP BY a"
    result_off = _execute_fresh(db, sql, optimize=False)
    result_on = _execute_fresh(db, sql, optimize=True)
    assert result_on == result_off
    assert any("None" in row for row in result_on)


def _execute_fresh(db, sql, optimize):
    query = rewritten(db, sql)
    if optimize:
        optimize_query_tree(query)
    return run_query(db, query)


def test_fusion_grand_aggregate_empty_input(db):
    db.execute("CREATE TABLE empty (e integer)")
    sql = "SELECT PROVENANCE sum(e) FROM empty"
    # Footnote 4: the empty grand aggregate's row drops out of the
    # provenance result entirely — fused plans must preserve that.
    assert _execute_fresh(db, sql, True) == _execute_fresh(db, sql, False) == []


def test_fusion_rejected_when_cores_differ(db):
    # A sublink in the duplicate's WHERE restructures its join tree: the
    # cores are no longer bag-equivalent and must not fuse.
    sql = (
        "SELECT PROVENANCE a, count(*) FROM t "
        "WHERE a IN (SELECT k FROM u) GROUP BY a"
    )
    query = rewritten(db, sql)
    baseline = run_query(db, query)
    optimize_query_tree(query)
    assert query.agg_shares == []
    assert run_query(db, query) == baseline


def test_fusion_with_having(db):
    sql = (
        "SELECT PROVENANCE a, sum(b) FROM t GROUP BY a "
        "HAVING count(*) > 1"
    )
    assert _execute_fresh(db, sql, True) == _execute_fresh(db, sql, False)


def test_fusion_with_order_and_limit(db):
    sql = (
        "SELECT PROVENANCE a, sum(b) AS s FROM t "
        "GROUP BY a ORDER BY s DESC LIMIT 1"
    )
    on = _execute_fresh(db, sql, True)
    off = _execute_fresh(db, sql, False)
    assert on == off
    # LIMIT applies to the aggregate before provenance expansion: only
    # the top group survives, expanded to one row per witness.
    assert len(on) == 2
    assert all(row.startswith("(1, 25") for row in on)


def test_shared_subplan_marking(db):
    # The same closed subquery appears twice (FROM and sublink): both
    # copies are flagged and the planner shares one materialization.
    # (The FROM copy's output must be referenced, or pruning would
    # specialize it before the post-fixpoint marking pass.)
    sql = (
        "SELECT a, m FROM t, (SELECT max(v) AS m FROM u) AS mx "
        "WHERE b >= (SELECT max(v) AS m FROM u)"
    )
    query = Analyzer(db.catalog).analyze(parse_statement(sql))
    optimize_query_tree(query)
    marked = [
        rte.subquery.share_candidate
        for rte in query.range_table
        if rte.subquery is not None
    ]
    assert any(marked)
    assert _execute_fresh(db, sql, True) == _execute_fresh(db, sql, False)


def test_share_candidate_not_marked_for_singletons(db):
    query = Analyzer(db.catalog).analyze(
        parse_statement("SELECT m FROM (SELECT max(v) AS m FROM u) AS mx")
    )
    optimize_query_tree(query)
    for rte in query.range_table:
        if rte.subquery is not None:
            assert rte.subquery.share_candidate is False
