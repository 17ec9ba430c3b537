"""Planner tests: join strategy, pushdown, OR factorization, explain."""

from __future__ import annotations

import pytest

import repro
from repro.analyzer.analyzer import Analyzer
from repro.analyzer import expressions as ex
from repro.datatypes import SQLType
from repro.planner import Planner
from repro.planner.logical import conjoin, split_conjuncts
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = repro.connect()
    database.execute("CREATE TABLE big (id integer, v integer)")
    database.execute("CREATE TABLE small (id integer, w integer)")
    database.load_table("big", [(i, i * 2) for i in range(500)])
    database.load_table("small", [(i, i * 3) for i in range(10)])
    return database


def plan_of(db, sql):
    query = Analyzer(db.catalog).analyze(parse_statement(sql))
    return Planner(db.catalog).plan(query)


def test_equi_join_uses_hash_join(db):
    text = plan_of(db, "SELECT 1 FROM big, small WHERE big.id = small.id").explain()
    assert "HashJoin" in text
    assert "NestedLoopJoin" not in text


def test_non_equi_join_uses_nested_loop(db):
    text = plan_of(db, "SELECT 1 FROM big, small WHERE big.id < small.id").explain()
    assert "NestedLoopJoin" in text


def test_single_table_filter_pushed_into_scan(db):
    text = plan_of(db, "SELECT 1 FROM big, small WHERE big.id = small.id AND big.v > 10").explain()
    assert "SeqScan on big (filtered)" in text


def test_or_factorization_recovers_join_key(db):
    # Q19 pattern: the equi-join predicate repeated inside every OR arm.
    text = plan_of(
        db,
        "SELECT 1 FROM big, small WHERE "
        "(big.id = small.id AND big.v > 5) OR (big.id = small.id AND small.w > 7)",
    ).explain()
    assert "HashJoin" in text


def test_split_and_conjoin_roundtrip():
    a = ex.Const(True, SQLType.BOOLEAN)
    b = ex.Const(False, SQLType.BOOLEAN)
    both = ex.BoolOpExpr("and", (a, ex.BoolOpExpr("and", (b, a))))
    parts = split_conjuncts(both)
    assert len(parts) == 3
    rebuilt = conjoin(parts)
    assert isinstance(rebuilt, ex.BoolOpExpr)
    assert split_conjuncts(rebuilt) == parts


def test_cost_based_join_builds_on_smaller_input(db):
    db.execute("CREATE TABLE medium (id integer)")
    db.load_table("medium", [(i,) for i in range(100)])
    db.analyze()
    plan = plan_of(
        db,
        "SELECT 1 FROM big, medium, small "
        "WHERE big.id = medium.id AND medium.id = small.id",
    )
    # The probe (streamed, left) side of every hash join is the larger
    # input: ``big`` is never a build side.
    from repro.executor.nodes import HashJoin

    def joins(node):
        found = [node] if isinstance(node, HashJoin) else []
        for child in node.children():
            found += joins(child)
        return found

    top = joins(plan)
    assert top, plan.explain()
    for join in top:
        assert "big" not in join.right.explain()


def test_projection_slot_resolution(db):
    from repro.executor.context import ExecContext

    plan = plan_of(db, "SELECT v + 1 AS x FROM big WHERE id = 3")
    assert list(plan.run(ExecContext())) == [(7,)]


def test_explain_via_database(db):
    text = db.explain("SELECT v FROM big ORDER BY v LIMIT 1")
    assert "Sort" in text or "SortNode" in text
    assert "Limit" in text


def test_explain_statement(db):
    result = db.execute("EXPLAIN SELECT 1 FROM big, small WHERE big.id = small.id")
    assert result.columns == ["query plan"]
    assert any("HashJoin" in row[0] for row in result.rows)


def test_cross_join_without_condition(db):
    result = db.execute("SELECT count(*) FROM small AS a, small AS b")
    assert result.scalar() == 100


def test_constant_false_where(db):
    assert db.execute("SELECT 1 FROM big WHERE 1 = 2").rows == []


def test_where_true_keeps_all(db):
    assert len(db.execute("SELECT 1 FROM small WHERE TRUE")) == 10


def test_join_on_expression_keys(db):
    result = db.execute(
        "SELECT count(*) FROM big, small WHERE big.id = small.id + 490"
    )
    assert result.scalar() == 10
    text = plan_of(
        db, "SELECT count(*) FROM big, small WHERE big.id = small.id + 490"
    ).explain()
    assert "HashJoin" in text


def test_null_safe_join_operator_via_rewriter(db):
    # The aggregation rewrite emits <=> joins; they must use hash joins.
    db.execute("CREATE TABLE g (k integer, v integer)")
    db.execute("INSERT INTO g VALUES (NULL, 1), (NULL, 2), (1, 3)")
    result = db.execute("SELECT PROVENANCE k, sum(v) FROM g GROUP BY k")
    null_group = [r for r in result.rows if r[0] is None]
    assert len(null_group) == 2  # both NULL-key tuples attached


def test_distinct_with_hidden_sort_column(db):
    """SELECT DISTINCT with an ORDER BY expression outside the select
    list: sort the junk-extended projection, slice, then deduplicate —
    each distinct value appears once, ordered by its first occurrence."""
    from repro.executor.context import ExecContext

    plan = plan_of(db, "SELECT DISTINCT v FROM big ORDER BY id DESC")
    rows = list(plan.run(ExecContext()))
    assert plan.output_names == ["v"]
    assert rows == [(v,) for v in range(998, -2, -2)]


def test_distinct_with_hidden_sort_column_and_limit(db):
    db.execute("CREATE TABLE dd (a integer, b integer)")
    db.load_table("dd", [(1, 9), (1, 1), (2, 5), (3, 7)])
    result = db.execute("SELECT DISTINCT a FROM dd ORDER BY b LIMIT 2")
    # Sorted by b: (1,1),(2,5),(3,7),(1,9) -> distinct a keeps first
    # occurrences 1, 2 -> LIMIT 2 applies after deduplication.
    assert result.rows == [(1,), (2,)]
