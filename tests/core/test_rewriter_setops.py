"""Set-operation rewrite tests: rules R6-R9 / Fig. 6.3."""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.analyzer.analyzer import Analyzer
from repro.core.rewriter import traverse_query_tree
from repro.executor.context import ExecContext
from repro.planner.planner import Planner
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = repro.connect()
    database.execute("CREATE TABLE r (a integer)")
    database.execute("CREATE TABLE s (a integer)")
    database.execute("INSERT INTO r VALUES (1), (2), (2), (3)")
    database.execute("INSERT INTO s VALUES (2), (3), (4)")
    return database


def prov(db, sql):
    return Counter(db.execute(sql).rows)


def test_r6_union_left_joins_both_sides(db):
    result = prov(db, "SELECT PROVENANCE a FROM r UNION SELECT a FROM s")
    # 1 only in r, 4 only in s: the other side is null-padded.
    assert result[(1, 1, None)] == 1
    assert result[(4, None, 4)] == 1
    # 2 is in both: r contributes multiplicity 2, s multiplicity 1.
    assert result[(2, 2, 2)] == 2


def test_r6_union_all_bag_semantics(db):
    result = prov(db, "SELECT PROVENANCE a FROM r UNION ALL SELECT a FROM s")
    # UNION ALL result has (2) x3; each joins its witnesses.
    total_for_2 = sum(n for row, n in result.items() if row[0] == 2)
    assert total_for_2 == 6  # 3 result rows x 2 join partners on r side x1


def test_r7_intersection_inner_joins(db):
    result = prov(db, "SELECT PROVENANCE a FROM r INTERSECT SELECT a FROM s")
    assert set(result) == {(2, 2, 2), (3, 3, 3)}
    # No null-padded rows for intersection.
    assert all(None not in row for row in result)


def test_r8_set_difference_attaches_all_of_t2(db):
    result = prov(db, "SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s")
    # Result {1}; provenance: the tuple itself from r, ALL tuples from s.
    assert set(result) == {(1, 1, 2), (1, 1, 3), (1, 1, 4)}


def test_r8_set_difference_empty_right(db):
    db.execute("CREATE TABLE empty_s (a integer)")
    result = prov(db, "SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM empty_s")
    # Left join against empty T2+ null-pads.
    assert set(result) == {
        (1, 1, None), (2, 2, None), (3, 3, None),
    }


def test_r9_bag_difference_uses_inequality(db):
    result = prov(db, "SELECT PROVENANCE a FROM r EXCEPT ALL SELECT a FROM s")
    # EXCEPT ALL keeps 1 (x1) and 2 (x1): provenance from s = tuples != t.
    rows_for_1 = {row for row in result if row[0] == 1}
    assert rows_for_1 == {(1, 1, 2), (1, 1, 3), (1, 1, 4)}
    rows_for_2 = {row for row in result if row[0] == 2}
    assert rows_for_2 == {(2, 2, 3), (2, 2, 4)}


def test_nested_setop_tree(db):
    db.execute("CREATE TABLE u (a integer)")
    db.execute("INSERT INTO u VALUES (3), (5)")
    result = prov(
        db,
        "SELECT PROVENANCE a FROM r UNION (SELECT a FROM s INTERSECT SELECT a FROM u)",
    )
    cols = db.execute(
        "SELECT PROVENANCE a FROM r UNION (SELECT a FROM s INTERSECT SELECT a FROM u)"
    ).columns
    assert cols == ["a", "prov_r_a", "prov_s_a", "prov_u_a"]
    # 3 comes from r and from s∩u.
    assert result[(3, 3, 3, 3)] >= 1
    # 1 comes only from r.
    assert result[(1, 1, None, None)] == 1


def test_setop_of_projections(db):
    result = prov(
        db,
        "SELECT PROVENANCE a * 2 FROM r UNION SELECT a + 10 FROM s",
    )
    assert (4, 2, None) in result  # 2*2 from r
    assert (12, None, 2) in result  # 2+10 from s


def test_original_setop_result_preserved(db):
    for op in ("UNION", "UNION ALL", "INTERSECT", "EXCEPT", "EXCEPT ALL"):
        normal = db.execute(f"SELECT a FROM r {op} SELECT a FROM s")
        prov_result = db.execute(f"SELECT PROVENANCE a FROM r {op} SELECT a FROM s")
        assert {row[:1] for row in prov_result.rows} == set(normal.rows), op


def test_flat_strategy_matches_split_for_homogeneous_trees(db):
    db.execute("CREATE TABLE u (a integer)")
    db.execute("INSERT INTO u VALUES (2), (9)")
    sql = (
        "SELECT PROVENANCE a FROM r UNION SELECT a FROM s UNION SELECT a FROM u"
    )
    results = {}
    for strategy in ("split", "flat"):
        query = Analyzer(db.catalog).analyze(parse_statement(sql))
        rewritten = traverse_query_tree(query, setop_strategy=strategy)
        plan = Planner(db.catalog).plan(rewritten)
        results[strategy] = Counter(plan.run(ExecContext()))
    assert results["split"] == results["flat"]


def test_flat_strategy_falls_back_on_mixed_trees(db):
    db.execute("CREATE TABLE u (a integer)")
    db.execute("INSERT INTO u VALUES (2)")
    sql = (
        "SELECT PROVENANCE a FROM r UNION "
        "(SELECT a FROM s INTERSECT SELECT a FROM u)"
    )
    for strategy in ("split", "flat"):
        query = Analyzer(db.catalog).analyze(parse_statement(sql))
        rewritten = traverse_query_tree(query, setop_strategy=strategy)
        plan = Planner(db.catalog).plan(rewritten)
        assert Counter(plan.run(ExecContext()))  # both execute and agree below
    split_q = Analyzer(db.catalog).analyze(parse_statement(sql))
    flat_q = Analyzer(db.catalog).analyze(parse_statement(sql))
    split_rows = Counter(
        Planner(db.catalog).plan(traverse_query_tree(split_q, "split")).run(ExecContext())
    )
    flat_rows = Counter(
        Planner(db.catalog).plan(traverse_query_tree(flat_q, "flat")).run(ExecContext())
    )
    assert split_rows == flat_rows


def test_setop_with_limit_applies_before_provenance_expansion(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM r UNION SELECT a FROM s ORDER BY a LIMIT 2"
    )
    originals = {row[0] for row in result.rows}
    assert originals == {1, 2}


@pytest.mark.parametrize("backend", ("python", "sqlite"))
def test_marked_non_first_operand_fails_at_analysis(db, backend):
    """PROVENANCE on a later operand widens only that operand; the width
    mismatch is reported before anything runs, on every backend."""
    db.set_backend(backend)
    with pytest.raises(repro.AnalyzeError, match="operand 3 of the EXCEPT is marked"):
        db.execute(
            "(SELECT a FROM r UNION SELECT a FROM s) "
            "EXCEPT SELECT PROVENANCE a FROM r"
        )
    # An operand whose rewritten width matches is an ordinary operand.
    result = db.execute("SELECT a, a FROM s UNION ALL SELECT PROVENANCE a FROM r")
    assert Counter(result.rows) == Counter(
        [(2, 2), (3, 3), (4, 4), (1, 1), (2, 2), (2, 2), (3, 3)]
    )
