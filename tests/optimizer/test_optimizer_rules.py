"""Per-rule unit tests: golden before/after logical trees.

Each rule is applied in isolation (via ``optimize_query_tree(disable=...)``
or by calling the rule directly) against hand-picked query shapes, and
both the tree structure and the query results are checked.
"""

from __future__ import annotations

import itertools

import pytest

import repro
from repro.analyzer import expressions as ex
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.query_tree import JoinTreeExpr, RTEKind
from repro.core.rewriter import traverse_query_tree
from repro.errors import PermError
from repro.optimizer import (
    RULE_NAMES,
    fold_node,
    normalize_jointree,
    optimize_query_tree,
    prune_query_tree,
    pull_up_node,
    push_down_node,
)
from repro.planner.logical import split_conjuncts
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = repro.connect(optimize=False)
    database.execute("CREATE TABLE t (a integer, b integer, c text)")
    database.execute("CREATE TABLE s (x integer, y integer)")
    database.load_table("t", [(1, 10, "p"), (2, 20, "q"), (2, 25, "q"), (3, 30, "r")])
    database.load_table("s", [(1, 100), (2, 200), (9, 900)])
    return database


def analyze(db, sql):
    return Analyzer(db.catalog).analyze(parse_statement(sql))


def run_query(db, query):
    from repro.executor.context import ExecContext
    from repro.planner import Planner

    plan = Planner(db.catalog).plan(query)
    return sorted(plan.run(ExecContext()))


# ---------------------------------------------------------------------------
# Subquery pull-up
# ---------------------------------------------------------------------------


def test_pullup_inlines_simple_subquery(db):
    query = analyze(db, "SELECT v FROM (SELECT a AS v FROM t WHERE b > 10) AS sub")
    baseline = run_query(db, query)
    assert query.range_table[0].kind is RTEKind.SUBQUERY
    assert pull_up_node(query) is True
    # Golden after-tree: the wrapper is gone, t is scanned directly and
    # the subquery's WHERE merged into the parent's.
    assert [r.kind for r in query.range_table] == [RTEKind.RELATION]
    assert query.range_table[0].relation_name == "t"
    assert query.jointree.quals is not None
    assert run_query(db, query) == baseline


def test_pullup_remaps_target_expressions(db):
    query = analyze(
        db, "SELECT d + 1 FROM (SELECT a * 2 AS d FROM t) AS sub"
    )
    baseline = run_query(db, query)
    assert pull_up_node(query)
    # (a * 2) substituted into the parent's d + 1.
    target = query.target_list[0].expr
    assert isinstance(target, ex.OpExpr) and target.op == "+"
    inner = target.args[0]
    assert isinstance(inner, ex.OpExpr) and inner.op == "*"
    assert run_query(db, query) == baseline


def test_pullup_refuses_aggregating_subquery(db):
    query = analyze(
        db, "SELECT m FROM (SELECT max(b) AS m FROM t) AS sub"
    )
    assert pull_up_node(query) is False
    assert query.range_table[0].kind is RTEKind.SUBQUERY


def test_pullup_refuses_limit_subquery(db):
    query = analyze(
        db, "SELECT a2 FROM (SELECT a AS a2 FROM t LIMIT 2) AS sub"
    )
    assert pull_up_node(query) is False


def test_pullup_nullable_side_requires_var_targets(db):
    # The subquery exports a constant; under the null-producing side of
    # a LEFT JOIN a pulled-up constant would survive null extension.
    sql = (
        "SELECT a, flag FROM t LEFT JOIN "
        "(SELECT x, 1 AS flag FROM s) AS marked ON a = x"
    )
    query = analyze(db, sql)
    baseline = run_query(db, query)
    changed = pull_up_node(query)
    assert changed is False  # constant target blocks the pull-up
    assert run_query(db, query) == baseline
    # Rows without a join partner must keep flag NULL.
    assert (3, None) in baseline


def test_pullup_nullable_side_var_targets_ok(db):
    sql = (
        "SELECT a, y2 FROM t LEFT JOIN "
        "(SELECT x AS x2, y AS y2 FROM s WHERE y > 100) AS sub ON a = x2"
    )
    query = analyze(db, sql)
    baseline = run_query(db, query)
    assert pull_up_node(query) is True
    kinds = [r.kind for r in query.range_table]
    assert kinds == [RTEKind.RELATION, RTEKind.RELATION]
    assert run_query(db, query) == baseline


def test_normalize_flattens_inner_joins(db):
    query = analyze(db, "SELECT a, x FROM t JOIN s ON a = x WHERE b > 0")
    baseline = run_query(db, query)
    assert normalize_jointree(query) is True
    assert len(query.jointree.items) == 2
    assert query.jointree.quals is not None  # ON folded into WHERE
    assert run_query(db, query) == baseline


# ---------------------------------------------------------------------------
# Projection pruning
# ---------------------------------------------------------------------------


def test_prune_drops_unused_subquery_outputs(db):
    query = analyze(
        db,
        "SELECT keep FROM "
        "(SELECT a AS keep, b AS dead1, c AS dead2, max(b) AS dead3 "
        " FROM t GROUP BY a, b, c) AS sub",
    )
    baseline = run_query(db, query)
    sub = query.range_table[0].subquery
    assert len(sub.visible_targets) == 4
    assert prune_query_tree(query) is True
    assert [t.name for t in sub.visible_targets] == ["keep"]
    assert query.range_table[0].column_names == ["keep"]
    assert run_query(db, query) == baseline


def test_prune_sets_relation_column_hints(db):
    query = analyze(db, "SELECT a FROM t WHERE b > 10")
    prune_query_tree(query)
    assert query.range_table[0].used_attnos == frozenset({0, 1})  # a, b


def test_prune_keeps_all_columns_without_hint(db):
    query = analyze(db, "SELECT a, b, c FROM t")
    prune_query_tree(query)
    assert query.range_table[0].used_attnos is None


def test_prune_never_shrinks_distinct_subqueries(db):
    query = analyze(
        db,
        "SELECT k FROM (SELECT DISTINCT a AS k, b AS v FROM t) AS sub",
    )
    baseline = run_query(db, query)
    prune_query_tree(query)
    sub = query.range_table[0].subquery
    assert len(sub.visible_targets) == 2  # dropping v would change dedup
    assert run_query(db, query) == baseline


def test_prune_grand_aggregate_placeholder_keeps_cardinality(db):
    # Parent uses no column of the aggregating subquery: the kept
    # placeholder must still aggregate (1 row), not scan (N rows).
    query = analyze(
        db, "SELECT 7 FROM (SELECT max(b) AS m FROM t) AS sub"
    )
    prune_query_tree(query)
    sub = query.range_table[0].subquery
    assert len(sub.visible_targets) == 1
    assert isinstance(sub.visible_targets[0].expr, ex.Aggref)
    assert run_query(db, query) == [(7,)]


# ---------------------------------------------------------------------------
# Predicate pushdown
# ---------------------------------------------------------------------------


def test_pushdown_into_union_operands(db):
    query = analyze(
        db,
        "SELECT v FROM (SELECT a AS v FROM t UNION ALL SELECT x AS v FROM s) "
        "AS u WHERE v <= 2",
    )
    baseline = run_query(db, query)
    assert push_down_node(query) is True
    assert query.jointree.quals is None  # fully absorbed
    setop = query.range_table[0].subquery
    for rte in setop.range_table:
        assert rte.subquery.jointree.quals is not None
    assert run_query(db, query) == baseline == [(1,), (1,), (2,), (2,), (2,)]


def test_pushdown_group_key_through_aggregation(db):
    query = analyze(
        db,
        "SELECT k, m FROM (SELECT a AS k, sum(b) AS m FROM t GROUP BY a) "
        "AS agg WHERE k = 2",
    )
    baseline = run_query(db, query)
    assert push_down_node(query) is True
    sub = query.range_table[0].subquery
    assert sub.jointree.quals is not None  # filter below the aggregation
    assert run_query(db, query) == baseline == [(2, 45)]


def test_pushdown_refuses_aggregate_output_filters(db):
    query = analyze(
        db,
        "SELECT k, m FROM (SELECT a AS k, sum(b) AS m FROM t GROUP BY a) "
        "AS agg WHERE m > 20",
    )
    baseline = run_query(db, query)
    assert push_down_node(query) is False
    assert run_query(db, query) == baseline


def test_pushdown_refuses_limit_subqueries(db):
    query = analyze(
        db,
        "SELECT v FROM (SELECT b AS v FROM t ORDER BY b LIMIT 2) AS sub "
        "WHERE v > 10",
    )
    baseline = run_query(db, query)
    assert push_down_node(query) is False
    assert run_query(db, query) == baseline


# ---------------------------------------------------------------------------
# Constant folding & cleanup
# ---------------------------------------------------------------------------


def test_fold_constant_arithmetic(db):
    query = analyze(db, "SELECT a FROM t WHERE b > 10 + 5")
    assert fold_node(query) is True
    conjunct = query.jointree.quals
    assert isinstance(conjunct, ex.OpExpr)
    assert conjunct.args[1] == ex.Const(15, conjunct.args[1].type)


def test_fold_date_interval_arithmetic(db):
    db.execute("CREATE TABLE ev (d date)")
    db.execute("INSERT INTO ev VALUES (DATE '1995-03-15')")
    query = analyze(
        db, "SELECT d FROM ev WHERE d < DATE '1995-01-01' + INTERVAL '1' YEAR"
    )
    fold_node(query)
    import datetime

    bound = query.jointree.quals.args[1]
    assert bound == ex.Const(datetime.date(1996, 1, 1), bound.type)


def test_fold_drops_where_true(db):
    query = analyze(db, "SELECT a FROM t WHERE 1 = 1")
    assert fold_node(query) is True
    assert query.jointree.quals is None


def test_fold_keeps_where_false(db):
    query = analyze(db, "SELECT a FROM t WHERE 1 = 2")
    fold_node(query)
    assert query.jointree.quals is not None
    assert run_query(db, query) == []


def test_fold_keeps_division_by_zero_for_run_time(db):
    query = analyze(db, "SELECT a FROM t WHERE b > 1 / 0")
    fold_node(query)
    bound = query.jointree.quals.args[1]
    assert isinstance(bound, ex.OpExpr) and bound.op == "/"  # not folded
    with pytest.raises(PermError, match="division by zero"):
        run_query(db, query)


def test_fold_surfaces_compiler_bugs(db, monkeypatch):
    from repro.executor.expr_eval import ExprCompiler

    def broken(self, expr):
        raise KeyError("compiler bug")

    monkeypatch.setattr(ExprCompiler, "compile", broken)
    query = analyze(db, "SELECT a FROM t WHERE b > 10 + 5")
    with pytest.raises(KeyError, match="compiler bug"):
        fold_node(query)


# ---------------------------------------------------------------------------
# OR factoring (part of fold)
# ---------------------------------------------------------------------------


def _is_eq(expr, left, right):
    return (
        isinstance(expr, ex.OpExpr) and expr.op == "="
        and [(v.varno, v.varattno) for v in expr.args] == [left, right]
    )


def test_fold_factors_common_conjunct_out_of_or(db):
    # The TPC-H Q19 shape: the join key repeated inside every OR arm.
    query = analyze(
        db,
        "SELECT a, y FROM t, s "
        "WHERE (a = x AND b > 10) OR (a = x AND y < 150) OR (b = 10 AND a = x)",
    )
    baseline = run_query(db, query)
    assert fold_node(query) is True
    quals = query.jointree.quals
    assert isinstance(quals, ex.BoolOpExpr) and quals.op == "and"
    key, rest = quals.args
    assert _is_eq(key, (0, 0), (1, 0))  # t.a = s.x, hoisted
    assert isinstance(rest, ex.BoolOpExpr) and rest.op == "or"
    assert len(rest.args) == 3
    assert not any(_is_eq(arg, (0, 0), (1, 0)) for arm in rest.args for arg in arm.args)
    assert run_query(db, query) == baseline


def test_fold_or_absorption(db):
    query = analyze(db, "SELECT a, b FROM t WHERE a = 2 OR (a = 2 AND b > 20)")
    baseline = run_query(db, query)
    assert fold_node(query) is True
    quals = query.jointree.quals
    assert isinstance(quals, ex.OpExpr) and quals.op == "="
    assert run_query(db, query) == baseline == [(2, 20), (2, 25)]


def test_fold_or_without_common_conjunct_is_untouched(db):
    query = analyze(db, "SELECT a FROM t WHERE (a = 1 AND b = 10) OR (a = 3 AND b = 30)")
    original = query.jointree.quals
    assert fold_node(query) is False
    assert query.jointree.quals is original


def test_fold_factors_inner_join_on(db):
    query = analyze(
        db, "SELECT a, y FROM t JOIN s ON (a = x AND b > 10) OR (a = x AND y > 150)"
    )
    baseline = run_query(db, query)
    assert fold_node(query) is True
    (join,) = query.jointree.items
    assert isinstance(join, JoinTreeExpr) and join.join_type == "inner"
    assert join.quals.op == "and" and _is_eq(join.quals.args[0], (0, 0), (1, 0))
    assert run_query(db, query) == baseline == [(2, 200), (2, 200)]


def test_fold_or_factoring_is_stable_on_second_pass(db):
    sql = "SELECT a FROM t, s WHERE b > 0 AND ((a = x AND c = 'q') OR (x = 9 AND a = x))"
    query = analyze(db, sql)
    assert fold_node(query) is True
    factored = repr(query.jointree.quals)
    assert fold_node(query) is False
    assert repr(query.jointree.quals) == factored
    # The planner's conjunct pool is the same list with or without folding.
    unfolded = analyze(db, sql).jointree.quals
    assert split_conjuncts(query.jointree.quals) == split_conjuncts(unfolded)


@pytest.mark.parametrize(
    "condition",
    ["(a AND x) OR (a AND y)", "a OR (a AND y)", "(x AND a) OR (y AND a) OR a"],
)
def test_fold_or_factoring_truth_table(db, condition):
    # Every assignment over {TRUE, FALSE, NULL}^3: the factored form agrees
    # with the original under three-valued logic.
    db.execute("CREATE TABLE tv (k integer, a boolean, x boolean, y boolean)")
    values = (True, False, None)
    db.load_table("tv", [
        (k, *abc) for k, abc in enumerate(itertools.product(values, repeat=3))
    ])
    sql = f"SELECT k, {condition} FROM tv"
    original = analyze(db, sql)
    factored = analyze(db, sql)
    assert fold_node(factored) is True
    assert repr(factored.target_list[1].expr) != repr(original.target_list[1].expr)
    rows = run_query(db, factored)
    assert len(rows) == 27
    assert rows == run_query(db, original)


def test_cleanup_drops_subquery_order_by(db):
    query = analyze(
        db, "SELECT v FROM (SELECT a AS v FROM t ORDER BY b DESC) AS sub"
    )
    optimize_query_tree(query)
    # The subquery was pulled up entirely; no ORDER BY survives anywhere.
    assert not query.sort_clause
    assert all(r.kind is RTEKind.RELATION for r in query.range_table)


def test_cleanup_keeps_order_by_with_limit(db):
    query = analyze(
        db, "SELECT v FROM (SELECT b AS v FROM t ORDER BY b DESC LIMIT 2) AS s2"
    )
    baseline = run_query(db, query)
    optimize_query_tree(query)
    sub = query.range_table[0].subquery
    assert sub.sort_clause and sub.limit_count is not None
    assert run_query(db, query) == baseline == [(25,), (30,)]


def test_redundant_distinct_under_set_semantics_union(db):
    query = analyze(
        db, "SELECT DISTINCT a FROM t UNION SELECT x FROM s"
    )
    baseline = run_query(db, query)
    optimize_query_tree(query)
    for rte in query.range_table:
        if rte.subquery is not None:
            assert rte.subquery.distinct is False
    assert run_query(db, query) == baseline


def test_distinct_kept_under_union_all(db):
    query = analyze(
        db, "SELECT DISTINCT a FROM t UNION ALL SELECT x FROM s"
    )
    baseline = run_query(db, query)
    optimize_query_tree(query)
    assert query.range_table[0].subquery.distinct is True
    assert run_query(db, query) == baseline


# ---------------------------------------------------------------------------
# Driver / rule toggles
# ---------------------------------------------------------------------------


def test_disable_rules_individually(db):
    sql = "SELECT v FROM (SELECT a AS v FROM t WHERE b > 10) AS sub"
    for rule in RULE_NAMES:
        query = analyze(db, sql)
        optimize_query_tree(query, disable={rule})
        # Every partial configuration must stay correct.
        assert run_query(db, query) == [(2,), (2,), (3,)]
    query = analyze(db, sql)
    optimize_query_tree(query, disable=set(RULE_NAMES))
    assert query.range_table[0].kind is RTEKind.SUBQUERY  # untouched


def test_optimizer_reaches_fixpoint_on_rewritten_trees(db):
    query = traverse_query_tree(
        analyze(db, "SELECT PROVENANCE a, count(*) FROM t GROUP BY a")
    )
    optimize_query_tree(query)
    before = repr(query.range_table) + repr(query.target_list)
    optimize_query_tree(query)  # second run must be a no-op
    assert repr(query.range_table) + repr(query.target_list) == before
