"""Parse→deparse→parse round-trips for rewritten query trees.

The rewrites emit ``IS NOT DISTINCT FROM`` joins and parenthesized
compound subselects; both now re-parse, so every rewritten tree must

1. deparse to SQL the repro parser accepts,
2. re-analyze and deparse to *identical* text (deparse is a fixpoint),
3. re-execute as ordinary SQL to the same multiset of rows as the
   direct ``SELECT PROVENANCE`` execution.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.query_tree import SetOpRangeRef
from repro.sql import ast
from repro.sql.deparse import deparse_query
from repro.sql.parser import parse_expression, parse_sql


@pytest.fixture
def db(example_db):
    return example_db


# Witness + polynomial rewrites across the three node classes.
ROUNDTRIP_QUERIES = [
    # SPJ
    "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE name, price FROM shop, sales, items "
    "WHERE name = sname AND itemid = id",
    "SELECT PROVENANCE (polynomial) name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE (polynomial) name FROM shop ORDER BY numempl",
    # ASPJ (null-safe group joins)
    "SELECT PROVENANCE name, count(*) AS c FROM shop, sales "
    "WHERE name = sname GROUP BY name",
    "SELECT PROVENANCE (polynomial) sname, count(*) AS c "
    "FROM sales GROUP BY sname ORDER BY c DESC",
    # Set operations (parenthesized compound subselects)
    "SELECT PROVENANCE name FROM shop UNION ALL SELECT sname FROM sales",
    "SELECT PROVENANCE name FROM shop INTERSECT SELECT sname FROM sales",
    "SELECT PROVENANCE sname FROM sales EXCEPT ALL SELECT name FROM shop",
    "SELECT PROVENANCE (polynomial) name FROM shop UNION SELECT sname FROM sales",
    # Sublinks (left-join attachment + IN filter)
    "SELECT PROVENANCE name FROM shop WHERE name IN (SELECT sname FROM sales)",
]


@pytest.mark.parametrize("sql", ROUNDTRIP_QUERIES)
def test_rewritten_tree_roundtrips(db, sql):
    rewritten = db.rewritten_sql(sql)

    statements = parse_sql(rewritten)  # 1. re-parses
    assert len(statements) == 1

    query = Analyzer(db.catalog).analyze(statements[0])
    assert deparse_query(query) == rewritten  # 2. deparse fixpoint

    direct = db.execute(sql)  # 3. same result as ordinary SQL
    replayed = db.execute(rewritten)
    assert replayed.columns == direct.columns
    assert Counter(map(repr, replayed.rows)) == Counter(map(repr, direct.rows))


def test_is_not_distinct_from_parses():
    expr = parse_expression("a IS NOT DISTINCT FROM b")
    assert isinstance(expr, ast.DistinctExpr)
    assert expr.negated is True
    expr = parse_expression("a IS DISTINCT FROM 3")
    assert isinstance(expr, ast.DistinctExpr)
    assert expr.negated is False


def test_is_null_still_parses():
    assert isinstance(parse_expression("a IS NULL"), ast.IsNullExpr)
    parsed = parse_expression("a IS NOT NULL")
    assert isinstance(parsed, ast.IsNullExpr) and parsed.negated


def test_null_safe_semantics_of_reparsed_form(db):
    db.execute("CREATE TABLE n (x integer)")
    db.execute("INSERT INTO n VALUES (1), (NULL)")
    rows = db.execute(
        "SELECT a.x, b.x FROM n AS a, n AS b WHERE a.x IS NOT DISTINCT FROM b.x"
    ).rows
    assert Counter(rows) == Counter([(1, 1), (None, None)])
    rows = db.execute(
        "SELECT a.x, b.x FROM n AS a, n AS b WHERE a.x IS DISTINCT FROM b.x"
    ).rows
    assert Counter(rows) == Counter([(1, None), (None, 1)])


def test_distinct_expr_printer_roundtrip():
    expr = parse_expression("a IS NOT DISTINCT FROM b")
    assert isinstance(parse_expression(str(expr)), ast.DistinctExpr)


# Set-operation trees whose grouping differs from what a flat chain means
# (the standard binds INTERSECT tighter; SQLite evaluates left to right).
NESTED_SETOP_TREES = [
    "SELECT name FROM shop UNION "
    "(SELECT sname FROM sales INTERSECT SELECT name FROM shop)",
    "(SELECT name FROM shop UNION SELECT sname FROM sales) "
    "INTERSECT SELECT name FROM shop WHERE numempl > 5",
    "SELECT name FROM shop EXCEPT "
    "(SELECT sname FROM sales EXCEPT SELECT name FROM shop WHERE numempl > 5)",
    "SELECT name FROM shop INTERSECT "
    "(SELECT sname FROM sales UNION ALL SELECT name FROM shop)",
    "(SELECT name FROM shop UNION ALL SELECT sname FROM sales) EXCEPT "
    "(SELECT name FROM shop WHERE numempl > 5 INTERSECT SELECT sname FROM sales)",
]


def _setop_shape(query, node=None):
    """The set-operation tree with every leaf replaced by its SQL text."""
    node = node or query.set_operations
    if isinstance(node, SetOpRangeRef):
        return deparse_query(query.range_table[node.rtindex].subquery)
    left, right = _setop_shape(query, node.left), _setop_shape(query, node.right)
    return (node.op, node.all, left, right)


@pytest.mark.parametrize("sql", NESTED_SETOP_TREES)
def test_nested_setop_tree_roundtrips(db, sql):
    query = Analyzer(db.catalog).analyze(parse_sql(sql)[0])
    text = deparse_query(query)
    reparsed = Analyzer(db.catalog).analyze(parse_sql(text)[0])
    assert _setop_shape(reparsed) == _setop_shape(query)  # parse(deparse(q)) ≡ q
    assert deparse_query(reparsed) == text
    assert Counter(db.execute(text).rows) == Counter(db.execute(sql).rows)
