"""The one scan→filter→project path.

A chain runs as a ``SeqScan`` applying its pushed predicate kernels,
under a ``SliceNode`` or ``ProjectNode``: the planner generates no
per-chain source code.  Results of random pipelines are checked against
SQLite in tests/backends/test_differential.py; here the plan shape, its
instrumentation and the absence of code generation are pinned.
"""

from __future__ import annotations

import builtins
import sys

import pytest

import repro
from repro.planner import make_planner
from repro.sql.parser import parse_sql


@pytest.fixture()
def db():
    database = repro.connect()
    database.execute("CREATE TABLE t (a integer, b integer, s text)")
    database.execute(
        "INSERT INTO t VALUES (1, 2, 'ab'), (3, 4, 'ba'), "
        "(NULL, 5, NULL), (7, 0, 'abc')"
    )
    return database


def _compile_calls(fn) -> int:
    """``builtins.compile`` calls made while ``fn()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and arg is builtins.compile:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT a + b FROM t WHERE a > 1 AND b < 5",
        "SELECT PROVENANCE a, s FROM t WHERE a > 1 AND s LIKE 'a%'",
        # The ``setop_except2`` workload shape: two range-filtered scans
        # of one table under EXCEPT, marked for provenance.
        "SELECT PROVENANCE * FROM ((SELECT a, s, b FROM t WHERE a >= 1 AND a <= 3) "
        "EXCEPT (SELECT a, s, b FROM t WHERE a >= 3 AND a <= 7)) AS x",
    ],
    ids=["project", "witness", "setop_except2"],
)
def test_planning_a_filtered_chain_compiles_no_code(db, sql):
    (stmt,) = parse_sql(sql)
    query, _ = db._analyze_and_rewrite(stmt)
    # The first plan may still import modules the planner loads lazily
    # (their import compiles source); every plan after it must not.
    plan = make_planner(db.catalog).plan(query)
    assert _compile_calls(lambda: make_planner(db.catalog).plan(query)) == 0
    assert _compile_calls(lambda: compile("1", "<counted>", "eval")) == 1
    assert "SeqScan on t (filtered)" in plan.explain()


def test_filtered_projection_runs_the_plain_operators(db):
    sql = "SELECT a + b FROM t WHERE a > 1 AND b < 5"
    # Both conjuncts merge into the scan: no FilterNode, no wrapper.
    assert db.explain(sql).endswith(
        "-- physical plan --\n-> ProjectNode\n  -> SeqScan on t (filtered) [2 cols]"
    )
    # NULL a: the comparison is unknown and the row is dropped.
    assert sorted(db.execute(sql).rows) == [(7,), (7,)]


def test_explain_analyze_counts_rows_per_operator(db):
    text = db.explain("SELECT a FROM t WHERE a > 1", analyze=True)
    plan = text.split("-- physical plan (analyzed, vectorized) --\n")[1]
    slice_line, scan_line = plan.splitlines()[:2]
    assert slice_line.startswith("-> SliceNode") and "actual rows=2" in slice_line
    assert scan_line.startswith("  -> SeqScan on t (filtered)") and "actual rows=2" in scan_line
