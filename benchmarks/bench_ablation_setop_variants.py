"""Ablation -- set-operation rewrite strategies (paper Fig. 6.3a vs 6.3b).

The evaluated prototype used the node-splitting strategy (3b) for all
set operations; the paper's section VI expects "a significant speedup
using the other set rewrite variant (3.a), because it omits the creation
of unnecessary intermediate results".  This ablation measures both
strategies on except-free set-operation trees.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from benchmarks._support import fmt_seconds, tpch_db
from benchmarks.conftest import run_once
from repro.analyzer.analyzer import Analyzer
from repro.core.rewriter import traverse_query_tree
from repro.planner import Planner
from repro.executor.context import ExecContext
from repro.sql.parser import parse_statement
from repro.workloads import setop_queries

QUERIES_PER_POINT = 8
SWEEP = (2, 3, 4, 5)


def _run_with_strategy(db, queries, strategy: str) -> tuple[float, list]:
    start = time.perf_counter()
    outputs = []
    for sql in queries:
        query = Analyzer(db.catalog).analyze(parse_statement(sql))
        rewritten = traverse_query_tree(query, setop_strategy=strategy)
        plan = Planner(db.catalog).plan(rewritten)
        outputs.append(Counter(plan.run(ExecContext())))
    return time.perf_counter() - start, outputs


@pytest.mark.parametrize("num_setops", SWEEP)
def test_ablation_setop_strategy(benchmark, figures, num_setops):
    figures.configure(
        "ablation-setop",
        "Set-op rewrite strategy: split (Fig 6.3b, evaluated) vs flat (Fig 6.3a)",
        ["split", "flat", "speedup"],
    )
    db = tpch_db("medium")
    max_key = db.catalog.table("part").row_count()
    # Homogeneous union trees: the flat strategy is only defined for
    # single-operator except-free trees (see rewriter docstring).
    queries = setop_queries(
        num_setops, QUERIES_PER_POINT, max_key, seed=9, provenance=True,
        operator="UNION",
    )

    split_time, split_results = _run_with_strategy(db, queries, "split")
    flat_time, flat_results = run_once(
        benchmark, lambda: _run_with_strategy(db, queries, "flat")
    )

    # Both strategies must compute identical provenance (as bags).
    for split_bag, flat_bag in zip(split_results, flat_results):
        assert split_bag == flat_bag

    figures.record("ablation-setop", num_setops, "split", fmt_seconds(split_time))
    figures.record("ablation-setop", num_setops, "flat", fmt_seconds(flat_time))
    figures.record(
        "ablation-setop", num_setops, "speedup", f"{split_time / flat_time:.2f}x"
    )
