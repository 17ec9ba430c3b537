"""The plan goldens: join-tree shape and estimates of the paper's workloads.

``python tests/planner/golden/generate.py`` (with ``PYTHONPATH=src:.``)
rewrites ``plans.json`` next to this script;
``tests/planner/test_plan_golden.py`` plans the same statements and
compares.  The statements are the ``repro.workloads`` trees (set
operations, SPJ, aggregation chains at numSub 2/4/6/8) and the 15 TPC-H
texts of ``tests/core/golden/generate.py``, each as its normal, witness
and polynomial twin, on TPC-H SF 0.001 (dbgen/qgen seed 42).

One entry per statement: ``shape`` is the physical plan, one line per
node — operator label, output width, for hash joins the key columns by
name (left = right, ``*`` marking null-safe keys) and for filtered
scans the pushed conjuncts (their ``$varno`` is the relation order) — and
``estimates`` the nodes' cardinality estimates in the same order.  The
shape is compared byte for byte, the estimates at 1e-9 relative, so a
change to how a join order is *found* must leave this file alone.  A
statement the rewriter rejects stores ``"!<ErrorType>: <message>"``.

The committed file was written by the planner of commit c0a5c38 (the
last one that priced every candidate split with expression-tree walks).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analyzer.analyzer import Analyzer
from repro.core.rewriter import traverse_query_tree
from repro.errors import PermError
from repro.executor.nodes import FilterNode, HashJoin, PlanNode, SeqScan
from repro.optimizer import optimize_query_tree
from repro.planner import make_planner
from repro.sql.parser import parse_sql
from repro.tpch.dbgen import tpch_database

from tests.core.golden.generate import WITNESS, tpch_cases, workload_cases

GOLDEN_PATH = Path(__file__).parent / "plans.json"
RELATIVE_TOLERANCE = 1e-9


def cases() -> dict[str, str]:
    """Case id -> SQL: the rewrite goldens' workload and TPC-H statements
    (``split`` strategy) plus the unmarked twin of each."""
    statements: dict[str, str] = {}
    for name, (sql, strategy) in (workload_cases() | tpch_cases()).items():
        if strategy != "split":
            continue
        statements[name] = sql
        if name.endswith(".witness"):
            normal = name.removesuffix(".witness") + ".normal"
            statements[normal] = sql.replace(WITNESS, "SELECT", 1)
    return statements


def render_plan(plan: PlanNode) -> tuple[str, list[float]]:
    """(shape text, per-node estimates) of a physical plan, pre-order."""
    lines: list[str] = []
    estimates: list[float] = []

    def visit(node: PlanNode, depth: int) -> None:
        detail = f"{node.label()} w={node.width()}"
        if isinstance(node, HashJoin):
            detail += " on " + ", ".join(_key_names(node))
        elif isinstance(node, (SeqScan, FilterNode)) and node.fusion is not None:
            # The pushed conjuncts name the range-table entry ($varno),
            # which is what tells eight filtered scans of ``part`` apart.
            detail += " where " + " and ".join(str(c) for c in node.fusion[1])
        lines.append("  " * depth + detail)
        estimates.append(float(node.estimate))
        for child in node.children():
            visit(child, depth + 1)

    visit(plan, 0)
    return "\n".join(lines), estimates


def _key_names(join: HashJoin) -> list[str]:
    left = getattr(join, "left_key_slots", None)
    right = getattr(join, "right_key_slots", None)
    if left is None or right is None:
        return [f"<{len(join.left_keys)} computed keys>"]
    return [
        f"{join.left.output_names[a]}{'*' if null_safe else ''}"
        f"={join.right.output_names[b]}"
        for a, b, null_safe in zip(left, right, join.null_safe)
    ]


def rendered() -> dict[str, dict]:
    db = tpch_database(scale_factor=0.001, seed=42)
    entries: dict[str, dict] = {}
    for name, sql in cases().items():
        entry: dict = {"sql": sql}
        try:
            query = Analyzer(db.catalog).analyze(parse_sql(sql)[0])
            query = optimize_query_tree(traverse_query_tree(query))
            plan = make_planner(db.catalog, vectorize=True).plan(query)
        except PermError as exc:
            entry["shape"] = f"!{type(exc).__name__}: {exc}"
            entry["estimates"] = []
        else:
            entry["shape"], entry["estimates"] = render_plan(plan)
        entries[name] = entry
    return entries


if __name__ == "__main__":
    entries = rendered()
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN_PATH.name}: {len(entries)} cases, {GOLDEN_PATH.stat().st_size} bytes")
