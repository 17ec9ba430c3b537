"""Planner benchmark — cost-based vs heuristic planning, TPC-H provenance.

The tentpole claim of the planner split: with ANALYZE statistics, the
statistics-driven planner (GOO join ordering, build-side swapping,
late-materialization slice pushdown, bounded batch sizes) beats the
PR-4 heuristic planner by ≥ 1.2× geometric mean on TPC-H SF-tiny
provenance queries — witness and polynomial forms — with Q7 and Q9
(the queries the heuristic's subquery-last left-deep order stalled at
~1×) specifically faster, no query more than 10% slower, and identical
result multisets (float summation tolerance: different join orders
regroup the fold).

The wins come from cardinality-aware ordering: Q9's provenance core
routes through the selective ``part`` filter before touching
``lineitem`` (837 intermediate rows instead of 11,928 wide ones), and
Q7 joins its two ``nation`` scans on the OR-of-name-pairs condition
first (625 cheap pairs, ~2 survivors) instead of dragging the full
lineitem stream through five joins.

Methodology: warm once (statement cache, plan cache, columnar heap
caches, ANALYZE for the cost-based side), then interleave the two
configurations per repetition and keep the per-configuration minimum.
Both configurations run the one (batch, fused) executor; only the
planner differs.

Emits ``BENCH_planner.json``; the CI smoke gate (quick mode) fails when
any query is more than 1.25× slower cost-based, and the full run
additionally enforces the ≥ 1.2× geometric-mean speedup, the Q7/Q9
wins, and the 10% per-query regression bound.
``PERM_BENCH_QUICK=1`` shrinks the query set and repeat count.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from benchmarks._support import fmt_factor, fmt_seconds
from repro.database import PermDatabase
from repro.tpch.dbgen import generate, load_into
from repro.tpch.qgen import generate_query
from repro.tpch.queries import SUPPORTED_QUERIES

QUICK = bool(os.environ.get("PERM_BENCH_QUICK"))
WITNESS_QUERIES = (3, 7, 9, 12) if QUICK else SUPPORTED_QUERIES
POLYNOMIAL_QUERIES = (3, 12) if QUICK else (1, 3, 6, 12)
REPEATS = 3 if QUICK else 7
SCALE_FACTOR = 0.002  # SF-tiny

JSON_PATH = os.environ.get("PERM_BENCH_PLANNER_JSON", "BENCH_planner.json")

_DB_CACHE: dict[bool, PermDatabase] = {}
_DATA = None

#: results[tag] = {"cost_based": seconds, "heuristic": seconds}
_RESULTS: dict[str, dict[str, float]] = {}


def _db(cost_based: bool) -> PermDatabase:
    global _DATA
    if cost_based not in _DB_CACHE:
        if _DATA is None:
            _DATA = generate(SCALE_FACTOR, seed=42)
        db = PermDatabase(cost_based=cost_based)
        load_into(db, _DATA)
        if cost_based:
            db.analyze()
        _DB_CACHE[cost_based] = db
    return _DB_CACHE[cost_based]


def _blur(row: tuple) -> tuple:
    return tuple(
        f"{value:.6g}" if isinstance(value, float) else repr(value)
        for value in row
    )


def _timed_interleaved(sql: str):
    """Best-of-N warm timings, cost-based/heuristic interleaved.

    A full collection runs before every repetition: the polynomial
    workloads allocate millions of objects, and carrying another
    query's garbage into a timing window is the dominant noise source.
    """
    import gc

    best = {"cost_based": float("inf"), "heuristic": float("inf")}
    rows: dict[str, list] = {}
    for cost_based in (True, False):
        _db(cost_based).execute(sql)  # warm caches in both configurations
    for repetition in range(REPEATS):
        gc.collect()
        pairs = (("cost_based", True), ("heuristic", False))
        if repetition % 2:
            pairs = tuple(reversed(pairs))
        for tag, cost_based in pairs:
            db = _db(cost_based)
            start = time.perf_counter()
            result = db.execute(sql)
            best[tag] = min(best[tag], time.perf_counter() - start)
            rows[tag] = sorted(map(_blur, result.rows))
    return best, rows


def _sql(number: int, polynomial: bool) -> str:
    sql = generate_query(number, seed=11, provenance=True)
    if polynomial:
        sql = sql.replace("SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1)
    return sql


def _run_case(figures, tag: str, sql: str) -> None:
    figures.configure(
        "planner",
        "TPC-H provenance planning: cost-based vs heuristic planner",
        ["cost_based", "heuristic", "speedup"],
    )
    best, rows = _timed_interleaved(sql)
    assert rows["cost_based"] == rows["heuristic"], (
        f"cost-based planner changed {tag} results"
    )
    _RESULTS[tag] = dict(best)
    speedup = best["heuristic"] / best["cost_based"]
    figures.record("planner", tag, "cost_based", fmt_seconds(best["cost_based"]))
    figures.record("planner", tag, "heuristic", fmt_seconds(best["heuristic"]))
    figures.record("planner", tag, "speedup", fmt_factor(speedup))


@pytest.mark.parametrize("number", WITNESS_QUERIES)
def test_witness_provenance_speedup(benchmark, figures, number):
    sql = _sql(number, polynomial=False)
    benchmark.pedantic(
        lambda: _run_case(figures, f"Q{number}", sql),
        rounds=1, iterations=1, warmup_rounds=0,
    )


@pytest.mark.parametrize("number", POLYNOMIAL_QUERIES)
def test_polynomial_provenance_speedup(benchmark, figures, number):
    sql = _sql(number, polynomial=True)
    benchmark.pedantic(
        lambda: _run_case(figures, f"Q{number} poly", sql),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_planner_gate(figures):
    """Aggregate gates + BENCH_planner.json emission.

    * no query may run more than 1.25× slower cost-based than with the
      heuristic planner (CI smoke criterion, quick and full);
    * the full run must show a ≥ 1.2× geometric-mean speedup across the
      witness + polynomial provenance workload, Q7 and Q9 must be
      strictly faster, and no query more than 10% slower.
    """
    expected = len(WITNESS_QUERIES) + len(POLYNOMIAL_QUERIES)
    if len(_RESULTS) < expected:
        pytest.skip("per-query measurements incomplete")
    speedups = {
        tag: timing["heuristic"] / timing["cost_based"]
        for tag, timing in _RESULTS.items()
    }
    geomean = _geomean(list(speedups.values()))
    figures.record("planner", "geomean", "speedup", fmt_factor(geomean))

    payload = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            payload = json.load(handle)
    section = payload.setdefault("quick" if QUICK else "full", {})
    section["scale_factor"] = SCALE_FACTOR
    section["geomean_speedup"] = round(geomean, 3)
    section["worst_speedup"] = round(min(speedups.values()), 3)
    section["queries"] = {
        tag: {
            "cost_based_seconds": round(timing["cost_based"], 6),
            "heuristic_seconds": round(timing["heuristic"], 6),
            "speedup": round(timing["heuristic"] / timing["cost_based"], 3),
        }
        for tag, timing in sorted(_RESULTS.items())
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    worst = min(speedups, key=speedups.get)
    assert speedups[worst] >= 0.8, (
        f"{worst} runs more than 1.25x slower cost-based "
        f"({speedups[worst]:.2f}x speedup)"
    )
    if not QUICK:
        assert geomean >= 1.2, (
            f"geometric-mean speedup {geomean:.2f}x below the 1.2x target"
        )
        for q in ("Q7", "Q9"):
            assert speedups[q] > 1.0, (
                f"{q} must be faster under the cost-based planner "
                f"({speedups[q]:.2f}x)"
            )
        assert speedups[worst] >= 0.9, (
            f"{worst} regressed more than 10% ({speedups[worst]:.2f}x speedup)"
        )
