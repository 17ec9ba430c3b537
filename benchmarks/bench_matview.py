"""Materialized provenance view benchmark — the matview PR's claim.

A mixed insert/read workload runs against twin TPC-H databases: one
answers ``SELECT PROVENANCE`` reads from a materialized provenance
view (delta-maintained on every insert), the other re-runs the full
provenance rewrite and execution for every read.  Both see the exact
same statement stream and the final answers are asserted identical, so
the measured gap is purely materialization + semiring delta
maintenance vs. recomputation.

The gate is a ≥ 10× workload speedup for the view-backed database.
Methodology follows ``bench_serving``: fresh state
per repetition, configurations interleaved, best-of-N kept, garbage
collected before each timing window.  ``PERM_BENCH_QUICK=1`` shrinks
rounds and repeats for the CI smoke job.  Honest numbers land in
``BENCH_matview.json``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from collections import Counter

import pytest

import repro
from benchmarks._support import fmt_factor, fmt_seconds
from repro.tpch.dbgen import generate, load_into

QUICK = bool(os.environ.get("PERM_BENCH_QUICK"))
REPEATS = 2 if QUICK else 4
ROUNDS = 4 if QUICK else 8          # insert rounds per workload
READS_PER_ROUND = 3 if QUICK else 5  # provenance reads after each insert
SCALE_FACTOR = 0.002                 # SF-tiny: lineitem ~12k rows

JSON_PATH = os.environ.get("PERM_BENCH_MATVIEW_JSON", "BENCH_matview.json")

_DATA = None

#: results[tag] = {"direct": seconds, "view": seconds}
_RESULTS: dict[str, dict[str, float]] = {}


def _cases() -> list[tuple[str, str]]:
    witness_join = (
        "SELECT PROVENANCE o_orderkey, o_totalprice, l_quantity "
        "FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND l_quantity > 10"
    )
    poly_scan = (
        "SELECT PROVENANCE (polynomial) l_orderkey, l_quantity "
        "FROM lineitem WHERE l_quantity > 45"
    )
    cases = [("witness join", witness_join), ("polynomial scan", poly_scan)]
    if QUICK:
        return cases
    cases.append((
        "witness scan",
        "SELECT PROVENANCE l_orderkey, l_quantity FROM lineitem "
        "WHERE l_quantity > 45",
    ))
    return cases


def _fresh_db() -> repro.PermDatabase:
    global _DATA
    if _DATA is None:
        _DATA = generate(SCALE_FACTOR, seed=42)
    db = repro.connect()
    load_into(db, _DATA)
    db.analyze()
    return db


def _insert_sql(round_index: int) -> str:
    key = 900000 + round_index
    return (
        f"INSERT INTO lineitem VALUES ({key}, 1, 1, 1, 50, 5000.0, "
        "0.01, 0.02, 'N', 'O', '1997-01-01', '1997-01-02', '1997-01-03', "
        "'NONE', 'TRUCK', 'bench delta row')"
    )


def _run_workload(db, body: str):
    """ROUNDS × (1 insert + READS_PER_ROUND provenance reads)."""
    result = None
    for round_index in range(ROUNDS):
        db.execute(_insert_sql(round_index))
        for _ in range(READS_PER_ROUND):
            result = db.execute(body)
    return result


def _timed_interleaved(body: str):
    best = {"direct": float("inf"), "view": float("inf")}
    final_rows: dict[str, Counter] = {}
    for repetition in range(REPEATS):
        pairs = ["direct", "view"]
        if repetition % 2:
            pairs.reverse()
        for tag in pairs:
            db = _fresh_db()
            if tag == "view":
                db.execute(
                    f"CREATE MATERIALIZED PROVENANCE VIEW bench_v AS {body}"
                )
                view = db.catalog.matview("bench_v")
                assert view.incremental_eligible, view.ineligible_reason
            gc.collect()
            start = time.perf_counter()
            result = _run_workload(db, body)
            best[tag] = min(best[tag], time.perf_counter() - start)
            final_rows[tag] = Counter(result.rows)
            if tag == "view":
                # Reads came from the view and inserts were applied by
                # delta maintenance, not recomputation.
                assert view.served_reads == ROUNDS * READS_PER_ROUND
                assert view.incremental_refreshes == ROUNDS
                assert view.full_refreshes == 1  # the CREATE only
    assert final_rows["direct"] == final_rows["view"]
    return best


@pytest.mark.parametrize("tag,body", _cases(), ids=[t for t, _ in _cases()])
def test_matview_workload_speedup(benchmark, figures, tag, body):
    figures.configure(
        "matview",
        "Materialized provenance views vs per-read recomputation "
        f"({ROUNDS} inserts x {READS_PER_ROUND} reads)",
        ["direct", "view", "speedup"],
    )

    def run():
        best = _timed_interleaved(body)
        _RESULTS[tag] = dict(best)
        speedup = best["direct"] / best["view"]
        figures.record("matview", tag, "direct", fmt_seconds(best["direct"]))
        figures.record("matview", tag, "view", fmt_seconds(best["view"]))
        figures.record("matview", tag, "speedup", fmt_factor(speedup))

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_matview_gate(figures):
    """≥ 10× speedup gate + BENCH_matview.json emission."""
    expected = len(_cases())
    if len(_RESULTS) < expected:
        pytest.skip("per-case measurements incomplete")
    speedups = {
        tag: timing["direct"] / timing["view"]
        for tag, timing in _RESULTS.items()
    }
    geomean = _geomean(list(speedups.values()))
    figures.record("matview", "geomean", "speedup", fmt_factor(geomean))

    payload = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            payload = json.load(handle)
    section = payload.setdefault("quick" if QUICK else "full", {})
    section["scale_factor"] = SCALE_FACTOR
    section["rounds"] = ROUNDS
    section["reads_per_round"] = READS_PER_ROUND
    section["note"] = (
        "Twin databases run the identical insert/read stream; the view "
        "side serves reads from the materialized annotated result and "
        "applies each insert through semiring delta maintenance, the "
        "direct side re-runs the provenance rewrite and execution per "
        "read. Final answers are asserted identical."
    )
    section["workload"] = {
        "geomean_speedup": round(geomean, 3),
        "worst_speedup": round(min(speedups.values()), 3),
        "queries": {
            tag: {
                "direct_seconds": round(timing["direct"], 4),
                "view_seconds": round(timing["view"], 4),
                "speedup": round(timing["direct"] / timing["view"], 3),
            }
            for tag, timing in _RESULTS.items()
        },
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    worst = min(speedups.values())
    assert worst >= 10.0, (
        f"materialized view speedup gate: worst case {worst:.1f}x < 10x "
        f"({speedups})"
    )
