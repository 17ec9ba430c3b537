"""Sharded scatter-gather benchmark — shard-pruned TPC-H provenance.

The tentpole claim of the sharded backend: hash-partitioning the
catalog over N child backends turns shard-key-prunable provenance
queries into fractional scans.  An equality / IN-list / co-partitioned
join predicate on the shard key routes the rewritten query to one
shard, so at 4 shards the pruned scan touches a quarter of the heap —
a ≥ 2× geometric-mean speedup that is *algorithmic*, valid on a single
core (it needs pruning, not parallel hardware).

The workload has two parts:

* **prunable queries** — witness-provenance point lookups, an IN list
  whose keys share one residue mod 4 (so all route to a single shard),
  and a co-partitioned orders⋈lineitem join pinned to one order; these
  carry the ≥ 2× full-run gate;
* **unpruned queries** — full-scan witness provenance and polynomial
  aggregation touching every shard; these gate at parity (a sharded
  deployment must not tax queries pruning cannot help — bound 1.15×).

Methodology: warm both configurations once, interleave per
repetition, keep per-configuration minima.  Emits
``BENCH_sharded.json`` including ``cpu_count`` — pruning gates hold on
any host; wall-clock *parallel* effects are informational only.
``PERM_BENCH_QUICK=1`` shrinks the query set and repeat count.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time

import pytest

from benchmarks._support import fmt_factor, fmt_seconds
from repro.database import PermDatabase
from repro.tpch.dbgen import generate, load_into

QUICK = bool(os.environ.get("PERM_BENCH_QUICK"))
REPEATS = 5 if QUICK else 7
TIME_BUDGET = 0.3 if QUICK else 0.8
MAX_REPEATS = 60
SCALE_FACTOR = 0.005  # the _support "medium" size: ~30k lineitem rows.
# Below this, per-query scatter overhead (4 child dispatches + 4
# result objects + the gather merge) dominates SF-tiny scans and the
# parity gate measures fixed overhead instead of the merge path it is
# meant to guard.
SHARDS = 4

JSON_PATH = os.environ.get("PERM_BENCH_SHARDED_JSON", "BENCH_sharded.json")

#: tag -> (sql, prunable).  Keys 3/7/11 all satisfy k % 4 == 3, so the
#: IN list routes to exactly one of the four shards; order 3's lineitems
#: co-partition with it through the l_orderkey = o_orderkey closure.
WORKLOAD: dict[str, tuple[str, bool]] = {
    "orders point lookup": (
        "SELECT PROVENANCE * FROM orders WHERE o_orderkey = 3",
        True,
    ),
    "orders in-list": (
        "SELECT PROVENANCE * FROM orders WHERE o_orderkey IN (3, 7, 11)",
        True,
    ),
    "lineitem point lookup": (
        "SELECT PROVENANCE l_linenumber, l_quantity, l_extendedprice "
        "FROM lineitem WHERE l_orderkey = 7",
        True,
    ),
    "co-partitioned join": (
        "SELECT PROVENANCE o_orderkey, l_extendedprice "
        "FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey AND o_orderkey = 3",
        True,
    ),
    "pruned aggregate": (
        "SELECT PROVENANCE (polynomial) l_orderkey, count(*), "
        "sum(l_quantity) FROM lineitem WHERE l_orderkey = 11 "
        "GROUP BY l_orderkey",
        True,
    ),
    "full-scan witness": (
        "SELECT PROVENANCE l_orderkey, l_extendedprice FROM lineitem "
        "WHERE l_discount > 0.05",
        False,
    ),
    "full-scan aggregate": (
        "SELECT PROVENANCE (polynomial) l_orderkey, sum(l_extendedprice) "
        "FROM lineitem GROUP BY l_orderkey",
        False,
    ),
    "full-scan top-k": (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10",
        False,
    ),
}

QUERIES = (
    ("orders point lookup", "orders in-list", "full-scan witness")
    if QUICK
    else tuple(WORKLOAD)
)

_DB_CACHE: dict[bool, PermDatabase] = {}
_DATA = None

#: results[tag] = {"sharded": s, "unsharded": s, "prunable": bool}
_RESULTS: dict[str, dict] = {}


def _db(sharded: bool) -> PermDatabase:
    global _DATA
    if sharded not in _DB_CACHE:
        if _DATA is None:
            _DATA = generate(SCALE_FACTOR, seed=42)
        db = PermDatabase(shards=SHARDS if sharded else None)
        load_into(db, _DATA)
        db.execute("ANALYZE")
        if sharded:
            # build the shard mirrors outside the timed region
            db.backend.partitioner.sync()
        _DB_CACHE[sharded] = db
    return _DB_CACHE[sharded]


def _blur(row: tuple) -> tuple:
    return tuple(
        f"{value:.6g}" if isinstance(value, float) else repr(value)
        for value in row
    )


def _timed_interleaved(sql: str):
    """Best-of-N warm timings, sharded/unsharded interleaved."""
    best = {"sharded": float("inf"), "unsharded": float("inf")}
    rows: dict[str, list] = {}
    for sharded in (True, False):
        _db(sharded).execute(sql)  # warm plan/decision caches, mirrors
    gc.collect()
    gc.disable()
    spent = 0.0
    repeats = 0
    try:
        while repeats < REPEATS or (
            spent < TIME_BUDGET and repeats < MAX_REPEATS
        ):
            for tag, sharded in (("sharded", True), ("unsharded", False)):
                db = _db(sharded)
                start = time.perf_counter()
                result = db.execute(sql)
                elapsed = time.perf_counter() - start
                best[tag] = min(best[tag], elapsed)
                spent += elapsed
                rows[tag] = sorted(map(_blur, result.rows))
            repeats += 1
    finally:
        gc.enable()
    return best, rows


def _run_case(figures, tag: str) -> None:
    sql, prunable = WORKLOAD[tag]
    figures.configure(
        "sharded",
        f"Shard-pruned TPC-H provenance: {SHARDS} shards vs unsharded",
        ["sharded", "unsharded", "speedup"],
    )
    best, rows = _timed_interleaved(sql)
    assert rows["sharded"] == rows["unsharded"], (
        f"sharding changed {tag} results"
    )
    _RESULTS[tag] = {**best, "prunable": prunable}
    speedup = best["unsharded"] / best["sharded"]
    figures.record("sharded", tag, "sharded", fmt_seconds(best["sharded"]))
    figures.record("sharded", tag, "unsharded", fmt_seconds(best["unsharded"]))
    figures.record("sharded", tag, "speedup", fmt_factor(speedup))


@pytest.mark.parametrize("tag", QUERIES)
def test_sharded_speedup(benchmark, figures, tag):
    benchmark.pedantic(
        lambda: _run_case(figures, tag),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_sharded_gate(figures):
    """Aggregate gates + BENCH_sharded.json emission.

    * prunable queries: ≥ 2× geometric-mean speedup at 4 shards (full
      run; algorithmic, so it binds on 1-core hosts too);
    * unpruned queries: none more than 1.15× slower sharded (quick and
      full) — scatter and merge overhead must stay in the noise.
    """
    if len(_RESULTS) < len(QUERIES):
        pytest.skip("per-query measurements incomplete")
    speedups = {
        tag: timing["unsharded"] / timing["sharded"]
        for tag, timing in _RESULTS.items()
    }
    prunable = [s for tag, s in speedups.items() if _RESULTS[tag]["prunable"]]
    unpruned = {
        tag: s for tag, s in speedups.items() if not _RESULTS[tag]["prunable"]
    }
    pruned_geomean = _geomean(prunable) if prunable else None
    if pruned_geomean is not None:
        figures.record(
            "sharded", "geomean (prunable)", "speedup",
            fmt_factor(pruned_geomean),
        )

    payload = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            payload = json.load(handle)
    section = payload.setdefault("quick" if QUICK else "full", {})
    section["scale_factor"] = SCALE_FACTOR
    section["shards"] = SHARDS
    section["cpu_count"] = os.cpu_count()
    if pruned_geomean is not None:
        section["prunable_geomean_speedup"] = round(pruned_geomean, 3)
    if unpruned:
        section["unpruned_worst_speedup"] = round(min(unpruned.values()), 3)
    section["queries"] = {
        tag: {
            "sharded_seconds": round(timing["sharded"], 6),
            "unsharded_seconds": round(timing["unsharded"], 6),
            "speedup": round(timing["unsharded"] / timing["sharded"], 3),
            "prunable": timing["prunable"],
        }
        for tag, timing in sorted(_RESULTS.items())
    }
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    for tag, speedup in unpruned.items():
        assert speedup >= 1 / 1.15, (
            f"unpruned query {tag!r} runs more than 1.15x slower sharded "
            f"({speedup:.2f}x speedup)"
        )
    if not QUICK and pruned_geomean is not None:
        assert pruned_geomean >= 2.0, (
            f"prunable geometric-mean speedup {pruned_geomean:.2f}x "
            "below the 2x target"
        )
