"""Serving benchmark — morsel-driven parallelism and the asyncio server.

Two claims from the serving PR are measured here:

1. **Intra-query parallelism**: scan-heavy TPC-H (provenance) queries
   run with the morsel dispatcher at 4 workers vs. the serial engine.
   On a multi-core host the target is a ≥ 1.5× speedup on the eligible
   pipelines; on a single-core host (or under the GIL with CPU-bound
   Python work generally) the dispatcher adds coordination overhead
   without adding compute, so the gate is only enforced when
   ``os.cpu_count() >= 4``.  Either way the benchmark asserts the
   parallel results are identical to serial and records the honest
   numbers plus the host's ``cpu_count`` in ``BENCH_serving.json``.

2. **Server under concurrency**: ``CLIENTS`` threads each open a
   ``PermClient`` session against one served database and fire a mixed
   query workload.  Every answer is checked against the embedded
   engine's answer (zero-wrong-answers gate), and the run reports
   QPS and p50/p99/max latency from the client side plus the server's
   own counters.

Methodology: warm both configurations first,
interleave per repetition, keep per-configuration minima, collect
garbage before each timing window.  ``PERM_BENCH_QUICK=1`` shrinks the
query set, client count, and repeat count for the CI smoke job.
"""

from __future__ import annotations

import gc
import json
import math
import os
import threading
import time

import pytest

import repro
from benchmarks._support import fmt_factor, fmt_seconds
from repro.database import PermDatabase
from repro.server import PermClient, start_in_thread
from repro.server.stats import percentile
from repro.tpch.dbgen import generate, load_into
from repro.tpch.qgen import generate_query

QUICK = bool(os.environ.get("PERM_BENCH_QUICK"))
REPEATS = 3 if QUICK else 7
PARALLEL_WORKERS = 4
CLIENTS = 25 if QUICK else 100
QUERIES_PER_CLIENT = 4 if QUICK else 10
SCALE_FACTOR = 0.002  # SF-tiny: lineitem ~12k rows, past the morsel threshold

JSON_PATH = os.environ.get("PERM_BENCH_SERVING_JSON", "BENCH_serving.json")

_DB_CACHE: dict[int, PermDatabase] = {}
_DATA = None

#: results[tag] = {"serial": seconds, "parallel": seconds}
_RESULTS: dict[str, dict[str, float]] = {}
_SERVING: dict[str, object] = {}


def _parallel_cases() -> list[tuple[str, str]]:
    scan_witness = (
        "SELECT PROVENANCE l_orderkey, l_quantity FROM lineitem "
        "WHERE l_quantity > 30"
    )
    agg_poly = (
        "SELECT PROVENANCE (polynomial) l_returnflag, count(*) "
        "FROM lineitem GROUP BY l_returnflag"
    )
    cases = [
        ("Q1", generate_query(1, seed=11)),
        ("Q6", generate_query(6, seed=11)),
        ("Q6 witness", generate_query(6, seed=11, provenance=True)),
        ("scan witness", scan_witness),
        ("agg poly", agg_poly),
    ]
    if QUICK:
        cases = [cases[0], cases[2], cases[3]]
    return cases


def _db(workers: int) -> PermDatabase:
    global _DATA
    if workers not in _DB_CACHE:
        if _DATA is None:
            _DATA = generate(SCALE_FACTOR, seed=42)
        db = repro.connect(parallel_workers=workers)
        load_into(db, _DATA)
        db.analyze()
        _DB_CACHE[workers] = db
    return _DB_CACHE[workers]


def _blur(row: tuple) -> tuple:
    return tuple(
        f"{value:.6g}" if isinstance(value, float) else repr(value)
        for value in row
    )


def _timed_interleaved(sql: str):
    """Best-of-N warm timings, serial/parallel interleaved."""
    best = {"serial": float("inf"), "parallel": float("inf")}
    rows: dict[str, list] = {}
    for workers in (1, PARALLEL_WORKERS):
        _db(workers).execute(sql)  # warm caches in both configurations
    for repetition in range(REPEATS):
        gc.collect()
        pairs = (("serial", 1), ("parallel", PARALLEL_WORKERS))
        if repetition % 2:
            pairs = tuple(reversed(pairs))
        for tag, workers in pairs:
            db = _db(workers)
            start = time.perf_counter()
            result = db.execute(sql)
            best[tag] = min(best[tag], time.perf_counter() - start)
            rows[tag] = sorted(map(_blur, result.rows))
    return best, rows


def _run_case(figures, tag: str, sql: str) -> None:
    figures.configure(
        "serving-parallel",
        f"Morsel-driven parallelism at {PARALLEL_WORKERS} workers vs serial",
        ["serial", "parallel", "speedup"],
    )
    best, rows = _timed_interleaved(sql)
    assert rows["serial"] == rows["parallel"], (
        f"parallel execution changed {tag} results"
    )
    _RESULTS[tag] = dict(best)
    speedup = best["serial"] / best["parallel"]
    figures.record("serving-parallel", tag, "serial", fmt_seconds(best["serial"]))
    figures.record("serving-parallel", tag, "parallel", fmt_seconds(best["parallel"]))
    figures.record("serving-parallel", tag, "speedup", fmt_factor(speedup))


@pytest.mark.parametrize(
    "tag,sql", _parallel_cases(), ids=[tag for tag, _ in _parallel_cases()]
)
def test_parallel_speedup(benchmark, figures, tag, sql):
    benchmark.pedantic(
        lambda: _run_case(figures, tag, sql),
        rounds=1, iterations=1, warmup_rounds=0,
    )


def test_server_concurrent_clients(benchmark, figures):
    """CLIENTS threads × QUERIES_PER_CLIENT requests, all answers checked."""
    db = repro.connect()
    db.execute("CREATE TABLE events (id integer, grp integer, val float)")
    db.catalog.table("events").insert_many(
        [(i, i % 17, float(i % 101) / 3.0) for i in range(20000)]
    )
    db.execute("ANALYZE")
    workload = [
        "SELECT count(*) FROM events WHERE grp = 3",
        "SELECT sum(val) FROM events WHERE grp < 5",
        "SELECT min(id) FROM events WHERE val > 20",
        "SELECT max(id) FROM events",
    ]
    expected = {sql: db.execute(sql).scalar() for sql in workload}

    handle = start_in_thread(
        db, max_concurrency=8, queue_limit=max(CLIENTS * 2, 64),
        request_timeout=60.0,
    )
    host, port = handle.address
    latencies: list[float] = []
    wrong: list[tuple] = []
    failures: list[Exception] = []
    lock = threading.Lock()

    def client_thread(index: int) -> None:
        try:
            with PermClient(host, port, session=f"bench-{index}") as client:
                local = []
                for i in range(QUERIES_PER_CLIENT):
                    sql = workload[(index + i) % len(workload)]
                    start = time.perf_counter()
                    got = client.query(sql).scalar()
                    local.append(time.perf_counter() - start)
                    if got != expected[sql]:
                        with lock:
                            wrong.append((sql, got))
                with lock:
                    latencies.extend(local)
        except Exception as exc:  # pragma: no cover - failure reporting
            with lock:
                failures.append(exc)

    def run() -> float:
        threads = [
            threading.Thread(target=client_thread, args=(i,))
            for i in range(CLIENTS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    try:
        gc.collect()
        wall = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
        server_stats = handle.server.stats.snapshot(active_sessions=0, pending=0)
    finally:
        handle.stop()

    assert not failures, failures[:3]
    assert not wrong, wrong[:3]
    total = CLIENTS * QUERIES_PER_CLIENT
    assert len(latencies) == total
    latencies.sort()
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    assert p99 < 60.0  # bounded under full concurrency

    figures.configure(
        "serving-server",
        f"Server: {CLIENTS} concurrent clients, mixed workload",
        ["value"],
    )
    figures.record("serving-server", "clients", "value", CLIENTS)
    figures.record("serving-server", "requests", "value", total)
    figures.record("serving-server", "qps", "value", f"{total / wall:.0f}")
    figures.record("serving-server", "p50", "value", fmt_seconds(p50))
    figures.record("serving-server", "p99", "value", fmt_seconds(p99))

    _SERVING.update({
        "clients": CLIENTS,
        "requests": total,
        "wall_seconds": round(wall, 4),
        "qps": round(total / wall, 1),
        "latency_ms": {
            "p50": round(p50 * 1000, 3),
            "p99": round(p99 * 1000, 3),
            "max": round(max(latencies) * 1000, 3),
        },
        "wrong_answers": 0,
        "client_failures": 0,
        "server_counters": {
            "ok": server_stats["ok"],
            "timeouts": server_stats["timeouts"],
            "overloads": server_stats["overloads"],
            "errors": server_stats["errors"],
        },
    })


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_serving_gate(figures):
    """Aggregate gates + BENCH_serving.json emission.

    * parallel results must already have matched serial per query (the
      per-query tests assert it);
    * the ≥ 1.5× parallel speedup target only binds on hosts with at
      least ``PARALLEL_WORKERS`` cores — pure-Python CPU-bound morsels
      cannot beat serial on one core, and the JSON records ``cpu_count``
      so the artifact is interpretable either way;
    * the server section must have completed with zero wrong answers.
    """
    expected = len(_parallel_cases())
    if len(_RESULTS) < expected or not _SERVING:
        pytest.skip("per-case measurements incomplete")
    speedups = {
        tag: timing["serial"] / timing["parallel"]
        for tag, timing in _RESULTS.items()
    }
    geomean = _geomean(list(speedups.values()))
    figures.record("serving-parallel", "geomean", "speedup", fmt_factor(geomean))

    cpu_count = os.cpu_count() or 1
    payload = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            payload = json.load(handle)
    section = payload.setdefault("quick" if QUICK else "full", {})
    section["scale_factor"] = SCALE_FACTOR
    section["cpu_count"] = cpu_count
    section["parallel_workers"] = PARALLEL_WORKERS
    section["note"] = (
        "Morsel workers are Python threads sharing the GIL; on hosts with "
        f"fewer than {PARALLEL_WORKERS} cores the CPU-bound morsels "
        "serialize and the dispatcher can only add coordination overhead, "
        "so the 1.5x speedup target applies to multi-core hosts only. "
        "Correctness (parallel == serial) is asserted unconditionally."
    )
    section["parallel"] = {
        "geomean_speedup": round(geomean, 3),
        "worst_speedup": round(min(speedups.values()), 3),
        "queries": {
            tag: {
                "serial_seconds": round(timing["serial"], 6),
                "parallel_seconds": round(timing["parallel"], 6),
                "speedup": round(timing["serial"] / timing["parallel"], 3),
            }
            for tag, timing in sorted(_RESULTS.items())
        },
    }
    section["server"] = dict(_SERVING)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    if not QUICK and cpu_count >= PARALLEL_WORKERS:
        assert geomean >= 1.5, (
            f"geometric-mean parallel speedup {geomean:.2f}x below the "
            f"1.5x target on a {cpu_count}-core host"
        )
    # On any host, parallel must not collapse: worse than 3x slower than
    # serial would indicate a dispatch pathology, not just GIL overhead.
    worst = min(speedups, key=speedups.get)
    assert speedups[worst] >= 1 / 3, (
        f"{worst} runs more than 3x slower parallel "
        f"({speedups[worst]:.2f}x speedup)"
    )
