"""End-to-end benchmark: the paper's workloads on every shipped configuration.

One run of one workload (what ``BENCHMARK.json``'s command invokes)::

    python3 benchmarks/e2e/run.py --workload tpch_python --seed 42 --seconds 10 --trace 0

set-up (several times; the median is ``setup_s``) → drift guard → one
untimed warm pass whose results are checked → timed passes with tracing
off → the end-to-end metrics.  ``--trace 1`` instead follows the warm pass
with a short untraced window and one traced pass, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` every workload runs both ways, each in a fresh
subprocess, and a summary is printed (``--out FILE`` saves it).
See README.md beside this file for every metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The source tree under test.  ``--src DIR`` lets compare.py measure a
#: parent commit with this checkout's harness.
SRC = Path(sys.argv[sys.argv.index("--src") + 1]).resolve() if "--src" in sys.argv[1:-1] else ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
from repro.errors import PermError  # noqa: E402
from repro.server import PermClient  # noqa: E402
from repro.server.protocol import decode_payload, decode_row, encode_frame, encode_row  # noqa: E402
from repro.tpch.dbgen import load_into, tpch_database  # noqa: E402
from repro.wal.wal import list_checkpoints  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import EXCLUDED, PINNED_SEED, WORKLOADS, DmlMatviewWal, Stmt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
SOLO_REQUESTS = 100


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    sid: str
    kind: str
    seconds: float
    rows: int
    elapsed_ms: float = 0.0  # server-reported, served_closed only
    cached: bool = False


@dataclass
class Pass:
    wall: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(sample.seconds for sample in self.samples)


def run_statements(execute, statements, pass_index: int, workload, checker=None) -> Pass:
    """One sequential sweep; every statement is timed by its caller."""
    batch = [(stmt, workload.text(stmt, pass_index)) for stmt in statements]
    done = Pass()
    gc.collect()
    start = time.perf_counter()
    for stmt, text in batch:
        began = time.perf_counter()
        try:
            result = execute(stmt, text)
        except PermError as exc:
            done.errors.append(f"{stmt.sid}: {type(exc).__name__}: {exc}")
            continue
        seconds = time.perf_counter() - began
        done.samples.append(
            Sample(stmt.sid, stmt.kind, seconds, len(result.rows),
                   getattr(result, "elapsed_ms", 0.0), getattr(result, "cached", False))
        )
        if checker is not None:
            checker.feed(stmt, result)
    done.wall = time.perf_counter() - start
    return done


def run_pass(workload, pass_index: int, checker=None) -> Pass:
    return run_statements(workload.execute, workload.statements(pass_index), pass_index, workload, checker)


def run_closed_loop(workload, sweeps: int, tracers=None) -> tuple[list[Pass], float]:
    """``workload.clients`` connections, each waiting for every reply
    before its next request, each making ``sweeps`` sweeps."""
    clients = workload.clients
    barrier = threading.Barrier(clients + 1)
    results: list[list[Pass]] = [[] for _ in range(clients)]
    crashes: list[Exception] = []

    def client_thread(index: int) -> None:
        try:
            with PermClient(*workload.address) as client:
                tracer = tracers[index] if tracers else None

                def execute(stmt, text):
                    if tracer is None:
                        return client.query(text)
                    with tracer.statement(stmt.sid) as span:
                        parent = len(tracer.spans) - 1
                        reply = client.query(text)
                    tracer.spans.append({
                        "name": "server.elapsed", "stmt_id": stmt.sid,
                        "parent": parent, "start": span["start"],
                        "end": span["start"] + reply.elapsed_ms / 1000.0,
                    })
                    return reply

                client.query("SELECT count(*) FROM region")
                barrier.wait()
                for sweep in range(sweeps):
                    statements = workload.client_statements(index, sweep)
                    results[index].append(run_statements(execute, statements, 0, workload))
        except Exception as exc:  # re-raised by the caller, on the main thread
            crashes.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client_thread, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if crashes:
        raise crashes[0]
    return [done for per_client in results for done in per_client], wall


def timed_window(workload, passes: int, first_index: int = 1) -> tuple[list[Pass], float]:
    if workload.pipeline == "served":
        return run_closed_loop(workload, passes)
    done = [run_pass(workload, first_index + i) for i in range(passes)]
    return done, sum(p.wall for p in done)


# ---------------------------------------------------------------------------
# Caller-side metrics
# ---------------------------------------------------------------------------


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def caller_metrics(passes: list[Pass], wall: float) -> dict[str, float]:
    """Caller-side numbers of a timed window.

    Latencies are first reduced to one median per statement id (a transient
    stall then costs one sample of one statement, not a whole pass), and a
    pass is priced as the sum of those medians times occurrences per pass.
    """
    samples = [sample for done in passes for sample in done.samples]
    by_sid: dict[str, list[float]] = defaultdict(list)
    kind_of = {}
    for sample in samples:
        by_sid[sample.sid].append(sample.seconds)
        kind_of[sample.sid] = sample.kind
    per_pass = Counter(sample.sid for sample in passes[0].samples)
    median = {sid: statistics.median(values) for sid, values in by_sid.items()}

    def pass_s(kinds=("normal", "witness", "poly", "write")) -> float:
        return sum(median[sid] * per_pass[sid] for sid in median if kind_of[sid] in kinds)

    def percentile_ms(fraction: float) -> float:
        """Latency below which ``fraction`` of a pass's statements lie."""
        threshold = fraction * sum(per_pass.values())
        seen = 0
        for sid in sorted(median, key=median.get):
            seen += per_pass[sid]
            if seen >= threshold:
                return median[sid] * 1000.0

    def overhead_x(kind: str) -> float:
        ratios = []
        for sid in median:
            twin = sid.rsplit(".", 1)[0] + ".normal"
            if kind_of[sid] == kind and twin in median and twin != sid:
                ratios.append(median[sid] / median[twin])
        return geomean(ratios)

    writes = [s.seconds for s in samples if s.kind == "write"]
    attempted = len(samples) + sum(len(done.errors) for done in passes)
    return {
        "pass_s": pass_s(),
        "stmts_per_s": len(samples) / wall,
        "stmt_p50_ms": percentile_ms(0.50),
        "stmt_p95_ms": percentile_ms(0.95),
        "witness_pass_s": pass_s(("witness",)),
        "normal_pass_s": pass_s(("normal",)),
        "poly_pass_s": pass_s(("poly",)),
        "witness_overhead_x": overhead_x("witness"),
        "poly_overhead_x": overhead_x("poly"),
        "write_p50_ms": statistics.median(writes) * 1000.0 if writes else 0.0,
        "rows_per_s": sum(s.rows for s in samples) / wall,
        "error_rate": (attempted - len(samples)) / attempted,
    }


# ---------------------------------------------------------------------------
# Durability: SIGKILL a child mid-flight, reopen its directory
# ---------------------------------------------------------------------------


def crash_child(args) -> int:
    """Set up a durable database in ``--dir``, run one pass, acknowledge
    every write on stdout, then wait to be killed (never ``close()``)."""
    workload = DmlMatviewWal(args.seed, args.quick, Path(args.dir))
    workload.wal_dir = Path(args.dir) / "wal"
    workload.setup()
    for stmt in workload.statements(0):
        workload.execute(stmt, stmt.sql)
        if stmt.kind == "write":
            print(f"ack {stmt.sid}", flush=True)
    print("done", flush=True)
    time.sleep(600)
    return 1


def durability_check(workload) -> tuple[list[str], float]:
    """Returns (failures, seconds the reopen took)."""
    crash_dir = workload.workdir / f"crash-{os.getpid()}"
    shutil.rmtree(crash_dir, ignore_errors=True)
    crash_dir.mkdir(parents=True)
    command = [sys.executable, str(HERE / "run.py"), "--crash-child", "--dir", str(crash_dir),
               "--seed", str(workload.seed), "--src", str(SRC)] + (["--quick"] if workload.quick else [])
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        acked = 0
        for line in child.stdout:
            if line.startswith("ack "):
                acked += 1
            elif line.strip() == "done":
                break
    finally:
        child.kill()  # SIGKILL: no close(), no atexit, no flush
        child.wait()
        child.stdout.close()
    statements = workload.statements(0)
    failures = []
    writes = sum(stmt.kind == "write" for stmt in statements)
    if acked != writes:
        failures.append(f"durability: child acknowledged {acked} of {writes} writes")
    try:
        start = time.perf_counter()
        db = repro.connect(wal_dir=str(crash_dir / "wal"))
        recover_s = time.perf_counter() - start
        try:
            present = set(db.execute(
                "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_linenumber >= 100"
            ).rows)
            wanted = workload.expected_delta_keys(statements)
            if present != wanted:
                failures.append(
                    f"durability: {len(wanted - present)} acknowledged rows missing, "
                    f"{len(present - wanted)} unexpected after reopen"
                )
            checker = checks.Checker(None)
            for stmt in workload.check_groups():
                checker.feed(stmt, db.execute(stmt.sql))
            failures += [f"durability: {miss}" for miss in checker.finish()]
            if {view.name for view in db.catalog.matviews()} != {"e2e_w", "e2e_p"}:
                failures.append("durability: materialized views missing after reopen")
        finally:
            db.close()
    finally:
        shutil.rmtree(crash_dir, ignore_errors=True)
    return failures, recover_s


# ---------------------------------------------------------------------------
# The traced pass and the per-layer metrics
# ---------------------------------------------------------------------------


def traced_pass(workload, tracer: tracing.Tracer, pass_index: int) -> float:
    """Walk one pass through the layers' public functions; returns wall."""
    db = workload.db
    walk = {
        "python": tracing.run_python,
        "sqlite": tracing.run_sqlite,
        "sharded": tracing.run_sharded,
        "dml": tracing.run_python,
    }[workload.pipeline]
    statements = workload.statements(pass_index)
    gc.collect()
    start = time.perf_counter()
    for stmt in statements:
        if stmt.kind == "write":
            tracing.run_write(tracer, db, stmt)
            continue
        if stmt.query.startswith("view_"):
            tracing.run_view_read(tracer, db, stmt)
            # the same read again finds the view fresh: the steady read
            tracing.run_view_read(tracer, db, Stmt(stmt.query + ".steady", stmt.kind, stmt.sql, stmt.query))
            continue
        result = walk(tracer, db, stmt)
        if stmt.kind == "poly":
            tracer.stmt_id = stmt.sid
            with tracer.span("semiring.poly_eval"):
                result.evaluate_provenance("counting")
            tracer.stmt_id = None
            tracer.count("semiring.poly_terms", sum(len(p.terms()) for p in result.annotations()))
    return time.perf_counter() - start


def traced_sweep(workload) -> tuple[tracing.Tracer, float]:
    """``served_closed``'s traced pass: one sweep per client, a span per
    request with the server-reported time as its child."""
    tracers = [tracing.Tracer() for _ in range(workload.clients)]
    _, wall = run_closed_loop(workload, 1, tracers)
    merged = tracing.Tracer()
    for part in tracers:
        offset = len(merged.spans)
        for span in part.spans:
            if span["parent"] is not None:
                span["parent"] += offset
        merged.spans += part.spans
    return merged, wall


def span_seconds(tracer: tracing.Tracer, name: str, sid_suffix: str = "") -> list[float]:
    return [
        span["end"] - span["start"]
        for span in tracer.spans
        if span["name"] == name and (span["stmt_id"] or "").endswith(sid_suffix)
    ]


def dml_probes(workload, tracer: tracing.Tracer, layer: dict) -> None:
    """WAL cost against a non-durable twin, view speed-up against direct
    execution on it, one checkpoint; single samples are flagged in README."""
    twin = DmlMatviewWal(workload.seed, workload.quick, workload.workdir, durable=False)
    twin.setup()
    try:
        inserts = [s for s in twin.statements(0) if s.sid == "insert"]
        twin_insert = [
            sample.seconds
            for sample in run_statements(twin.execute, inserts, 0, twin).samples
        ]
        direct = {}
        for sql, name in ((twin.VIEW_W, "view_w"), (twin.VIEW_P, "view_p")):
            read = [Stmt(name, "witness", sql, name)]
            direct[name] = statistics.median(  # a new padding each time: cold frontend
                run_statements(twin.execute, read, pad, twin).busy for pad in (1, 2, 3)
            )
    finally:
        twin.close()
    durable_insert = span_seconds(tracer, "storage.write", "insert")
    layer["wal.overhead_x"] = statistics.median(durable_insert) / statistics.median(twin_insert)
    steady = {
        name: statistics.median(span_seconds(tracer, tracing.STATEMENT, f"{name}.steady"))
        for name in direct
    }
    first = {
        name: statistics.median(span_seconds(tracer, tracing.STATEMENT, f"{name}.read_after_insert"))
        for name in direct
    }
    layer["matview.read_p50_ms"] = statistics.mean(steady.values()) * 1000.0
    layer["matview.maintain_p50_ms"] = statistics.mean(first[n] - steady[n] for n in direct) * 1000.0
    layer["matview.speedup_x"] = geomean([direct[n] / steady[n] for n in direct])
    counts = tracer.counts
    refreshes = counts["matview.incremental"] + counts["matview.full"]
    layer["matview.incremental_ratio"] = counts["matview.incremental"] / refreshes if refreshes else 0.0
    layer["wal.bytes_per_stmt"] = counts["wal.bytes"] / counts["storage.writes"]
    layer["wal.fsyncs_per_stmt"] = counts["wal.fsyncs"] / counts["storage.writes"]
    start = time.perf_counter()
    workload.db.checkpoint()
    layer["wal.checkpoint_s"] = time.perf_counter() - start
    size = sum(path.stat().st_size for _, path in list_checkpoints(workload.wal_dir))
    rows = sum(table.row_count() for table in workload.db.catalog.tables())
    layer["wal.checkpoint_bytes_per_row"] = size / rows


def served_probes(workload, solo: Pass, window: list[Pass], layer: dict) -> None:
    samples = [sample for done in window for sample in done.samples]
    layer["server.elapsed_p50_ms"] = statistics.median(s.elapsed_ms for s in samples)
    layer["server.queue_wire_p50_ms"] = statistics.median(
        s.seconds * 1000.0 - s.elapsed_ms for s in samples
    )
    layer["server.solo_p50_ms"] = statistics.median(s.seconds for s in solo.samples) * 1000.0
    layer["server.cached_ratio"] = sum(s.cached for s in samples) / len(samples)
    stats = workload.client.stats()
    layer["server.overloads"] = stats["stats"]["overloads"]
    layer["server.timeouts"] = stats["stats"]["timeouts"]
    # The same statements in this process: what the wire and the server add.
    db = tpch_database(workload.scale_factor, seed=PINNED_SEED)
    try:
        inproc, encode_s, decode_s, frame_bytes, rows = [], 0.0, 0.0, 0, 0
        for stmt in workload.statements(0):
            for _ in range(3):
                start = time.perf_counter()
                result = db.run_compiled(db.compile_select(stmt.sql))
                inproc.append(time.perf_counter() - start)
            start = time.perf_counter()
            frame = encode_frame({
                "columns": list(result.columns),
                "rows": [encode_row(row) for row in result.rows],
                "annotation_column": result.annotation_column,
            })
            encode_s += time.perf_counter() - start
            start = time.perf_counter()
            [decode_row(row) for row in decode_payload(frame[4:])["rows"]]
            decode_s += time.perf_counter() - start
            frame_bytes += len(frame)
            rows += len(result.rows)
    finally:
        db.close()
    layer["server.inproc_p50_ms"] = statistics.median(inproc) * 1000.0
    layer["codec.encode_s"] = encode_s
    layer["codec.decode_s"] = decode_s
    layer["codec.frame_bytes_per_row"] = frame_bytes / rows


def layer_metrics(workload, tracer: tracing.Tracer, traced_wall: float,
                  window: list[Pass], window_wall: float) -> dict[str, float]:
    layer: dict[str, float] = defaultdict(float)
    totals, counts = tracer.totals(), tracer.counts
    layer.update(workload.setup_parts)
    # A span ``x`` feeds the metric ``x_s`` and a count ``y`` the metric ``y``,
    # wherever BENCHMARK.json declares one (other counts are intermediate).
    declared = {spec["name"] for spec in SPEC["per_layer"]}
    layer.update({f"{span}_s": seconds for span, seconds in totals.items() if f"{span}_s" in declared})
    layer.update({name: value for name, value in counts.items() if name in declared})
    if counts["executor.rows_out"]:
        layer["executor.rows_scanned_per_row_out"] = counts["executor.rows_scanned"] / counts["executor.rows_out"]
    if workload.pipeline == "sqlite":
        layer["backends.sqlite_exec_convert_s"] = (
            totals["backends.sqlite_run_select"] - totals["sql.deparse"] - totals["backends.sqlite_sync"]
        )
        shipped = workload.db.backend.describe().rsplit("statements, ", 1)[1].split(" rows shipped")[0]
        layer["backends.sqlite_rows_shipped"] = int(shipped)
    if workload.pipeline == "sharded":
        queries = counts["sharding.queries"]
        layer["sharding.fallback_ratio"] = counts["sharding.fallbacks"] / queries
        scattered = counts["sharding.scattered"]
        layer["sharding.pruned_ratio"] = counts["sharding.pruned"] / scattered if scattered else 0.0
        layer["sharding.shards_per_query"] = counts["sharding.shards_touched"] / scattered if scattered else 0.0
        if counts["sharding.multi_child_s"]:
            layer["sharding.slowest_shard_share"] = counts["sharding.slowest_child_s"] / counts["sharding.multi_child_s"]
    if workload.db is not None:
        cache = workload.db.cache_stats()
        probes = cache["hits"] + cache["misses"]
        layer["backends.stmt_cache_hit_ratio"] = cache["hits"] / probes if probes else 0.0
    layer.update(caller_metrics(window, window_wall))
    untraced_busy = statistics.median(done.busy for done in window)
    untraced_wall = statistics.median(done.wall for done in window)
    # Statement spans of the traced pass that the untraced pass also runs
    # (not the extra steady view reads), once per client.
    stepwise = sum(
        span["end"] - span["start"]
        for span in tracer.spans
        if span["name"] == tracing.STATEMENT and not span["stmt_id"].endswith(".steady")
    ) - totals[tracing.INSTRUMENT]
    layer["trace.coverage"] = tracer.coverage()
    layer["trace.stepwise_vs_execute_x"] = stepwise / untraced_busy / workload.clients
    layer["trace.overhead_x"] = traced_wall / untraced_wall
    return layer


# ---------------------------------------------------------------------------
# Expected files (maintenance: `run.py --workload W --trace 0 --write-expected`)
# ---------------------------------------------------------------------------


def write_expected(workload, drift: str, own: dict[str, dict]) -> None:
    """Keep a statement's summary only if an independent executor agrees:
    SQLite for the python-engine workloads, the python engine for
    ``tpch_sqlite``.  The twin replays the same statements, writes included,
    on the same generated data."""
    other = "python" if workload.pipeline == "sqlite" else "sqlite"
    twin = repro.connect(backend=other)
    load_into(twin, workload.dataset())
    twin.execute("ANALYZE")
    agreed, seen = {}, set()
    for stmt in workload.statements(0) + workload.check_groups():
        if stmt.sid.endswith("q1.poly"):
            continue  # minutes on SQLite (see EXCLUDED)
        try:
            result = twin.execute(stmt.sql)
        except PermError:
            continue
        if stmt.kind != "write" and not stmt.seeded and stmt.sid not in seen and stmt.sid in own:
            seen.add(stmt.sid)
            if checks.summaries_agree(checks.summarize(result.rows), own[stmt.sid]):
                agreed[stmt.sid] = own[stmt.sid]
    twin.close()
    path = checks.EXPECTED_DIR / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    document = {"workload": workload.name, "drift": drift, "statements": agreed}
    path.write_text(json.dumps(document, indent=0, sort_keys=True) + "\n")
    print(f"expected/{workload.name}.json: {len(agreed)} of {len(own)} statements agreed on {other}")


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def emit(names: list[dict], values: dict[str, float]) -> dict:
    known = {spec["name"] for spec in SPEC["end_to_end"] + SPEC["per_layer"]}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in names
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.quick, OUT_DIR / "tmp")
    workload.workdir.mkdir(parents=True, exist_ok=True)
    setups = []
    failures: list[str] = []
    try:
        for _ in range(1 if args.quick or args.trace else SETUP_REPEATS):
            workload.close()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        # Drift guard: refuse to report numbers for a workload that is no
        # longer the one the expected file and earlier numbers describe.
        pinned = [s for s in workload.statements(0) + workload.check_groups() if not s.seeded]
        drift = checks.drift_digest(sorted({f"{s.sid}\0{s.sql}" for s in pinned}), workload.dataset().tables())
        expected = None if args.quick or args.write_expected else checks.load_expected(workload.name)
        if expected is not None and expected["drift"] != drift:
            print(f"{workload.name}: workload drifted from expected/{workload.name}.json: "
                  "generated statements or data changed", file=sys.stderr)
            return 2

        checker = checks.Checker(expected)
        warm = run_pass(workload, 0, checker)
        for stmt in workload.check_groups():
            checker.feed(stmt, workload.execute(stmt, stmt.sql))
        failures += warm.errors + checker.finish()
        if args.write_expected:
            write_expected(workload, drift, checker.summaries)
            return 0 if not failures else 1

        sweep = warm.busy * workload.clients
        # The traced run spends a third of the time on its untraced window
        # (the reference for trace.overhead_x and the caller-side layer metrics).
        if args.trace:
            passes = args.passes or max(1, round(args.seconds / 3 / sweep))
        else:
            passes = args.passes or max(2, round(args.seconds / sweep))
        if args.quick:
            passes = 1

        if not args.trace:
            window, wall = timed_window(workload, passes)
            values = caller_metrics(window, wall)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = workload.peak_rss_mb()
            names = SPEC["end_to_end"]
        else:
            # The traced pass comes first: it then always sees the database
            # one warm pass old, so its counts do not depend on how many
            # passes the time-filled untraced window manages.
            solo = None
            if workload.pipeline == "served":
                requests = workload.statements(0) * math.ceil(SOLO_REQUESTS / len(warm.samples))
                solo = run_statements(workload.execute, requests[: 28 if args.quick else SOLO_REQUESTS], 0, workload)
                tracer, traced_wall = traced_sweep(workload)
            else:
                tracer = tracing.Tracer()
                traced_wall = traced_pass(workload, tracer, 1)
            window, wall = timed_window(workload, passes, first_index=2)
            values = layer_metrics(workload, tracer, traced_wall, window, wall)
            if workload.pipeline == "served":
                served_probes(workload, solo, window, values)
            if workload.pipeline == "dml":
                dml_probes(workload, tracer, values)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
            names = SPEC["per_layer"]

        failures += [error for done in window for error in done.errors]
        if workload.pipeline == "dml":
            misses, values["wal.recover_s"] = durability_check(workload)
            failures += misses
    finally:
        workload.close()

    for failure in failures:
        print(f"FAIL {workload.name}: {failure}", file=sys.stderr)
    for sid, reason in EXCLUDED.get(workload.name, {}).items():
        print(f"excluded {workload.name} {sid}: {reason}")
    print(f"checked {workload.name}: {dict(checker.checked)} passes={passes} "
          f"statements={sum(len(d.samples) for d in window)} "
          f"drift={'ok' if expected else 'not checked (--quick, or no expected file)'}")
    metrics = emit(names, values)
    for name, entry in metrics.items():
        print(f"{workload.name:16s} {name:36s} {entry['value']:.6g} {entry['unit']}")
    attempted = sum(len(done.samples) + len(done.errors) for done in window + [warm])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Every workload, both ways
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    summary = {
        "commit": args.commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "quick": args.quick,
        "workloads": {},
    }
    status = 0
    for name in args.workloads or list(WORKLOADS):
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace), "--src", str(SRC)]
            command += ["--quick"] if args.quick else []
            command += ["--passes", str(args.passes)] if args.passes else []
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode not in (0, 1) or not lines:
                print(f"{name} --trace {trace}: exit {done.returncode}, no result", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= done.returncode
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {metric: value["value"] for metric, value in result["metrics"].items()}
            entry[f"correct_trace{trace}"] = result["correct"]
    # This benchmark measures; it claims no gain.
    summary["claim"] = None
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.trajectory and status == 0:
        with open(HERE / "trajectory.jsonl", "a") as out:
            out.write(json.dumps({
                "commit": args.commit, "cpu_count": summary["cpu_count"], "python": summary["python"],
                "seed": args.seed,
                "metrics": {name: entry["end_to_end"] for name, entry in summary["workloads"].items()},
            }) + "\n")
    print(text)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS), dest="workloads")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--passes", type=int, default=None, help="timed passes (default: fill --seconds)")
    parser.add_argument("--quick", action="store_true", help="scale factors / 5, one pass: a smoke run")
    parser.add_argument("--out", help="write the all-workloads summary here")
    parser.add_argument("--commit", default="unknown", help="label recorded in the summary")
    parser.add_argument("--src", default=str(SRC), help="source tree under test (default: this checkout's src)")
    parser.add_argument("--trajectory", action="store_true", help="append the summary to trajectory.jsonl")
    parser.add_argument("--write-expected", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--crash-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.crash_child:
        return crash_child(args)
    if args.trace is None or len(args.workloads or ()) != 1:
        return run_all(args)
    args.workload = args.workloads[0]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
