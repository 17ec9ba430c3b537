"""Durability benchmark — WAL write overhead and recovery speed.

Three questions from the durability PR are measured here:

1. **Write overhead.** A mixed DML burst (multi-row INSERTs with
   UPDATEs and DELETEs threaded through) runs against four databases:
   no WAL, and WAL with ``sync`` = ``always`` / ``batch`` / ``never``.
   The ≤ 1.25× overhead gate binds on the *software* write path —
   ``never`` (framing + canonical printing + append) and ``batch``
   (group durability, the recommended bulk-ingest setting).  The
   ``always`` mode pays one ``fdatasync`` per statement; that cost is
   the storage device's, not the WAL machinery's, so it is reported
   (together with the host's measured raw fsync floor, making the
   artifact interpretable) but not gated.
2. **Read overhead.** SELECTs against a durable database must not
   regress: the WAL is append-only commit-hook work and reads never
   touch it.  Gated at ≤ 1.25× (measured ratios sit at ~1.0).
3. **Recovery.** Statements-per-second of WAL replay, and the time to
   come up from a checkpoint, are reported so recovery regressions are
   visible in the artifact history.

Methodology: interleaved configurations, best-of-``REPEATS`` timings,
``gc.collect()`` before each window.
``PERM_BENCH_QUICK=1`` shrinks the burst for the CI chaos-smoke job.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import tempfile
import time

import pytest

import repro
from benchmarks._support import fmt_factor, fmt_seconds

QUICK = bool(os.environ.get("PERM_BENCH_QUICK"))
REPEATS = 3 if QUICK else 5
N_STATEMENTS = 60 if QUICK else 150
N_READS = 40 if QUICK else 120
RECOVERY_STATEMENTS = 120 if QUICK else 400

OVERHEAD_GATE = 1.25

JSON_PATH = os.environ.get("PERM_BENCH_WAL_JSON", "BENCH_wal.json")

WRITE_MODES = ("none", "always", "batch", "never")

_WRITE_BEST: dict[str, float] = {}
_READ_BEST: dict[str, float] = {}
_RECOVERY: dict[str, object] = {}
_TMPDIRS: list[str] = []


def _tmpdir() -> str:
    path = tempfile.mkdtemp(prefix="bench-wal-")
    _TMPDIRS.append(path)
    return path


def _write_burst() -> list[str]:
    statements = []
    for i in range(N_STATEMENTS):
        if i % 7 == 3:
            statements.append(f"UPDATE e SET b = b + 1 WHERE a = {i - 1}")
        elif i % 11 == 5:
            statements.append(f"DELETE FROM e WHERE a = {i - 2}")
        else:
            rows = ", ".join(f"({i * 8 + j}, {j})" for j in range(8))
            statements.append(f"INSERT INTO e VALUES {rows}")
    return statements


def _make_db(mode: str) -> repro.PermDatabase:
    if mode == "none":
        db = repro.connect()
    else:
        db = repro.connect(wal_dir=_tmpdir(), wal_sync=mode)
    db.execute("CREATE TABLE e (a integer, b integer)")
    return db


def _fsync_floor_us() -> float:
    """The host's raw append+fdatasync cost, for the JSON artifact."""
    datasync = getattr(os, "fdatasync", os.fsync)
    fd, path = tempfile.mkstemp(prefix="bench-wal-fsync")
    try:
        count = 50 if QUICK else 200
        start = time.perf_counter()
        for _ in range(count):
            os.write(fd, b"x" * 100)
            datasync(fd)
        return (time.perf_counter() - start) / count * 1e6
    finally:
        os.close(fd)
        os.unlink(path)


def test_write_overhead(benchmark, figures):
    statements = _write_burst()

    def run() -> None:
        for _ in range(REPEATS):
            for mode in WRITE_MODES:
                gc.collect()
                db = _make_db(mode)
                start = time.perf_counter()
                for sql in statements:
                    db.execute(sql)
                elapsed = time.perf_counter() - start
                _WRITE_BEST[mode] = min(
                    _WRITE_BEST.get(mode, float("inf")), elapsed
                )
                db.close()

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    figures.configure(
        "wal-write",
        f"WAL write overhead, {N_STATEMENTS}-statement mixed DML burst",
        ["seconds", "overhead"],
    )
    base = _WRITE_BEST["none"]
    for mode in WRITE_MODES:
        figures.record(
            "wal-write", mode, "seconds", fmt_seconds(_WRITE_BEST[mode])
        )
        figures.record(
            "wal-write", mode, "overhead", fmt_factor(_WRITE_BEST[mode] / base)
        )


def test_read_overhead(benchmark, figures):
    statements = _write_burst()
    reads = [
        "SELECT count(*) FROM e WHERE b > 2",
        "SELECT sum(b) FROM e WHERE a < 500",
        "SELECT PROVENANCE a, b FROM e WHERE b = 3",
    ]

    def run() -> None:
        dbs = {}
        for mode in ("none", "always"):
            db = _make_db(mode)
            for sql in statements:
                db.execute(sql)
            for sql in reads:  # warm the statement caches
                db.execute(sql)
            dbs[mode] = db
        for _ in range(REPEATS):
            for mode, db in dbs.items():
                gc.collect()
                start = time.perf_counter()
                for i in range(N_READS):
                    db.execute(reads[i % len(reads)])
                elapsed = time.perf_counter() - start
                _READ_BEST[mode] = min(
                    _READ_BEST.get(mode, float("inf")), elapsed
                )
        for db in dbs.values():
            db.close()

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    figures.configure(
        "wal-read",
        f"Read path with a WAL attached ({N_READS} warm SELECTs)",
        ["seconds", "overhead"],
    )
    for mode in ("none", "always"):
        figures.record(
            "wal-read", mode, "seconds", fmt_seconds(_READ_BEST[mode])
        )
    figures.record(
        "wal-read",
        "always",
        "overhead",
        fmt_factor(_READ_BEST["always"] / _READ_BEST["none"]),
    )


def test_recovery_speed(benchmark, figures):
    wal_dir = _tmpdir()
    db = repro.connect(wal_dir=wal_dir, wal_sync="batch")
    db.execute("CREATE TABLE e (a integer, b integer)")
    for i in range(RECOVERY_STATEMENTS - 1):
        db.execute(f"INSERT INTO e VALUES ({i}, {i % 7})")
    db.close()

    def recover_once() -> float:
        gc.collect()
        start = time.perf_counter()
        recovered = repro.connect(wal_dir=wal_dir)
        elapsed = time.perf_counter() - start
        assert (
            recovered.last_recovery.statements_replayed == RECOVERY_STATEMENTS
        )
        recovered.close()
        return elapsed

    def run() -> None:
        replay = min(recover_once() for _ in range(REPEATS))

        # Checkpoint, then time coming up from the snapshot instead.
        db = repro.connect(wal_dir=wal_dir)
        db.checkpoint()
        db.close()
        best_ckpt = float("inf")
        for _ in range(REPEATS):
            gc.collect()
            start = time.perf_counter()
            recovered = repro.connect(wal_dir=wal_dir)
            best_ckpt = min(best_ckpt, time.perf_counter() - start)
            assert recovered.last_recovery.statements_replayed == 0
            recovered.close()

        _RECOVERY.update(
            {
                "statements": RECOVERY_STATEMENTS,
                "replay_seconds": round(replay, 4),
                "replay_statements_per_second": round(
                    RECOVERY_STATEMENTS / replay, 1
                ),
                "checkpoint_restore_seconds": round(best_ckpt, 4),
            }
        )

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)

    figures.configure(
        "wal-recovery",
        f"Recovery of {RECOVERY_STATEMENTS} logged statements",
        ["value"],
    )
    figures.record(
        "wal-recovery", "replay", "value",
        fmt_seconds(_RECOVERY["replay_seconds"]),
    )
    figures.record(
        "wal-recovery", "replay rate", "value",
        f"{_RECOVERY['replay_statements_per_second']:.0f} stmt/s",
    )
    figures.record(
        "wal-recovery", "from checkpoint", "value",
        fmt_seconds(_RECOVERY["checkpoint_restore_seconds"]),
    )


def test_wal_gate(figures):
    """Aggregate gates + BENCH_wal.json emission."""
    if len(_WRITE_BEST) < len(WRITE_MODES) or not _READ_BEST or not _RECOVERY:
        pytest.skip("per-case measurements incomplete")

    base = _WRITE_BEST["none"]
    overheads = {
        mode: _WRITE_BEST[mode] / base for mode in WRITE_MODES if mode != "none"
    }
    read_overhead = _READ_BEST["always"] / _READ_BEST["none"]
    fsync_floor = _fsync_floor_us()

    payload = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            payload = json.load(handle)
    section = payload.setdefault("quick" if QUICK else "full", {})
    section["statements"] = N_STATEMENTS
    section["overhead_gate"] = OVERHEAD_GATE
    section["note"] = (
        "The overhead gate binds on the WAL software write path (sync="
        "'never': framing/printing/append; sync='batch': group "
        "durability) and on reads.  sync='always' pays one fdatasync "
        "per statement; fsync_floor_us is the host's raw append+fdatasync "
        "cost, so the reported 'always' overhead is the device's price "
        "for per-statement durability, not WAL machinery."
    )
    section["write"] = {
        "baseline_seconds": round(base, 6),
        "modes": {
            mode: {
                "seconds": round(_WRITE_BEST[mode], 6),
                "overhead": round(overheads[mode], 3),
            }
            for mode in overheads
        },
        "fsync_floor_us": round(fsync_floor, 1),
    }
    section["read"] = {
        "baseline_seconds": round(_READ_BEST["none"], 6),
        "durable_seconds": round(_READ_BEST["always"], 6),
        "overhead": round(read_overhead, 3),
    }
    section["recovery"] = dict(_RECOVERY)
    with open(JSON_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    for path in _TMPDIRS:
        shutil.rmtree(path, ignore_errors=True)

    assert overheads["never"] <= OVERHEAD_GATE, (
        f"WAL framing overhead {overheads['never']:.2f}x exceeds "
        f"{OVERHEAD_GATE}x"
    )
    assert overheads["batch"] <= OVERHEAD_GATE, (
        f"group-durability overhead {overheads['batch']:.2f}x exceeds "
        f"{OVERHEAD_GATE}x"
    )
    assert read_overhead <= OVERHEAD_GATE, (
        f"read-path overhead {read_overhead:.2f}x exceeds {OVERHEAD_GATE}x "
        f"(the WAL must stay off the read hot path)"
    )
