"""Interactive SQL shell for the Perm reproduction.

Usage::

    python -m repro                 # empty database
    python -m repro --tpch 0.002    # pre-loaded, ANALYZEd TPC-H at SF 0.002
    python -m repro --example       # the paper's shop/sales/items example

Inside the shell, end statements with ``;``.  Meta commands:

* ``\\q`` quit, ``\\d`` list relations,
* ``\\rewrite <query>`` print the provenance-rewritten SQL (after the
  logical optimizer, which always runs),
* ``\\explain <query>`` print the logical trees (before/after
  optimization) and the physical plan,
* ``\\explain+ <query>`` additionally execute the plan and annotate
  every node with actual row/batch counts and wall time,
* ``\\parallel [off|N]`` show or set morsel-driven parallel workers,
* ``\\analyze [table]`` collect planner statistics (ANALYZE),
* ``\\stats`` statement-cache counters + collected table statistics,
* ``\\matviews`` list materialized provenance views with freshness and
  maintenance counters,
* ``\\semirings`` list registered semirings and rewrite strategies,
* ``\\backend [name]`` show or switch the execution backend
  (``python`` / ``sqlite``),
* ``\\shards`` sharded-backend status: per-table partitioning, scatter
  and pruning counters, per-shard row/query tallies (requires
  ``--shards``),
* ``\\server [start [port]|stats|stop]`` manage a background query
  server on this database (``repro.server`` wire protocol),
* ``\\wal`` write-ahead-log status and last recovery report (requires
  ``--wal-dir``),
* ``\\checkpoint`` snapshot the catalog and truncate the WAL.

``python -m repro --serve PORT`` skips the shell and serves the
database over TCP until interrupted.

``SELECT PROVENANCE (polynomial) ...`` computes semiring provenance
polynomials instead of witness lists.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.errors import PermError


def _parse_shard_keys(specs: list[str] | None) -> dict[str, str | None] | None:
    """``--shard-key table=col`` pairs as a dict (``table=`` replicates)."""
    if not specs:
        return None
    keys: dict[str, str | None] = {}
    for spec in specs:
        table, eq, column = spec.partition("=")
        if not table or not eq:
            raise PermError(f"--shard-key expects TABLE=COLUMN, got {spec!r}")
        keys[table.strip()] = column.strip() or None
    return keys


def _build_database(args: argparse.Namespace) -> repro.PermDatabase:
    shard_keys = _parse_shard_keys(args.shard_key)
    if args.tpch is not None:
        from repro.tpch.dbgen import tpch_database

        print(f"loading TPC-H at SF {args.tpch} ...", file=sys.stderr)
        db = tpch_database(
            scale_factor=args.tpch,
            wal_dir=args.wal_dir,
            wal_sync=args.wal_sync,
        )
        # Plan with statistics, like every in-process TPC-H workload:
        # without them every join estimate collapses to one row.
        # Through execute, so a --wal-dir database logs it.
        db.execute("ANALYZE")
        if args.shards is not None:
            from repro.sharding.backend import ShardedBackend

            def sharded(catalog, _child=args.backend):
                return ShardedBackend(
                    catalog,
                    shards=args.shards,
                    shard_keys=shard_keys,
                    child=_child,
                )

            db.set_backend(sharded)
        elif args.backend != "python":
            db.set_backend(args.backend)
        db.parallel_executor = args.executor
        return db
    db = repro.connect(
        backend=args.backend,
        parallel_executor=args.executor,
        shards=args.shards,
        shard_keys=shard_keys,
        wal_dir=args.wal_dir,
        wal_sync=args.wal_sync,
    )
    if db.durable and db.last_recovery is not None:
        report = db.last_recovery
        if report.checkpoint_segment is not None or report.statements_replayed:
            print(
                f"recovered from {report.directory}: "
                f"checkpoint segment {report.checkpoint_segment}, "
                f"{report.statements_replayed} statements replayed",
                file=sys.stderr,
            )
    if args.example:
        db.execute("CREATE TABLE shop (name text, numempl integer)")
        db.execute("CREATE TABLE sales (sname text, itemid integer)")
        db.execute("CREATE TABLE items (id integer, price integer)")
        db.execute("INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)")
        db.execute(
            "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
            "('Merdies', 2), ('Joba', 3), ('Joba', 3)"
        )
        db.execute("INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)")
    return db


#: The shell's background server handle (``\\server start``).
_server_handle = None


def _handle_server(db: repro.PermDatabase, rest: str) -> None:
    global _server_handle
    words = rest.split()
    action = words[0] if words else "stats"
    if action == "start":
        if _server_handle is not None:
            host, port = _server_handle.address
            print(f"server already running on {host}:{port}")
            return
        from repro.server import start_in_thread

        port = int(words[1]) if len(words) > 1 else 0
        _server_handle = start_in_thread(db, port=port)
        host, port = _server_handle.address
        print(f"server listening on {host}:{port}")
        return
    if _server_handle is None:
        print("no server running (use \\server start [port])")
        return
    if action == "stop":
        _server_handle.stop()
        _server_handle = None
        print("server stopped")
        return
    if action == "stats":
        stats = _server_handle.server.stats.snapshot(
            active_sessions=len(_server_handle.server.sessions),
            pending=_server_handle.server._pending,
        )
        for key, value in stats.items():
            print(f"  {key}: {value}")
        return
    print("usage: \\server [start [port]|stats|stop]")


def _handle_meta(db: repro.PermDatabase, line: str) -> bool:
    """Process a backslash command; returns False to quit."""
    command, _, rest = line.partition(" ")
    if command in ("\\q", "\\quit"):
        return False
    if command == "\\d":
        for table in db.catalog.tables():
            columns = ", ".join(
                f"{c.name} {c.type.value}" for c in table.schema.columns
            )
            print(f"  {table.name} ({columns})  -- {table.row_count()} rows")
        return True
    if command == "\\rewrite":
        print(db.rewritten_sql(rest))
        return True
    if command == "\\explain":
        print(db.explain(rest))
        return True
    if command == "\\explain+":
        print(db.explain(rest, analyze=True))
        return True
    if command == "\\parallel":
        choice = rest.strip().lower()
        if choice in ("off", "1"):
            db.parallel_workers = 1
        elif choice.isdigit():
            db.parallel_workers = int(choice)
        elif choice == "on":
            db.parallel_workers = None  # one worker per core
        elif choice:
            print("usage: \\parallel [off|N]")
            return True
        workers = db.parallel_workers
        if workers is None:
            import os

            print(f"parallel workers: per-core ({os.cpu_count() or 1})")
        elif workers <= 1:
            print("parallel workers: off (serial execution)")
        else:
            print(f"parallel workers: {workers}")
        return True
    if command == "\\server":
        _handle_server(db, rest.strip())
        return True
    if command == "\\wal":
        status = db.wal_status()
        if status is None:
            print("not durable (start with --wal-dir DIR)")
            return True
        recovery = status.pop("last_recovery", None)
        for key, value in status.items():
            print(f"  {key}: {value}")
        if recovery is not None:
            print("  last recovery:")
            for key, value in recovery.items():
                print(f"    {key}: {value}")
        return True
    if command == "\\checkpoint":
        segment = db.checkpoint()
        print(f"checkpoint written; WAL rolled to segment {segment}")
        return True
    if command == "\\analyze":
        result = db.analyze(rest.strip() or None)
        for name, rows, columns in result.rows:
            print(f"  analyzed {name}: {rows} rows, {columns} columns")
        return True
    if command == "\\stats":
        stats = db.cache_stats()
        print(
            "prepared-statement cache: "
            f"{stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['entries']}/{stats['capacity']} entries"
        )
        print(f"backend: {db.backend.describe()}")
        analyzed = db.catalog.analyzed_tables()
        if not analyzed:
            print("table statistics: none collected (run \\analyze)")
            return True
        print("table statistics:")
        for table_stats in analyzed:
            widest = max(
                table_stats.columns.values(),
                key=lambda c: c.ndv,
                default=None,
            )
            detail = (
                f", max ndv {widest.ndv}" if widest is not None else ""
            )
            print(
                f"  {table_stats.table_name}: {table_stats.row_count} rows, "
                f"{len(table_stats.columns)} columns{detail}"
            )
        return True
    if command == "\\backend":
        from repro.backends import backend_names

        choice = rest.strip()
        if choice:
            db.set_backend(choice)
            print(f"execution backend: {db.backend_name} ({db.backend.describe()})")
            return True
        for name in backend_names():
            marker = "*" if name == db.backend_name else " "
            print(f" {marker} {name}")
        print(f"active: {db.backend.describe()}")
        return True
    if command == "\\shards":
        stats = getattr(db.backend, "scatter_stats", None)
        if stats is None:
            print(
                "backend is not sharded (start with --shards N or "
                "connect(shards=N))"
            )
            return True
        info = stats()
        print(
            f"{info['shards']} {info['child_backend']} shard(s), "
            f"{info['executor']} scatter"
        )
        print(
            f"  queries: {info['scattered']} scattered "
            f"({info['pruned_queries']} pruned), "
            f"{info['local_fallbacks']} local fallbacks"
        )
        for kind, count in sorted(info["fallback_reasons"].items()):
            print(f"    fallback {kind}: {count}")
        for shard_id, per in enumerate(info["per_shard"]):
            print(
                f"  shard {shard_id}: {per['queries']} queries, "
                f"{per['rows']} rows returned"
            )
        part = info["partitioner"]
        print(
            f"  partitioner: {part['full_loads']} full loads, "
            f"{part['delta_syncs']} delta syncs, "
            f"{part['appended_rows']} rows appended"
        )
        for table in db.backend.partitioner.describe_tables():
            if table["replicated"]:
                placement = "replicated to every shard"
            else:
                placement = f"hash({table['shard_key']})"
            counts = "/".join(str(n) for n in table["shard_rows"])
            print(
                f"  {table['table']}: {placement}, "
                f"{table['rows']} rows ({counts})"
            )
        return True
    if command == "\\matviews":
        from repro.matview import maintenance

        views = db.catalog.matviews()
        if not views:
            print("no materialized provenance views (CREATE MATERIALIZED "
                  "PROVENANCE VIEW v AS SELECT PROVENANCE ...)")
            return True
        for view in views:
            state = maintenance.status(view, db.catalog)
            if view.incremental_eligible:
                mode = "delta-maintained"
            else:
                mode = f"full-refresh ({view.ineligible_reason})"
            print(
                f"  {view.name} [{view.semantics}] {state}: "
                f"{len(view.rows)} rows over "
                f"{', '.join(sorted(view.deps)) or 'no tables'}; {mode}"
            )
            print(
                f"    reads served {view.served_reads}, refreshes "
                f"{view.incremental_refreshes} incremental / "
                f"{view.full_refreshes} full"
            )
        return True
    if command == "\\semirings":
        from repro.core.registry import get_rewrite_strategy, rewrite_strategy_names
        from repro.semiring import get_semiring, semiring_names

        print("rewrite strategies (SELECT PROVENANCE (<name>) ...):")
        for name in rewrite_strategy_names():
            print(f"  {name}: {get_rewrite_strategy(name).description}")
        print("semirings (QueryResult.evaluate_provenance(<name>)):")
        for name in semiring_names():
            print(f"  {name}: {get_semiring(name).description}")
        return True
    print(
        "unknown meta command "
        f"{command!r} (\\q, \\d, \\rewrite, \\explain, \\explain+, "
        "\\parallel, \\analyze, "
        "\\stats, \\matviews, \\semirings, \\backend, \\shards, \\server, "
        "\\wal, \\checkpoint)"
    )
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive shell for the Perm provenance engine",
    )
    parser.add_argument("--tpch", type=float, default=None, metavar="SF",
                        help="pre-load TPC-H data at the given scale factor "
                             "and ANALYZE it")
    parser.add_argument("--example", action="store_true",
                        help="pre-load the paper's shop/sales/items example")
    parser.add_argument("--command", "-c", default=None,
                        help="execute one statement and exit")
    parser.add_argument("--backend", default="python",
                        help="execution backend (python, sqlite)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="morsel-driven parallel workers (1 = serial, "
                             "0 = one per core)")
    parser.add_argument("--executor", default="thread",
                        choices=["thread", "process", "serial"],
                        help="worker-pool strategy for parallel morsels "
                             "and shard scatter (default: thread)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="hash-partition tables over N shard backends "
                             "and scatter-gather queries across them")
    parser.add_argument("--shard-key", action="append", default=None,
                        metavar="TABLE=COL",
                        help="override a table's shard key (repeatable; "
                             "TABLE= replicates the table to every shard)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="serve the database over TCP instead of "
                             "starting the shell")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve (default 127.0.0.1)")
    parser.add_argument("--wal-dir", default=None, metavar="DIR",
                        help="durable mode: write-ahead log committed "
                             "statements to DIR and recover whatever a "
                             "previous process left there")
    parser.add_argument("--wal-sync", default="always",
                        choices=["always", "batch", "never"],
                        help="WAL fsync policy (default: always)")
    args = parser.parse_args(argv)

    db = _build_database(args)
    if args.workers != 1:
        db.parallel_workers = None if args.workers == 0 else args.workers
    if args.serve is not None:
        import time as _time

        from repro.server import start_in_thread

        handle = start_in_thread(db, host=args.host, port=args.serve)
        host, port = handle.address
        print(f"serving on {host}:{port} (ctrl-c to stop)", file=sys.stderr)
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            handle.stop()
            db.close()
            return 0
    if args.command is not None:
        try:
            result = db.execute(args.command)
        except PermError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            db.close()
        if result.columns:
            print(result.pretty())
        else:
            print(result.command)
        return 0

    print("Perm repro shell -- SELECT PROVENANCE ... to compute provenance.")
    print(
        "\\q quit, \\d relations, \\rewrite <q>, \\explain[+] <q>, "
        "\\parallel [off|N], \\analyze [table], \\stats, \\matviews, "
        "\\semirings, \\backend [name], \\shards, "
        "\\server [start|stats|stop]"
    )
    buffer = ""
    while True:
        try:
            prompt = "perm> " if not buffer else "  ... "
            line = input(prompt)
        except (EOFError, KeyboardInterrupt):
            print()
            db.close()
            return 0
        if not buffer and line.strip().startswith("\\"):
            try:
                if not _handle_meta(db, line.strip()):
                    db.close()
                    return 0
            except PermError as exc:
                print(f"error: {exc}")
            continue
        buffer += line + "\n"
        if ";" not in line:
            continue
        statement, buffer = buffer, ""
        try:
            result = db.execute(statement)
        except PermError as exc:
            print(f"error: {exc}")
            continue
        if result.columns:
            print(result.pretty())
            print(f"({len(result)} rows)")
        else:
            print(result.command)


if __name__ == "__main__":
    raise SystemExit(main())
