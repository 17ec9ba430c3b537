"""The six benchmark workloads: what is set up, and which statements run.

A workload owns one configuration of the program under test (python,
sqlite, sharded, durable + materialized views, or a server subprocess)
and yields the statement list of one *pass*.  The program only ever sees
generated SQL text and rows.

What ``--seed`` varies, and what it must not: at these scale factors a
different nation, colour or tree shape changes a provenance result's size
several-fold (first 10-seed sweep: ``pass_s`` of ``frontend_synth`` ranged
5.5-17 s, peak RSS of ``tpch_sqlite`` 81-187 MB), and even reordering the
same statements moves garbage-collection pauses between them (``sharded_mix``
``witness_pass_s`` spread 14 % against 5 % at a fixed order).  Either would
swamp a layer's effect.  So the *work* is pinned — dbgen data, qgen
parameters, synthetic trees and statement order come from ``PINNED_SEED`` —
and ``--seed`` varies what leaves it unchanged: the order keys the DML
touches and each served client's statement order.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import repro
from repro import workloads as synth
from repro.server import PermClient
from repro.tpch import SUPPORTED_QUERIES, generate, generate_query, load_into

SRC_DIR = Path(repro.__file__).resolve().parents[1]

MARKERS = {
    "normal": "SELECT",
    "witness": "SELECT PROVENANCE",
    "poly": "SELECT PROVENANCE (polynomial)",
}

#: Seed of everything that decides how much work a pass is (see above).
PINNED_SEED = 42

#: TPC-H queries whose polynomial twin the rewriter rejects (sublinks).
POLY_REJECTED = (11, 15, 16)

#: Statements left out of a workload, with the reason (README repeats it).
EXCLUDED = {
    "tpch_python": {
        f"q{n}.poly": "polynomial rewrite rejects sublinks" for n in POLY_REJECTED
    },
    "tpch_sqlite": {
        **{f"q{n}.poly": "polynomial rewrite rejects sublinks" for n in POLY_REJECTED},
        "q1.poly": "24.5 s alone at SF 0.002 on SQLite (perm_poly_sum UDF); "
        "follow-up candidate",
    },
    "frontend_synth": {
        f"q{n}.poly": "polynomial rewrite rejects sublinks" for n in POLY_REJECTED
    },
}


@dataclass(frozen=True)
class Stmt:
    """One statement of a pass."""

    sid: str  #: stable id, e.g. ``q3.witness``
    kind: str  #: normal | witness | poly | write
    sql: str
    query: str  #: twin group: statements comparing against one normal result
    bag: bool = False  #: SPJ without DISTINCT: counting == bag multiplicity
    seeded: bool = False  #: text or result depends on --seed: no expected entry
    acked_key: Optional[tuple] = None  #: (op, l_orderkey, l_linenumber) of a keyed write


def twins(query: str, sql: str, kinds, bag: bool = False) -> list[Stmt]:
    """The normal / witness / polynomial forms of one SELECT text."""
    return [
        Stmt(f"{query}.{kind}", kind, sql.replace("SELECT", MARKERS[kind], 1), query, bag)
        for kind in kinds
    ]


def tpch_query(number: int) -> str:
    return generate_query(number, seed=PINNED_SEED)


def tpch_groups(skip: dict) -> list[list[Stmt]]:
    """Per supported TPC-H query, its twins minus the excluded ones."""
    return [
        [stmt for stmt in twins(f"q{number}", tpch_query(number), MARKERS) if stmt.sid not in skip]
        for number in SUPPORTED_QUERIES
    ]


def load_tpch(db, scale: float) -> tuple[Any, dict]:
    """dbgen + bulk load + ANALYZE, each timed (parts of ``setup_s``)."""
    t0 = time.perf_counter()
    data = generate(scale, seed=PINNED_SEED)
    t1 = time.perf_counter()
    load_into(db, data)
    t2 = time.perf_counter()
    db.execute("ANALYZE")
    t3 = time.perf_counter()
    return data, {
        "tpch.generate_s": t1 - t0,
        "storage.load_s": t2 - t1,
        "storage.insert_rows_per_s": data.total_rows() / (t2 - t1),
        "planner.analyze_stats_s": t3 - t2,
    }


class Workload:
    """Base: an in-process database driven through ``db.execute``."""

    name = ""
    scale = 0.0
    why = ""
    #: pipeline the traced pass steps through: python | sqlite | sharded | dml | served
    pipeline = "python"
    clients = 1  #: connections generating load
    connect_kwargs: dict = {}

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.scale_factor = self.scale / 5 if quick else self.scale
        self.workdir = workdir
        self.db = None
        self.data = None
        self.setup_parts: dict = {}

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        self.db = repro.connect(**self.connect_kwargs)
        self.data, self.setup_parts = load_tpch(self.db, self.scale_factor)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- statements --------------------------------------------------------

    def groups(self) -> list[list[Stmt]]:
        """The pass's twin groups (twins adjacent, so they compare under
        one database state)."""
        raise NotImplementedError

    def statements(self, pass_index: int) -> list[Stmt]:
        return [stmt for group in self.groups() for stmt in group]

    def check_groups(self) -> list[Stmt]:
        """Extra twin groups run once, untimed, only to be checked."""
        return []

    def text(self, stmt: Stmt, pass_index: int) -> str:
        """The text sent to the program: trailing spaces defeat the
        statement cache (identical work, cold frontend)."""
        return stmt.sql if stmt.kind == "write" else stmt.sql + " " * pass_index

    def execute(self, stmt: Stmt, text: str):
        return self.db.execute(text)

    def dataset(self):
        """The generated base data (drift digest, expected-file twin)."""
        return self.data

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TpchPython(Workload):
    name = "tpch_python"
    scale = 0.01
    why = (
        "Perm Fig. 10 on the default engine: 15 TPC-H queries as normal, witness "
        "and polynomial twins; the executor does most of the work"
    )

    def groups(self) -> list[list[Stmt]]:
        return tpch_groups(EXCLUDED[self.name])


class TpchSqlite(Workload):
    name = "tpch_sqlite"
    scale = 0.002
    pipeline = "sqlite"
    connect_kwargs = {"backend": "sqlite"}
    why = (
        "same statements on backend=sqlite: deparse, mirror sync, SQLite and value "
        "conversion do the work, the python planner/executor none"
    )

    def setup(self) -> None:
        super().setup()
        # The first sync ships every table; it belongs to set-up, not to
        # whichever statement happens to touch a table first.
        self.db.backend.sync_tables(self.data.tables())

    def groups(self) -> list[list[Stmt]]:
        return tpch_groups(EXCLUDED[self.name])


class FrontendSynth(Workload):
    name = "frontend_synth"
    scale = 0.001
    why = (
        "Perm Fig. 9/12/13/14: set-op and SPJ trees, aggregation chains and TPC-H "
        "texts on tiny data, so parse-to-plan dominates and execution does not"
    )

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        # Planning cost does not shrink with the data, and fewer parts
        # reshape the random trees; --quick draws fewer trees instead.
        self.scale_factor = self.scale

    def groups(self) -> list[list[Stmt]]:
        parts = len(self.data.part)
        count = 2 if self.quick else 10
        groups = []
        for leaves in (2, 4, 6, 8):
            sub_seed = PINNED_SEED * 100 + leaves
            for i, tree in enumerate(synth.setop_queries(leaves, count, parts, seed=sub_seed)):
                # Marking the tree's first SELECT only reaches the whole
                # statement when the left operand is a leaf (README,
                # findings); a derived table marks every tree alike.
                groups.append(twins(f"setop{leaves}.{i}", f"SELECT * FROM ({tree}) AS s", MARKERS))
            for i, sql in enumerate(synth.spj_queries(leaves, count, parts, seed=sub_seed)):
                groups.append(twins(f"spj{leaves}.{i}", sql, MARKERS, bag=True))
        for depth in range(1, 7):
            groups.append(twins(f"agg{depth}", synth.aggregation_chain(depth, parts), MARKERS))
        return groups + tpch_groups(EXCLUDED[self.name])


class DmlMatviewWal(Workload):
    name = "dml_matview_wal"
    scale = 0.005
    pipeline = "dml"
    rounds = 50
    why = (
        "writes beside reads: durable INSERT/DELETE/UPDATE (wal_sync=always) with two "
        "incrementally maintained provenance views read after every write"
    )

    VIEW_W = (
        "SELECT PROVENANCE o_orderkey, l_linenumber, l_extendedprice "
        "FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity > 47"
    )
    VIEW_P = (
        "SELECT PROVENANCE (polynomial) l_orderkey, l_linenumber, l_quantity "
        "FROM lineitem WHERE l_quantity > 47"
    )

    def __init__(self, seed: int, quick: bool, workdir: Path, durable: bool = True) -> None:
        super().__init__(seed, quick, workdir)
        if quick:
            self.rounds = 10
        #: False builds the probes' twin: same data, no WAL and no views
        #: (what a write costs without the log, a read without the view).
        self.durable = durable
        self.wal_dir = workdir / f"wal-{os.getpid()}"

    def setup(self) -> None:
        if not self.durable:
            return super().setup()
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.db = repro.connect(wal_dir=str(self.wal_dir), wal_sync="always")
        self.data, self.setup_parts = load_tpch(self.db, self.scale_factor)
        self.db.execute(f"CREATE MATERIALIZED PROVENANCE VIEW e2e_w AS {self.VIEW_W}")
        self.db.execute(f"CREATE MATERIALIZED PROVENANCE VIEW e2e_p AS {self.VIEW_P}")
        # load_into bypasses the log; the snapshot makes the bulk load
        # durable and leaves only the workload's statements in the WAL.
        self.db.checkpoint()

    def close(self) -> None:
        super().close()
        if self.durable:
            shutil.rmtree(self.wal_dir, ignore_errors=True)

    def insert_sql(self, orderkey: int, linenumber: int) -> str:
        return (
            f"INSERT INTO lineitem VALUES ({orderkey}, 1, 1, {linenumber}, 50, 5000.0, "
            "0.01, 0.02, 'N', 'O', DATE '1997-01-01', DATE '1997-01-02', DATE '1997-01-03', "
            "'NONE', 'TRUCK', 'e2e delta row')"
        )

    def statements(self, pass_index: int) -> list[Stmt]:
        rng = random.Random(self.seed * 1000 + pass_index)
        orders = len(self.data.orders)
        unviewed = tpch_query(6).replace(MARKERS["normal"], MARKERS["witness"], 1)
        statements = []
        inserted = []
        # A view read is priced by what it has to absorb: its statement id
        # names the heaviest write since the previous read of that view.
        after = "update" if pass_index else "insert"
        for r in range(self.rounds):
            orderkey = rng.randint(1, orders)
            linenumber = 100 + pass_index * self.rounds + r
            inserted.append((orderkey, linenumber))
            statements.append(
                Stmt("insert", "write", self.insert_sql(orderkey, linenumber), "insert",
                     seeded=True, acked_key=("insert", orderkey, linenumber))
            )
            statements.append(Stmt(f"view_w.read_after_{after}", "witness", self.VIEW_W, "view_w", seeded=True))
            statements.append(Stmt(f"view_p.read_after_{after}", "poly", self.VIEW_P, "view_p", seeded=True))
            after = "insert"
            if r % 5 == 4:
                key, line = inserted[r - 3]
                statements.append(
                    Stmt("delete", "write",
                         f"DELETE FROM lineitem WHERE l_orderkey = {key} "
                         f"AND l_linenumber = {line}",
                         "delete", seeded=True, acked_key=("delete", key, line))
                )
                after = "delete"
            if r % 10 == 9:
                statements.append(Stmt("unviewed.witness", "witness", unviewed, "unviewed"))
            if r == self.rounds - 1:
                key, _ = inserted[r]
                statements.append(
                    Stmt("update", "write",
                         f"UPDATE lineitem SET l_tax = 0.03 WHERE l_orderkey = {key} "
                         "AND l_linenumber >= 100",
                         "update", seeded=True)
                )
        return statements

    def check_groups(self) -> list[Stmt]:
        normal = MARKERS["normal"]
        return [
            Stmt("view_w.normal", "normal", self.VIEW_W.replace(MARKERS["witness"], normal, 1), "view_w", True, True),
            Stmt("view_w.check", "witness", self.VIEW_W, "view_w", True, True),
            Stmt("view_p.normal", "normal", self.VIEW_P.replace(MARKERS["poly"], normal, 1), "view_p", True, True),
            Stmt("view_p.check", "poly", self.VIEW_P, "view_p", True, True),
            *twins("unviewed", tpch_query(6), ("normal", "witness")),
        ]

    def expected_delta_keys(self, statements: list[Stmt]) -> set[tuple[int, int]]:
        """The (l_orderkey, l_linenumber) of benchmark rows that must
        exist once every keyed write in ``statements`` is applied."""
        keys: set[tuple[int, int]] = set()
        for stmt in statements:
            if stmt.acked_key is not None:
                op, key, line = stmt.acked_key
                (keys.add if op == "insert" else keys.discard)((key, line))
        return keys


#: The eight statements of ``benchmarks/bench_sharded.py``, verbatim
#: (keys 3/7/11 share a residue mod 4, so the IN list prunes to one shard).
SHARDED_STATEMENTS = [
    ("orders_point", "witness", "SELECT PROVENANCE * FROM orders WHERE o_orderkey = 3"),
    ("orders_inlist", "witness", "SELECT PROVENANCE * FROM orders WHERE o_orderkey IN (3, 7, 11)"),
    ("lineitem_point", "witness",
     "SELECT PROVENANCE l_linenumber, l_quantity, l_extendedprice "
     "FROM lineitem WHERE l_orderkey = 7"),
    ("copartitioned_join", "witness",
     "SELECT PROVENANCE o_orderkey, l_extendedprice FROM orders, lineitem "
     "WHERE o_orderkey = l_orderkey AND o_orderkey = 3"),
    ("pruned_aggregate", "poly",
     "SELECT PROVENANCE (polynomial) l_orderkey, count(*), sum(l_quantity) "
     "FROM lineitem WHERE l_orderkey = 11 GROUP BY l_orderkey"),
    ("fullscan_witness", "witness",
     "SELECT PROVENANCE l_orderkey, l_extendedprice FROM lineitem WHERE l_discount > 0.05"),
    ("fullscan_aggregate", "poly",
     "SELECT PROVENANCE (polynomial) l_orderkey, sum(l_extendedprice) "
     "FROM lineitem GROUP BY l_orderkey"),
    ("fullscan_topk", "normal",
     "SELECT o_orderkey, o_totalprice FROM orders "
     "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"),
]

SHARDED_TPCH = (3, 6, 10, 12, 14)


class ShardedMix(Workload):
    name = "sharded_mix"
    scale = 0.005
    pipeline = "sharded"
    connect_kwargs = {"shards": 4}
    why = (
        "4 python shards, in-line scatter: shard-key-prunable and full-scan provenance "
        "statements, TPC-H witness queries (typed local fallback) and delta-synced INSERTs"
    )

    def setup(self) -> None:
        super().setup()
        self.db.backend.partitioner.sync()  # build the shard mirrors in set-up

    def groups(self) -> list[list[Stmt]]:
        groups = [[Stmt(f"{tag}.{kind}", kind, sql, tag)] for tag, kind, sql in SHARDED_STATEMENTS]
        return groups + [twins(f"q{number}", tpch_query(number), ("witness",)) for number in SHARDED_TPCH]

    def statements(self, pass_index: int) -> list[Stmt]:
        """The pass's two INSERTs, then the reads (the first of which pays
        for the delta sync of the shard mirrors)."""
        orderkey = 9_000_000 + pass_index
        return [
            Stmt("insert_orders", "write",
                 f"INSERT INTO orders VALUES ({orderkey}, 1, 'O', 1000.0, DATE '1997-01-01', "
                 "'5-LOW', 'Clerk#000000001', 0, 'e2e delta row')",
                 "insert_orders"),
            Stmt("insert_lineitem", "write",
                 f"INSERT INTO lineitem VALUES ({orderkey}, 1, 1, 1, 50, 5000.0, 0.01, 0.02, "
                 "'N', 'O', DATE '1997-01-01', DATE '1997-01-02', DATE '1997-01-03', 'NONE', "
                 "'TRUCK', 'e2e delta row')",
                 "insert_lineitem"),
        ] + super().statements(pass_index)

    def check_groups(self) -> list[Stmt]:
        groups = []
        for tag, kind, sql in SHARDED_STATEMENTS:
            if kind != "normal":
                plain = sql.replace(MARKERS[kind], MARKERS["normal"], 1)
                groups += twins(tag, plain, ("normal", kind))
        for number in SHARDED_TPCH:
            groups += twins(f"q{number}", tpch_query(number), ("normal", "witness"))
        return groups


SERVED_TPCH = (3, 5, 6, 10, 12, 14, 19)


class ServedClosed(Workload):
    name = "served_closed"
    scale = 0.005
    pipeline = "served"
    clients = 2
    why = (
        "python -m repro --serve with a closed loop of 2 PermClient connections on fixed "
        "texts: wire codec, session cache and GIL queueing on top of small TPC-H queries"
    )

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed, quick, workdir)
        self.server: Optional[subprocess.Popen] = None
        self.address: Optional[tuple[str, int]] = None
        self.client: Optional[PermClient] = None

    def setup(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "--tpch", repr(self.scale_factor), "--serve", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        for line in self.server.stderr:
            if line.startswith("serving on "):
                host, _, port = line.split()[2].rpartition(":")
                self.address = (host, int(port))
                break
        else:
            self.close()
            raise RuntimeError("server subprocess exited before listening")
        self.client = PermClient(*self.address)
        self.client.query("SELECT count(*) FROM region")  # first statement can run

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stderr.close()
            self.server = None

    def groups(self) -> list[list[Stmt]]:
        return [twins(f"q{number}", tpch_query(number), ("normal", "witness")) for number in SERVED_TPCH]

    def client_statements(self, client_index: int, sweep: int) -> list[Stmt]:
        """One sweep of one client, in an order of its own.  Reshuffling
        every sweep lets each statement meet different neighbours from
        the other connection, so no run is stuck with one pairing."""
        statements = [stmt for group in self.groups() for stmt in group]
        random.Random(f"{self.seed}/{client_index}/{sweep}").shuffle(statements)
        return statements

    def text(self, stmt: Stmt, pass_index: int) -> str:
        return stmt.sql  # fixed texts: the session cache is part of what is served

    def execute(self, stmt: Stmt, text: str):
        return self.client.query(text)

    def dataset(self):
        # What `python -m repro --tpch` loads (it has no seed option).
        if self.data is None:
            self.data = generate(self.scale_factor, seed=PINNED_SEED)
        return self.data

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


WORKLOADS = {
    cls.name: cls
    for cls in (TpchPython, TpchSqlite, FrontendSynth, DmlMatviewWal, ShardedMix, ServedClosed)
}
