"""Shared helpers for durability tests: catalog fingerprints and the
differential twin.

The durability contract under test: a database recovered from a WAL
directory is *equivalent* to a fresh database that executed the durable
statement prefix — same heaps, table epochs, delta logs, statistics,
views, matview contents, and same answers to witness and polynomial
provenance reads.  ``fingerprint()`` reifies that equivalence as a
comparable structure; ``replay_twin()`` builds the reference database.
"""

from __future__ import annotations

from collections import Counter

import repro
from repro.semiring.polynomial import Polynomial


def canon_value(value):
    """Hashable, comparison-stable form of one engine value."""
    if isinstance(value, Polynomial):
        return ("$poly", value.to_wire())
    return value


def canon_rows(rows) -> Counter:
    """Rows -> multiset (matview merge order is not part of the contract)."""
    return Counter(tuple(canon_value(v) for v in row) for row in rows)


def fingerprint(db: repro.PermDatabase) -> dict:
    """Everything the durability contract promises to preserve."""
    state = {
        "catalog_epoch": db.catalog.epoch,
        "stats_epoch": db.catalog.stats_epoch,
        "views": sorted(v.name for v in db.catalog.views()),
    }
    tables = {}
    for table in db.catalog.tables():
        floor, deltas = table.delta_log_state()
        tables[table.name] = {
            "rows": canon_rows(table.raw_rows()),
            "epoch": table.epoch,
            "delta_seq": table.delta_seq,
            "delta_floor": floor,
            "deltas": tuple(deltas),
        }
    state["tables"] = tables
    # Matviews are maintain-on-read: bring both sides of a comparison to
    # the current epoch before looking at their rows, otherwise a
    # checkpoint-time refresh would differ from a creation-time one.
    from repro.matview.maintenance import ensure_fresh

    matviews = {}
    for view in db.catalog.matviews():
        ensure_fresh(db, view)
        matviews[view.name] = canon_rows(view.rows)
    state["matviews"] = matviews
    stats = {}
    for name, entry in db.catalog.stats_entries().items():
        table = db.catalog.table(name) if db.catalog.has_table(name) else None
        stats[name] = {
            "row_count": entry.row_count,
            "bound_to_heap": table is not None
            and entry.table_uid == table.uid,
            "fresh": table is not None and entry.is_fresh_for(table),
            "columns": {
                col: (c.ndv, c.null_frac, c.min_value, c.max_value)
                for col, c in entry.columns.items()
            },
        }
    state["stats"] = stats
    return state


def provenance_reads(db: repro.PermDatabase) -> dict:
    """Witness + polynomial provenance answers over every base table."""
    reads = {}
    for table in db.catalog.tables():
        name = table.name
        reads[name, "witness"] = canon_rows(
            db.execute(f"SELECT PROVENANCE * FROM {name}").rows
        )
        reads[name, "polynomial"] = canon_rows(
            db.execute(f"SELECT PROVENANCE (polynomial) * FROM {name}").rows
        )
    return reads


def replay_twin(statements) -> repro.PermDatabase:
    """The reference database: the statement prefix replayed from empty,
    one ``execute()`` per statement (exactly how recovery replays)."""
    twin = repro.connect()
    for sql in statements:
        twin.execute(sql)
    return twin


def assert_equivalent(recovered: repro.PermDatabase, twin: repro.PermDatabase):
    assert fingerprint(recovered) == fingerprint(twin)
    assert provenance_reads(recovered) == provenance_reads(twin)
