"""Checkpoints: an atomic full-catalog snapshot that truncates replay.

A checkpoint file (``checkpoint-<N>.ckpt``) holds the catalog state at
the *beginning* of WAL segment ``N``: recovery restores it and replays
only segments ``>= N``.  The file is written tmp + fsync + atomic
rename + directory fsync, with the payload CRC-checksummed, so at any
crash point the directory holds either the old checkpoint or the new
one — never a half-written one that recovery might trust.

What a snapshot captures, and why:

* **Tables** — schema, rows (tagged-JSON codec, shared with the wire
  protocol), ``epoch``, and the in-memory per-statement delta log
  (``delta_seq``/floor/retained deltas).  The delta log is state the
  matview maintenance layer resumes from; dropping it would silently
  force full refreshes after every restart.
* **Views / matviews** — their canonical printed ``CREATE`` statements,
  re-executed at restore.  Matview rows are *not* persisted: the
  re-executed ``CREATE`` rebuilds them through the existing
  full-refresh path, guaranteeing restored rows match the definition
  rather than trusting serialized derived state.
* **Statistics** — every stored :class:`TableStats`, exactly as held,
  including *lagging* ones.  Auto-ANALYZE triggers compare live heaps
  against these snapshots; persisting recollected (fresh) stats
  instead would make replayed DML re-ANALYZE at different points than
  the crashed process did, diverging plans and ``stats_epoch``.
* **Epochs** — ``catalog.epoch`` and ``stats_epoch`` are forced to
  their persisted values after restore so statement-cache keys line up.

Table ``uid``s are process-lifetime identities and deliberately not
persisted; a stats snapshot records whether its uid matched its table
at checkpoint time and is remapped to the table's fresh uid on restore
exactly when it did.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.catalog.schema import Column, TableSchema
from repro.codec import decode_row, decode_value, encode_row, encode_value
from repro.datatypes import SQLType
from repro.errors import WalError
from repro.faultinject import fault_point
from repro.storage.table import Table, TableDelta
from repro.wal.wal import checkpoint_path, fsync_directory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import PermDatabase

CHECKPOINT_MAGIC = b"PERMCKP1"
_CKP_HEADER = struct.Struct(">II")  # payload length, crc32(payload)

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Snapshot / restore of the in-memory catalog
# ---------------------------------------------------------------------------


def snapshot_catalog(db: "PermDatabase") -> dict:
    """Serialize the full catalog state to a JSON-representable dict.

    The caller must hold the durability commit lock: the snapshot has to
    sit at a statement boundary or replaying the WAL suffix on top of it
    would double-apply the in-flight statement.
    """
    from repro.sql import ast
    from repro.sql.printer import format_statement

    catalog = db.catalog
    stats_entries = catalog.stats_entries()
    tables = []
    for table in catalog.tables():
        floor, deltas = table.delta_log_state()
        entry = {
            "name": table.schema.name,
            "columns": [
                {"name": col.name, "type": col.type.name}
                for col in table.schema.columns
            ],
            "primary_key": list(table.schema.primary_key),
            "epoch": table.epoch,
            "delta_seq": table.delta_seq,
            "delta_floor": floor,
            "rows": [encode_row(row) for row in table.raw_rows()],
            "deltas": [
                {
                    "seq": d.seq,
                    "command": d.command,
                    "inserted": [encode_row(r) for r in d.inserted],
                    "deleted": [encode_row(r) for r in d.deleted],
                }
                for d in deltas
            ],
        }
        stats = stats_entries.pop(table.name.lower(), None)
        if stats is not None:
            entry["stats"] = _encode_stats(stats, table)
        tables.append(entry)
    views = [
        format_statement(
            ast.CreateViewStmt(
                name=view.name,
                query=view.statement,
                provenance_attrs=tuple(view.provenance_attributes),
            )
        )
        for view in catalog.views()
    ]
    matviews = [
        format_statement(
            ast.CreateMatViewStmt(name=view.name, query=view.statement)
        )
        for view in catalog.matviews()
    ]
    return {
        "version": CHECKPOINT_VERSION,
        "catalog_epoch": catalog.epoch,
        "stats_epoch": catalog.stats_epoch,
        "tables": tables,
        "views": views,
        "matviews": matviews,
    }


def restore_catalog(db: "PermDatabase", data: dict) -> None:
    """Rebuild the catalog from a snapshot (inverse of
    :func:`snapshot_catalog`); the caller suspends WAL logging."""
    if data.get("version") != CHECKPOINT_VERSION:
        raise WalError(
            f"unsupported checkpoint version {data.get('version')!r}"
        )
    catalog = db.catalog
    stats_pending = []
    for entry in data["tables"]:
        try:
            columns = [
                Column(col["name"], SQLType[col["type"]])
                for col in entry["columns"]
            ]
        except KeyError as exc:
            raise WalError(f"checkpoint names unknown type {exc}") from None
        schema = TableSchema(
            entry["name"], columns, tuple(entry["primary_key"])
        )
        table = Table(schema)
        table.restore_state(
            rows=[decode_row(row) for row in entry["rows"]],
            epoch=entry["epoch"],
            delta_seq=entry["delta_seq"],
            delta_floor=entry["delta_floor"],
            deltas=[
                TableDelta(
                    seq=d["seq"],
                    command=d["command"],
                    inserted=tuple(decode_row(r) for r in d["inserted"]),
                    deleted=tuple(decode_row(r) for r in d["deleted"]),
                )
                for d in entry["deltas"]
            ],
        )
        catalog.install_table(table)
        if entry.get("stats") is not None:
            stats_pending.append((table, entry["stats"]))
    # Views before matviews: a matview definition may read a view.
    # Both re-execute their canonical CREATE through the ordinary
    # pipeline (matviews thereby re-materialize via full refresh);
    # logging is suspended, and the epochs both executions bump are
    # forced to the persisted values right after.
    for create_sql in data["views"]:
        db.execute(create_sql)
    for create_sql in data["matviews"]:
        db.execute(create_sql)
    for table, encoded in stats_pending:
        catalog.install_stats(table.name, _decode_stats(encoded, table))
    catalog.set_epochs(data["catalog_epoch"], data["stats_epoch"])


def _encode_stats(stats, table: Table) -> dict:
    return {
        "row_count": stats.row_count,
        "sampled_rows": stats.sampled_rows,
        # uids are process-lifetime; persist only whether the snapshot
        # was bound (and fresh) for this heap so restore can re-bind to
        # the new uid.
        "uid_matches": stats.table_uid == table.uid,
        "fresh": stats.is_fresh_for(table),
        "columns": {
            name: {
                "ndv": col.ndv,
                "null_frac": col.null_frac,
                "min": encode_value(col.min_value),
                "max": encode_value(col.max_value),
                # Histogram bounds and MCV entries round-trip exactly so
                # replay plans (and re-ANALYZE decisions) match the
                # crashed process.
                "mcv": [
                    [encode_value(value), frac] for value, frac in col.mcv
                ],
                "hist": [encode_value(bound) for bound in col.histogram],
                "hist_frac": col.histogram_frac,
            }
            for name, col in stats.columns.items()
        },
    }


def _decode_stats(encoded: dict, table: Table):
    from repro.planner.stats import ColumnStats, TableStats

    fresh = encoded.get("fresh")
    if fresh is None:  # written when row removal still staled statistics
        fresh = encoded["uid_matches"] and encoded["table_epoch"] == table.epoch
    return TableStats(
        table_name=table.schema.name,
        row_count=encoded["row_count"],
        columns={
            name: ColumnStats(
                ndv=col["ndv"],
                null_frac=col["null_frac"],
                min_value=decode_value(col["min"]),
                max_value=decode_value(col["max"]),
                mcv=tuple(
                    (decode_value(value), frac)
                    for value, frac in col.get("mcv", ())
                ),
                histogram=tuple(
                    decode_value(bound) for bound in col.get("hist", ())
                ),
                histogram_frac=col.get("hist_frac", 0.0),
            )
            for name, col in encoded["columns"].items()
        },
        table_uid=table.uid if encoded["uid_matches"] else -1,
        table_truncations=table.truncations if fresh else -1,
        sampled_rows=encoded.get("sampled_rows"),
    )


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def write_checkpoint(
    directory: Path, segment: int, data: dict, lsn: int
) -> Path:
    """Atomically persist a snapshot as ``checkpoint-<segment>.ckpt``."""
    data = dict(data)
    data["segment"] = segment
    data["lsn"] = lsn
    payload = json.dumps(data, separators=(",", ":")).encode("utf-8")
    body = (
        CHECKPOINT_MAGIC
        + _CKP_HEADER.pack(len(payload), zlib.crc32(payload))
        + payload
    )
    final = checkpoint_path(directory, segment)
    tmp = final.with_suffix(".tmp")
    fault_point("wal.checkpoint.write", segment=segment)
    with open(tmp, "wb") as fh:
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    fault_point("wal.checkpoint.written", segment=segment)
    os.replace(tmp, final)
    fsync_directory(directory)
    fault_point("wal.checkpoint.renamed", segment=segment)
    return final


def read_checkpoint(path: Path) -> Optional[dict]:
    """Decode a checkpoint file; None when torn/corrupt (recovery then
    falls back to an older checkpoint or an empty catalog)."""
    try:
        body = path.read_bytes()
    except OSError:
        return None
    prefix = len(CHECKPOINT_MAGIC) + _CKP_HEADER.size
    if len(body) < prefix or body[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        return None
    length, crc = _CKP_HEADER.unpack(body[len(CHECKPOINT_MAGIC) : prefix])
    payload = body[prefix : prefix + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        data = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None
