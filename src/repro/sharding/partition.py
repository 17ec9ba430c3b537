"""Hash partitioning: the sharded backend's data layer.

A :class:`Partitioner` mirrors the parent catalog's heaps into N
per-shard :class:`~repro.catalog.catalog.Catalog` instances.  Each
table is either *partitioned* — every row lives on exactly the shard
``shard_of(row[key])`` names — or *replicated*, a full copy on every
shard (the right call for tables with no usable key: broadcast joins
against them stay shard-local).

The shard key defaults to the first primary-key column and can be
overridden per table via ``shard_keys={"orders": "o_custkey"}``
(``None`` forces replication).  Mirrors are maintained lazily before
each scattered query, cheapest strategy first:

* same epoch, rows grew → route only the appended suffix;
* epoch bumped but the delta log still covers the gap → replay the
  per-statement deltas (deletes removed from the owning shard, inserts
  routed by key);
* otherwise (truncate, log overflow, uid change) → full repartition.

Every incremental path is verified against the parent row count and
degrades to a full reload on any mismatch — the mirror is never
silently wrong.
"""

from __future__ import annotations

import datetime
import pickle
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError, PermError
from repro.storage.table import Table

# How many (uid, epoch, rows) -> per-shard-state translations to retain
# for snapshot tokens handed out by ``snapshot_token``.
SNAPSHOT_TRANSLATIONS = 128


def shard_of(value: Any, shards: int) -> int:
    """Deterministic shard assignment for one shard-key value.

    Integers (and integer-valued floats, and dates via their ordinal)
    hash as ``value % shards`` so consecutive keys spread evenly and
    equality predicates prune to one shard; everything else goes
    through CRC-32 of a canonical encoding.  NULL keys live on shard 0,
    which keeps null-safe (``<=>``) join keys co-located.
    """
    if shards <= 1:
        return 0
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value) % shards
    if isinstance(value, int):
        return value % shards
    if isinstance(value, float):
        if value.is_integer():
            return int(value) % shards
        return zlib.crc32(repr(value).encode("utf-8")) % shards
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8")) % shards
    if isinstance(value, datetime.datetime):
        return zlib.crc32(value.isoformat().encode("utf-8")) % shards
    if isinstance(value, datetime.date):
        return value.toordinal() % shards
    return zlib.crc32(repr(value).encode("utf-8")) % shards


def _localize(rows: Sequence[Sequence[Any]]) -> Sequence[Sequence[Any]]:
    """Reallocate row values into shard-local objects.

    Mirrors built from parent row references inherit the parent's
    allocation order, so a shard scan strides across the whole parent
    heap: CPython writes a refcount into every value an output tuple
    captures, and with hash-scattered objects those writes are cache
    misses — four shard scans cost ~1.7x one contiguous full scan.  A
    pickle round-trip materialises fresh values in allocation order per
    shard, after which the four scans sum to *less* than the full scan.
    Rows holding a value that refuses to pickle (a lambda, a lock, a
    local class) fall back to the shared objects; any other failure is a
    bug and surfaces.
    """
    try:
        return pickle.loads(pickle.dumps(list(rows), pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        return rows


@dataclass
class _MirrorState:
    """Where the per-shard mirrors of one parent table stand."""

    uid: int
    epoch: int
    rows_synced: int
    delta_seq: int


class Partitioner:
    """Mirrors a parent catalog into N hash-partitioned shard catalogs."""

    def __init__(
        self,
        catalog: Catalog,
        shards: int,
        shard_keys: Optional[Mapping[str, Optional[str]]] = None,
    ) -> None:
        if shards < 1:
            raise PermError(f"shard count must be >= 1, got {shards}")
        self.catalog = catalog
        self.shards = int(shards)
        self.shard_keys = {
            name.lower(): (key.lower() if isinstance(key, str) else key)
            for name, key in (shard_keys or {}).items()
        }
        self.shard_catalogs = [Catalog() for _ in range(self.shards)]
        self._states: dict[str, _MirrorState] = {}
        self._key_attnos: dict[str, tuple[int, Optional[int]]] = {}
        self._translations: dict[tuple, tuple] = {}
        self._lock = threading.RLock()
        # counters surfaced through ``\shards`` / server stats
        self.full_loads = 0
        self.delta_syncs = 0
        self.appended_rows = 0

    # ------------------------------------------------------------------
    # shard-key scheme

    def key_column(self, name: str) -> Optional[str]:
        """The shard-key column for ``name``, or None if replicated."""
        attno = self.key_attno(name)
        if attno is None:
            return None
        return self.catalog.table(name).schema.columns[attno].name

    def key_attno(self, name: str) -> Optional[int]:
        """The shard-key attribute index for ``name`` (None = replicated)."""
        name = name.lower()
        table = self.catalog.table(name)
        # keyed by the table uid: DROP + CREATE between syncs must never
        # reuse an attno computed against the old schema
        cached = self._key_attnos.get(name)
        if cached is not None and cached[0] == table.uid:
            return cached[1]
        attno = self._compute_key_attno(name, table)
        self._key_attnos[name] = (table.uid, attno)
        return attno

    def _compute_key_attno(self, name: str, table: Table) -> Optional[int]:
        if name in self.shard_keys:
            key = self.shard_keys[name]
            if key is None:
                return None
            if not table.schema.has_column(key):
                raise PermError(
                    f"shard key {key!r} is not a column of table {name!r}"
                )
            return table.schema.column_index(key)
        if table.schema.primary_key:
            return table.schema.column_index(table.schema.primary_key[0])
        return None

    # ------------------------------------------------------------------
    # synchronisation

    def sync(self) -> None:
        """Bring every shard mirror up to date with the parent catalog."""
        with self._lock:
            live = {table.name.lower(): table for table in self.catalog.tables()}
            for name in list(self._states):
                if name not in live:
                    for shard in self.shard_catalogs:
                        shard.drop_table(name, missing_ok=True)
                    del self._states[name]
                    self._key_attnos.pop(name, None)
            for name, table in live.items():
                self._sync_table(name, table)

    def _sync_table(self, name: str, table: Table) -> None:
        epoch = table.epoch
        delta_seq = table.delta_seq
        nrows = table.row_count()
        attno = self.key_attno(name)
        state = self._states.get(name)

        if state is None or state.uid != table.uid:
            self._full_load(name, table, attno)
            return

        if state.epoch == epoch:
            if state.rows_synced > nrows:
                # append-only within an epoch; anything else is a bug or
                # a race — rebuild from scratch.
                self._full_load(name, table, attno)
                return
            if state.rows_synced < nrows:
                suffix = table.raw_rows()[state.rows_synced : nrows]
                self._route_insert(name, attno, suffix)
                self.appended_rows += len(suffix)
            state.rows_synced = nrows
            state.delta_seq = delta_seq
            self._verify(name, table, attno, state)
            return

        deltas = table.deltas_since(state.delta_seq)
        if deltas is None:
            self._full_load(name, table, attno)
            return
        for delta in deltas:
            if delta.deleted:
                self._route_delete(name, attno, delta.deleted)
            if delta.inserted:
                self._route_insert(name, attno, delta.inserted)
        self.delta_syncs += 1
        state.epoch = table.epoch
        state.rows_synced = table.row_count()
        state.delta_seq = deltas[-1].seq if deltas else state.delta_seq
        self._verify(name, table, attno, state)

    def _verify(self, name: str, table: Table, attno: Optional[int], state: _MirrorState) -> None:
        """Cross-check mirror cardinality; rebuild on any mismatch."""
        total = sum(shard.table(name).row_count() for shard in self.shard_catalogs)
        expected = state.rows_synced * (1 if attno is not None else self.shards)
        if total != expected or table.epoch != state.epoch:
            self._full_load(name, table, attno)

    def _full_load(self, name: str, table: Table, attno: Optional[int]) -> None:
        for _ in range(3):
            epoch = table.epoch
            delta_seq = table.delta_seq
            rows = table.raw_rows()
            nrows = table.row_count()
            if table.epoch == epoch:
                break
        for shard in self.shard_catalogs:
            shard.drop_table(name, missing_ok=True)
            shard.create_table(table.schema)
        self._route_insert(name, attno, rows[:nrows])
        self._states[name] = _MirrorState(table.uid, epoch, nrows, delta_seq)
        self.full_loads += 1

    def _route_insert(self, name: str, attno: Optional[int], rows: Sequence[Sequence[Any]]) -> None:
        if not rows:
            return
        if attno is None:
            for shard in self.shard_catalogs:
                shard.table(name).insert_many(_localize(rows))
            return
        buckets: list[list] = [[] for _ in range(self.shards)]
        n = self.shards
        for row in rows:
            buckets[shard_of(row[attno], n)].append(row)
        for shard, bucket in zip(self.shard_catalogs, buckets):
            if bucket:
                shard.table(name).insert_many(_localize(bucket))

    def _route_delete(self, name: str, attno: Optional[int], rows: Sequence[Sequence[Any]]) -> None:
        if not rows:
            return
        if attno is None:
            for shard in self.shard_catalogs:
                shard.table(name).remove_rows(rows)
            return
        buckets: list[list] = [[] for _ in range(self.shards)]
        n = self.shards
        for row in rows:
            buckets[shard_of(row[attno], n)].append(row)
        for shard, bucket in zip(self.shard_catalogs, buckets):
            if bucket:
                shard.table(name).remove_rows(bucket)

    # ------------------------------------------------------------------
    # snapshots

    def snapshot_token(self) -> dict[int, tuple[int, int]]:
        """A parent-shaped snapshot token backed by per-shard translations.

        The token maps the *parent* table uid to (epoch, rows) exactly as
        the unsharded database would, so fallback execution against the
        parent catalog can consume it directly.  For scattered execution
        the token translates, per table, to the shard mirrors' own
        (uid, epoch, rows) captured at the same instant.
        """
        with self._lock:
            self.sync()
            token: dict[int, tuple[int, int]] = {}
            for name, state in self._states.items():
                table = self.catalog.table(name)
                token[table.uid] = (state.epoch, state.rows_synced)
                key = (table.uid, state.epoch, state.rows_synced)
                if key not in self._translations:
                    self._translations[key] = tuple(
                        (
                            shard.table(name).uid,
                            shard.table(name).epoch,
                            shard.table(name).row_count(),
                        )
                        for shard in self.shard_catalogs
                    )
                    while len(self._translations) > SNAPSHOT_TRANSLATIONS:
                        self._translations.pop(next(iter(self._translations)))
            return token

    def translate_snapshot(
        self,
        names: Iterable[str],
        snapshot: Mapping[int, tuple[int, int]],
    ) -> list[dict[int, tuple[int, int]]]:
        """Per-shard snapshot tokens covering ``names``, or raise loudly.

        Raises :class:`ExecutionError` with a ``snapshot too old:``
        message (the wire protocol's ``snapshot_invalid`` class) when a
        table's sharded state at the snapshotted epoch is gone.
        """
        with self._lock:
            shard_snaps: list[dict[int, tuple[int, int]]] = [
                {} for _ in range(self.shards)
            ]
            for name in names:
                table = self.catalog.table(name)
                entry = snapshot.get(table.uid)
                if entry is None:
                    raise ExecutionError(
                        f"snapshot too old: table {name!r} is not covered by the snapshot"
                    )
                epoch, rows = entry
                translation = self._translations.get((table.uid, epoch, rows))
                if translation is None:
                    raise ExecutionError(
                        f"snapshot too old: sharded state of table {name!r} at "
                        f"epoch {epoch} has been superseded"
                    )
                for i, (uid, shard_epoch, shard_rows) in enumerate(translation):
                    shard_snaps[i][uid] = (shard_epoch, shard_rows)
            return shard_snaps

    # ------------------------------------------------------------------
    # introspection

    def describe_tables(self) -> list[dict[str, Any]]:
        """Per-table partitioning status for ``\\shards`` and tests."""
        with self._lock:
            self.sync()
            out = []
            for name in sorted(self._states):
                attno = self.key_attno(name)
                out.append(
                    {
                        "table": name,
                        "shard_key": self.key_column(name),
                        "replicated": attno is None,
                        "rows": self._states[name].rows_synced,
                        "shard_rows": [
                            shard.table(name).row_count()
                            for shard in self.shard_catalogs
                        ],
                    }
                )
            return out
