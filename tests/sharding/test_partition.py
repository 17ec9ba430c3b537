"""Partitioner unit tests: hashing, shard-key schemes, mirror sync."""

from __future__ import annotations

import datetime
import threading

import pytest

import repro
from repro.errors import ExecutionError, PermError
from repro.sharding.partition import Partitioner, _localize, shard_of


# ---------------------------------------------------------------------------
# shard_of


def test_integers_hash_by_residue():
    assert [shard_of(i, 4) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert shard_of(-5, 4) == -5 % 4


def test_int_valued_floats_colocate_with_ints():
    # 3 and 3.0 compare equal in SQL, so they must land on one shard.
    assert shard_of(3.0, 4) == shard_of(3, 4)


def test_dates_hash_like_their_ordinal():
    day = datetime.date(2024, 5, 17)
    assert shard_of(day, 4) == day.toordinal() % 4


def test_none_lands_on_shard_zero():
    assert shard_of(None, 8) == 0


def test_strings_are_deterministic_and_in_range():
    for n in (1, 2, 5):
        for value in ("", "a", "Merdies", "x" * 100):
            first = shard_of(value, n)
            assert 0 <= first < n
            assert shard_of(value, n) == first


def test_bool_hashes_as_int():
    assert shard_of(True, 4) == shard_of(1, 4)
    assert shard_of(False, 4) == shard_of(0, 4)


# ---------------------------------------------------------------------------
# shard-local row copies


def test_localize_copies_picklable_rows():
    rows = [(1, "a", datetime.date(1997, 1, 1)), (2, None, None)]
    copied = _localize(rows)
    assert copied == rows
    assert copied[0] is not rows[0]


@pytest.mark.parametrize(
    "value",
    [lambda: 1, threading.Lock()],  # PicklingError/AttributeError, TypeError
    ids=["lambda", "lock"],
)
def test_localize_keeps_shared_rows_when_a_value_cannot_pickle(value):
    rows = [(1, value)]
    assert _localize(rows) is rows


class _Broken:
    def __reduce__(self):
        raise RuntimeError("not a pickling problem")


def test_localize_surfaces_other_failures():
    with pytest.raises(RuntimeError, match="not a pickling problem"):
        _localize([(1, _Broken())])


# ---------------------------------------------------------------------------
# shard-key scheme


def _catalog(*ddl: str):
    db = repro.connect()
    for statement in ddl:
        db.execute(statement)
    return db.catalog


def test_primary_key_first_column_is_default_shard_key():
    catalog = _catalog("CREATE TABLE t (a integer, b text, PRIMARY KEY (a, b))")
    part = Partitioner(catalog, 2)
    assert part.key_column("t") == "a"


def test_tables_without_primary_key_are_replicated():
    catalog = _catalog("CREATE TABLE t (a integer, b text)")
    part = Partitioner(catalog, 3)
    assert part.key_column("t") is None
    part.sync()
    # no rows yet, but every shard still holds the table definition
    assert all(c.table("t") is not None for c in part.shard_catalogs)


def test_shard_key_override_beats_primary_key():
    catalog = _catalog("CREATE TABLE t (a integer, b text, PRIMARY KEY (a))")
    part = Partitioner(catalog, 2, shard_keys={"T": "B"})
    assert part.key_column("t") == "b"


def test_explicit_none_replicates_despite_primary_key():
    catalog = _catalog("CREATE TABLE t (a integer, PRIMARY KEY (a))")
    part = Partitioner(catalog, 2, shard_keys={"t": None})
    assert part.key_column("t") is None


def test_unknown_shard_key_column_is_rejected():
    catalog = _catalog("CREATE TABLE t (a integer)")
    part = Partitioner(catalog, 2, shard_keys={"t": "nope"})
    with pytest.raises(PermError):
        part.sync()


def test_shard_count_must_be_positive():
    with pytest.raises(PermError):
        Partitioner(_catalog(), 0)


# ---------------------------------------------------------------------------
# mirror sync (through the sharded backend, as production drives it)


def _sharded(n: int = 2, **kwargs) -> repro.PermDatabase:
    db = repro.connect(shards=n, **kwargs)
    db.execute("CREATE TABLE t (a integer, b text, PRIMARY KEY (a))")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w')")
    return db


def _shard_rows(part: Partitioner, name: str) -> list[int]:
    return [
        c.table(name).row_count() if c.table(name) is not None else 0
        for c in part.shard_catalogs
    ]


def test_rows_route_by_shard_key_hash():
    db = _sharded(2)
    db.execute("SELECT count(*) FROM t")
    part = db.backend.partitioner
    assert _shard_rows(part, "t") == [2, 2]  # keys 1..4 split by parity
    for shard_id, catalog in enumerate(part.shard_catalogs):
        for row in catalog.table("t").raw_rows():
            assert shard_of(row[0], 2) == shard_id


def test_append_syncs_as_suffix_not_full_reload():
    db = _sharded(2)
    db.execute("SELECT count(*) FROM t")
    part = db.backend.partitioner
    loads = part.full_loads
    db.execute("INSERT INTO t VALUES (5, 'v'), (6, 'u')")
    assert db.execute("SELECT count(*) FROM t").rows == [(6,)]
    assert part.full_loads == loads  # appended, not reloaded
    assert part.appended_rows >= 2
    assert sum(_shard_rows(part, "t")) == 6


def test_delete_syncs_through_deltas():
    db = _sharded(2)
    db.execute("SELECT count(*) FROM t")
    part = db.backend.partitioner
    loads = part.full_loads
    db.execute("DELETE FROM t WHERE a = 2")
    assert db.execute("SELECT count(*) FROM t").rows == [(3,)]
    assert part.delta_syncs >= 1
    assert part.full_loads == loads
    assert sum(_shard_rows(part, "t")) == 3


def test_update_moves_rows_consistently():
    db = _sharded(2)
    db.execute("UPDATE t SET b = 'changed' WHERE a = 3")
    assert db.execute("SELECT b FROM t WHERE a = 3").rows == [("changed",)]
    part = db.backend.partitioner
    assert sum(_shard_rows(part, "t")) == 4


def test_drop_and_recreate_full_reloads():
    db = _sharded(2)
    db.execute("SELECT count(*) FROM t")
    part = db.backend.partitioner
    loads = part.full_loads
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (a integer, PRIMARY KEY (a))")
    db.execute("INSERT INTO t VALUES (10), (11)")
    assert db.execute("SELECT count(*) FROM t").rows == [(2,)]
    assert part.full_loads > loads


def test_recreate_with_narrower_schema_recomputes_shard_key():
    # the old shard-key attno (1) is out of range for the new schema; a
    # stale cache entry would crash insert routing with an IndexError
    db = repro.connect(shards=2)
    db.execute("CREATE TABLE u (x text, k integer, PRIMARY KEY (k))")
    db.execute("INSERT INTO u VALUES ('a', 1), ('b', 2)")
    db.execute("SELECT count(*) FROM u")  # sync caches the key attno
    db.execute("DROP TABLE u")
    db.execute("CREATE TABLE u (z text, PRIMARY KEY (z))")
    db.execute("INSERT INTO u VALUES ('hello'), ('world')")
    assert db.execute("SELECT count(*) FROM u").rows == [(2,)]
    part = db.backend.partitioner
    assert part.key_column("u") == "z"
    assert sum(_shard_rows(part, "u")) == 2


def test_recreate_with_reordered_schema_routes_by_the_named_key():
    # same column names, different order: a stale attno would silently
    # shard by whatever column sits at the old index
    db = repro.connect(shards=2)
    db.execute("CREATE TABLE v (k integer, x text, PRIMARY KEY (k))")
    db.execute("INSERT INTO v VALUES (1, 'a'), (2, 'b')")
    db.execute("SELECT count(*) FROM v")
    db.execute("DROP TABLE v")
    db.execute("CREATE TABLE v (x text, k integer, PRIMARY KEY (k))")
    db.execute("INSERT INTO v VALUES ('a', 1), ('b', 2), ('c', 3), ('d', 4)")
    assert db.execute("SELECT count(*) FROM v").rows == [(4,)]
    part = db.backend.partitioner
    assert part.key_column("v") == "k"
    for shard_id, catalog in enumerate(part.shard_catalogs):
        for row in catalog.table("v").raw_rows():
            assert shard_of(row[1], 2) == shard_id


def test_replicated_table_is_copied_to_every_shard():
    db = repro.connect(shards=3)
    db.execute("CREATE TABLE r (a integer)")  # no PK: replicated
    db.execute("INSERT INTO r VALUES (1), (2), (3)")
    assert db.execute("SELECT count(*) FROM r").rows == [(3,)]
    part = db.backend.partitioner
    assert _shard_rows(part, "r") == [3, 3, 3]
    (entry,) = part.describe_tables()
    assert entry["replicated"] is True
    assert entry["rows"] == 3


def test_describe_tables_reports_partitioning():
    db = _sharded(4)
    db.execute("SELECT count(*) FROM t")
    (entry,) = db.backend.partitioner.describe_tables()
    assert entry["table"] == "t"
    assert entry["shard_key"] == "a"
    assert entry["replicated"] is False
    assert entry["rows"] == 4
    assert sum(entry["shard_rows"]) == 4


def test_snapshot_token_translates_per_shard():
    db = _sharded(2)
    part = db.backend.partitioner
    token = part.snapshot_token()
    table = db.catalog.table("t")
    assert token[table.uid] == (table.epoch, 4)
    shard_snaps = part.translate_snapshot(["t"], token)
    assert len(shard_snaps) == 2
    assert sum(rows for _, rows in shard_snaps[0].values()) + sum(
        rows for _, rows in shard_snaps[1].values()
    ) == 4


def test_evicted_snapshot_translation_raises_typed_error():
    db = _sharded(2)
    part = db.backend.partitioner
    token = part.snapshot_token()
    part._translations.clear()  # simulate eviction from the bounded map
    with pytest.raises(ExecutionError, match="snapshot too old"):
        part.translate_snapshot(["t"], token)


def test_dropped_table_snapshot_raises_typed_error():
    db = _sharded(2)
    part = db.backend.partitioner
    token = part.snapshot_token()
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (a integer, PRIMARY KEY (a))")
    part.sync()
    with pytest.raises(ExecutionError, match="snapshot too old"):
        part.translate_snapshot(["t"], token)
