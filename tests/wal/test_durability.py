"""End-to-end durability: log, close, recover, and compare against a
twin database that executed the same durable statement prefix."""

from __future__ import annotations

import pytest

import repro
from repro.errors import ExecutionError, PermError
from repro.wal.wal import list_checkpoints, list_segments

from tests.wal.harness import assert_equivalent, fingerprint, replay_twin

WORKLOAD = [
    "CREATE TABLE shop (name text, numempl integer)",
    "INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14), ('Edeka', 7)",
    "CREATE TABLE sales (name text, amount integer)",
    "INSERT INTO sales VALUES ('Merdies', 100), ('Joba', 40), ('Joba', 9)",
    "UPDATE shop SET numempl = numempl + 1 WHERE name = 'Joba'",
    "DELETE FROM sales WHERE amount < 10",
    "CREATE VIEW small AS SELECT name FROM shop WHERE numempl < 10",
    (
        "CREATE MATERIALIZED PROVENANCE VIEW mv AS SELECT PROVENANCE "
        "s.name, amount FROM shop s, sales WHERE s.name = sales.name"
    ),
    "ANALYZE shop",
    "SELECT name INTO topsellers FROM sales WHERE amount > 50",
]


def run_workload(db, statements=WORKLOAD):
    for sql in statements:
        db.execute(sql)


def reopen(tmp_path, **kwargs):
    return repro.connect(wal_dir=tmp_path / "wal", **kwargs)


class TestRecovery:
    def test_fresh_directory_is_a_noop(self, tmp_path):
        db = reopen(tmp_path)
        report = db.last_recovery
        assert report.statements_replayed == 0
        assert report.checkpoint_segment is None
        assert db.catalog.tables() == []
        db.close()

    def test_round_trip_equals_replay_twin(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        db.close()

        recovered = reopen(tmp_path)
        assert recovered.last_recovery.statements_replayed == len(WORKLOAD)
        assert_equivalent(recovered, replay_twin(WORKLOAD))
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        db.close()
        first = reopen(tmp_path)
        fp = fingerprint(first)
        first.close()
        second = reopen(tmp_path)
        assert fingerprint(second) == fp
        second.close()

    def test_writes_after_recovery_are_durable_too(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        db.close()
        db = reopen(tmp_path)
        extra = "INSERT INTO shop VALUES ('Spar', 5)"
        db.execute(extra)
        db.close()
        recovered = reopen(tmp_path)
        assert_equivalent(recovered, replay_twin(WORKLOAD + [extra]))
        recovered.close()

    def test_selects_are_not_logged(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        before = db.wal_status()["appended_records"]
        db.execute("SELECT * FROM shop")
        db.execute("SELECT PROVENANCE (polynomial) name FROM small")
        assert db.wal_status()["appended_records"] == before
        db.close()

    def test_failed_statements_are_not_logged(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        with pytest.raises(PermError):
            db.execute("INSERT INTO missing VALUES (1)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO shop VALUES ('x', 1, 2, 3)")
        db.close()
        recovered = reopen(tmp_path)
        assert recovered.last_recovery.statements_replayed == len(WORKLOAD)
        assert_equivalent(recovered, replay_twin(WORKLOAD))
        recovered.close()


class TestCheckpoints:
    def test_checkpoint_truncates_replay(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        new_segment = db.checkpoint()
        assert new_segment == 2
        extra = "INSERT INTO sales VALUES ('Edeka', 77)"
        db.execute(extra)
        db.close()

        recovered = reopen(tmp_path)
        report = recovered.last_recovery
        assert report.checkpoint_segment == 2
        assert report.statements_replayed == 1
        assert_equivalent(recovered, replay_twin(WORKLOAD + [extra]))
        recovered.close()

    def test_statistics_stay_fresh_across_delete_and_checkpoint(self, tmp_path):
        workload = WORKLOAD + ["DELETE FROM shop WHERE name = 'Edeka'"]
        db = reopen(tmp_path)
        run_workload(db, workload)
        assert db.catalog.stats_for("shop").row_count == 3  # as ANALYZEd
        db.checkpoint()
        db.close()

        recovered = reopen(tmp_path)
        assert recovered.catalog.stats_for("shop").row_count == 3
        assert_equivalent(recovered, replay_twin(workload))
        recovered.close()

    def test_checkpoint_without_freshness_flag_compares_epochs(self):
        # Checkpoints written before statistics outlived row removal
        # carry the table epoch at collection instead of ``fresh``.
        from repro.wal.checkpoint import restore_catalog, snapshot_catalog

        db = repro.connect()
        run_workload(db)
        data = snapshot_catalog(db)
        (entry,) = [t for t in data["tables"] if t["name"] == "shop"]
        del entry["stats"]["fresh"]
        for stats_epoch, fresh in ((entry["epoch"], True), (entry["epoch"] - 1, False)):
            entry["stats"]["table_epoch"] = stats_epoch
            restored = repro.connect()
            restore_catalog(restored, data)
            assert (restored.catalog.stats_for("shop") is not None) is fresh

    def test_checkpoint_prunes_old_files(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        db.checkpoint()
        db.execute("INSERT INTO shop VALUES ('Spar', 5)")
        db.checkpoint()
        wal_dir = tmp_path / "wal"
        assert [seg for seg, _ in list_segments(wal_dir)] == [3]
        assert [seg for seg, _ in list_checkpoints(wal_dir)] == [3]
        db.close()

    def test_auto_checkpoint_interval(self, tmp_path):
        db = reopen(tmp_path, wal_checkpoint_interval=4)
        run_workload(db)
        assert db.wal_status()["checkpoints_taken"] >= 2
        db.close()
        recovered = reopen(tmp_path, wal_checkpoint_interval=4)
        assert_equivalent(recovered, replay_twin(WORKLOAD))
        recovered.close()

    def test_checkpoint_requires_durability(self):
        db = repro.connect()
        with pytest.raises(PermError):
            db.checkpoint()

    def test_programmatic_load_needs_a_checkpoint(self, tmp_path):
        # create_table/load_table bypass SQL execution and therefore the
        # WAL; a checkpoint is the documented way to persist a bulk load.
        from repro.catalog.schema import Column, TableSchema
        from repro.datatypes import SQLType

        schema = TableSchema(
            "bulk", [Column("a", SQLType.INTEGER), Column("b", SQLType.TEXT)]
        )
        db = reopen(tmp_path)
        db.create_table(schema)
        db.load_table("bulk", [(1, "x"), (2, "y")])
        db.close()
        lost = reopen(tmp_path)
        assert not lost.catalog.has_table("bulk")
        lost.close()

        db = reopen(tmp_path)
        db.create_table(schema)
        db.load_table("bulk", [(1, "x"), (2, "y")])
        db.checkpoint()
        db.close()
        kept = reopen(tmp_path)
        assert kept.catalog.table("bulk").row_count() == 2
        kept.close()


class TestSyncModesAndStatus:
    @pytest.mark.parametrize("sync", ["always", "batch", "never"])
    def test_clean_close_recovers_under_every_sync_mode(self, tmp_path, sync):
        db = reopen(tmp_path, wal_sync=sync)
        run_workload(db)
        db.close()
        recovered = reopen(tmp_path, wal_sync=sync)
        assert_equivalent(recovered, replay_twin(WORKLOAD))
        recovered.close()

    def test_always_syncs_every_record(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        status = db.wal_status()
        assert status["sync"] == "always"
        assert status["fsync_count"] >= status["appended_records"]
        db.close()

    def test_batch_syncs_less(self, tmp_path):
        db = reopen(tmp_path, wal_sync="batch")
        run_workload(db)
        assert db.wal_status()["fsync_count"] < len(WORKLOAD)
        db.close()

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(PermError):
            reopen(tmp_path, wal_sync="sometimes")

    def test_status_shape(self, tmp_path):
        db = reopen(tmp_path)
        run_workload(db)
        status = db.wal_status()
        assert status["appended_records"] == len(WORKLOAD)
        assert status["lsn"] == len(WORKLOAD)
        assert status["segment"] == 1
        assert status["last_recovery"]["statements_replayed"] == 0
        db.close()

    def test_non_durable_database_has_no_wal(self):
        db = repro.connect()
        assert not db.durable
        assert db.wal_status() is None
        assert db.last_recovery is None


class TestTPCHIntegration:
    def test_tpch_database_checkpoints_its_bulk_load(self, tmp_path):
        from repro.tpch.dbgen import tpch_database

        db = tpch_database(
            scale_factor=0.0001, seed=7, wal_dir=tmp_path / "wal"
        )
        counts = {
            t.name: t.row_count() for t in db.catalog.tables()
        }
        db.close()
        recovered = reopen(tmp_path)
        assert {
            t.name: t.row_count() for t in recovered.catalog.tables()
        } == counts
        recovered.close()
