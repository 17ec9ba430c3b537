"""PermDatabase facade tests: DDL, DML, SELECT INTO, views, errors."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    AnalyzeError,
    CatalogError,
    ExecutionError,
    PermError,
    TypeMismatchError,
)


@pytest.fixture
def db():
    return repro.connect()


def test_create_insert_select_roundtrip(db):
    db.execute("CREATE TABLE t (a integer, b text)")
    result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    assert result.command == "INSERT 2"
    assert sorted(db.execute("SELECT * FROM t").rows) == [(1, "x"), (2, "y")]


def test_multi_statement_execute_returns_last(db):
    result = db.execute(
        "CREATE TABLE t (a integer); INSERT INTO t VALUES (1); SELECT a FROM t"
    )
    assert result.rows == [(1,)]


def test_insert_with_column_list_fills_nulls(db):
    db.execute("CREATE TABLE t (a integer, b text, c float)")
    db.execute("INSERT INTO t (b) VALUES ('only_b')")
    assert db.execute("SELECT * FROM t").rows == [(None, "only_b", None)]


def test_insert_width_mismatch(db):
    db.execute("CREATE TABLE t (a integer, b text)")
    with pytest.raises(ExecutionError):
        db.execute("INSERT INTO t VALUES (1)")


def test_insert_from_select(db):
    db.execute("CREATE TABLE src (a integer)")
    db.execute("INSERT INTO src VALUES (1), (2)")
    db.execute("CREATE TABLE dst (a integer)")
    db.execute("INSERT INTO dst SELECT a * 10 FROM src")
    assert sorted(db.execute("SELECT a FROM dst").rows) == [(10,), (20,)]


def test_insert_expression_values(db):
    db.execute("CREATE TABLE t (a integer, d date)")
    db.execute("INSERT INTO t VALUES (1 + 1, DATE '1995-01-01' + INTERVAL '1' MONTH)")
    import datetime

    assert db.execute("SELECT * FROM t").rows == [(2, datetime.date(1995, 2, 1))]


def _date_tables(db):
    db.execute("CREATE TABLE t (n integer, d date)")
    db.execute("CREATE TABLE src (n integer, txt text)")


def test_insert_values_coerces_date_text(db):
    import datetime

    _date_tables(db)
    db.execute("INSERT INTO t VALUES (1, '1997-01-01'), (2, NULL)")
    assert db.catalog.table("t").raw_rows() == [
        (1, datetime.date(1997, 1, 1)),
        (2, None),
    ]
    # A stored str would make this comparison raise a raw TypeError.
    assert db.execute("SELECT n FROM t WHERE d < DATE '1998-01-01'").rows == [(1,)]


def test_insert_select_coerces_date_text(db):
    import datetime

    _date_tables(db)
    db.execute("INSERT INTO src VALUES (3, '1996-05-05')")
    db.execute("INSERT INTO t (d, n) SELECT txt, n FROM src")
    assert db.catalog.table("t").raw_rows() == [(3, datetime.date(1996, 5, 5))]
    assert db.execute("SELECT n FROM t WHERE d > DATE '1996-01-01'").rows == [(3,)]


def test_insert_values_rejects_non_date_text(db):
    _date_tables(db)
    with pytest.raises(TypeMismatchError, match="column 'd' is DATE"):
        db.execute("INSERT INTO t VALUES (1, '1997-01-01'), (2, '1997-13-01')")
    assert db.catalog.table("t").raw_rows() == []  # no partial insert


def test_insert_select_rejects_non_date_text(db):
    _date_tables(db)
    db.execute("INSERT INTO src VALUES (1, '1997-01-01'), (2, 'soon')")
    with pytest.raises(TypeMismatchError, match="got 'soon'"):
        db.execute("INSERT INTO t SELECT n, txt FROM src")
    assert db.catalog.table("t").raw_rows() == []


def test_select_into_creates_table(db):
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    result = db.execute("SELECT a * 2 AS doubled INTO copy FROM t")
    assert result.command.startswith("SELECT INTO")
    assert sorted(db.execute("SELECT doubled FROM copy").rows) == [(2,), (4,)]


def test_select_into_existing_table_rejected(db):
    db.execute("CREATE TABLE t (a integer)")
    with pytest.raises(CatalogError):
        db.execute("SELECT 1 AS x INTO t")


def test_create_view_and_query(db):
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (5)")
    db.execute("CREATE VIEW big AS SELECT a FROM t WHERE a > 2")
    assert db.execute("SELECT * FROM big").rows == [(5,)]


def test_view_reflects_table_changes(db):
    db.execute("CREATE TABLE t (a integer)")
    db.execute("CREATE VIEW v AS SELECT a FROM t")
    db.execute("INSERT INTO t VALUES (7)")
    assert db.execute("SELECT * FROM v").rows == [(7,)]


def test_view_body_validated_at_creation(db):
    with pytest.raises(AnalyzeError):
        db.execute("CREATE VIEW v AS SELECT zzz FROM nowhere")


def test_drop_table_and_view(db):
    db.execute("CREATE TABLE t (a integer)")
    db.execute("CREATE VIEW v AS SELECT a FROM t")
    db.execute("DROP VIEW v")
    db.execute("DROP TABLE t")
    with pytest.raises(AnalyzeError):
        db.execute("SELECT * FROM t")


def test_drop_if_exists(db):
    db.execute("DROP TABLE IF EXISTS ghost")
    db.execute("DROP VIEW IF EXISTS ghost")


def test_query_result_helpers(db):
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    result = db.execute("SELECT a FROM t ORDER BY a")
    assert len(result) == 2
    assert list(result) == [(1,), (2,)]
    assert result.relation().multiplicity((1,)) == 1
    assert "a" in result.pretty()


def test_scalar_helper_errors(db):
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    with pytest.raises(ExecutionError):
        db.execute("SELECT a FROM t").scalar()


def test_provenance_helper_rejects_ddl(db):
    with pytest.raises(PermError):
        db.provenance("CREATE TABLE t (a integer)")


def test_prepare_exposes_timings(db):
    db.execute("CREATE TABLE t (a integer)")
    prepared = db.prepare("SELECT a FROM t")
    assert prepared.compile_seconds > 0
    assert prepared.rewrite_seconds >= 0
    assert prepared.run().rows == []


def test_module_disabled_skips_rewrite(db):
    plain = repro.connect(provenance_module_enabled=False)
    plain.execute("CREATE TABLE t (a integer)")
    prepared = plain.prepare("SELECT a FROM t")
    assert prepared.rewrite_seconds == 0.0


def test_load_table_and_relation_helpers(db):
    from repro.catalog.schema import TableSchema
    from repro.datatypes import SQLType

    db.create_table(TableSchema.of("bulk", [("x", SQLType.INTEGER)]))
    assert db.load_table("bulk", [(1,), (2,), (3,)]) == 3
    assert len(db.table_relation("bulk")) == 3


def test_empty_statement_sequence(db):
    result = db.execute(";;;")
    assert result.command == "EMPTY"
