"""Bag-semantics relation and heap table unit tests."""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.datatypes import SQLType
from repro.errors import ExecutionError
from repro.storage.relation import Relation
from repro.storage.table import Table


def test_from_rows_counts_duplicates():
    rel = Relation.from_rows(["a"], [(1,), (1,), (2,)])
    assert rel.multiplicity((1,)) == 2
    assert rel.multiplicity((2,)) == 1
    assert rel.multiplicity((3,)) == 0
    assert len(rel) == 3
    assert rel.distinct_count() == 2


def test_from_rows_checks_width():
    with pytest.raises(ValueError):
        Relation.from_rows(["a", "b"], [(1,)])


def test_from_counted_merges():
    rel = Relation.from_counted(["a"], [((1,), 2), ((1,), 3)])
    assert rel.multiplicity((1,)) == 5


def test_non_positive_multiplicities_dropped():
    from collections import Counter

    rel = Relation(["a"], Counter({(1,): 0, (2,): -3, (3,): 1}))
    assert rel.to_set() == {(3,)}


def test_rows_repeats_by_multiplicity():
    rel = Relation.from_counted(["a"], [((1,), 3)])
    assert list(rel.rows()) == [(1,), (1,), (1,)]


def test_bag_equality():
    left = Relation.from_rows(["a"], [(1,), (1,), (2,)])
    right = Relation.from_rows(["a"], [(2,), (1,), (1,)])
    assert left == right
    assert left != Relation.from_rows(["a"], [(1,), (2,)])


def test_bag_equality_requires_same_columns():
    left = Relation.from_rows(["a"], [(1,)])
    right = Relation.from_rows(["b"], [(1,)])
    assert left != right
    assert left.bag_equal(right)  # name-insensitive variant


def test_set_equal_ignores_multiplicities():
    left = Relation.from_rows(["a"], [(1,), (1,)])
    right = Relation.from_rows(["a"], [(1,)])
    assert left.set_equal(right)
    assert not left == right


def test_project_columns():
    rel = Relation.from_rows(["a", "b"], [(1, "x"), (1, "y"), (1, "x")])
    projected = rel.project_columns(["a"])
    assert projected.multiplicity((1,)) == 3
    assert projected.columns == ("a",)


def test_project_unknown_column():
    rel = Relation.from_rows(["a"], [(1,)])
    with pytest.raises(KeyError):
        rel.project_columns(["zzz"])


def test_rename():
    rel = Relation.from_rows(["a"], [(1,)])
    renamed = rel.rename(["x"])
    assert renamed.columns == ("x",)
    with pytest.raises(ValueError):
        rel.rename(["x", "y"])


def test_empty_relation_is_falsy():
    assert not Relation.empty(["a"])
    assert Relation.from_rows(["a"], [(1,)])


def test_pretty_renders_header_and_rows():
    rel = Relation.from_rows(["a", "b"], [(1, None)])
    text = rel.pretty()
    assert "a" in text and "b" in text and "NULL" in text


def test_pretty_truncates():
    rel = Relation.from_rows(["a"], [(i,) for i in range(30)])
    assert "more rows" in rel.pretty(limit=5)


# -- tables -----------------------------------------------------------------------------


def _schema() -> TableSchema:
    return TableSchema(
        "t", [Column("a", SQLType.INTEGER), Column("b", SQLType.TEXT)]
    )


def test_table_insert_and_scan():
    table = Table(_schema())
    table.insert((1, "x"))
    table.insert_many([(2, "y"), (3, "z")])
    assert table.row_count() == 3
    assert list(table.scan())[0] == (1, "x")


def test_table_insert_wrong_width():
    table = Table(_schema())
    with pytest.raises(ExecutionError):
        table.insert((1,))


def test_table_truncate():
    table = Table(_schema(), rows=[(1, "x")])
    table.truncate()
    assert len(table) == 0


def test_table_to_relation():
    table = Table(_schema(), rows=[(1, "x"), (1, "x")])
    rel = table.to_relation()
    assert rel.multiplicity((1, "x")) == 2


def test_schema_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        TableSchema("t", [Column("a", SQLType.INTEGER), Column("A", SQLType.TEXT)])


def test_schema_rejects_unknown_pk_column():
    with pytest.raises(ValueError):
        TableSchema("t", [Column("a", SQLType.INTEGER)], primary_key=("b",))


def test_schema_column_lookup_case_insensitive():
    schema = _schema()
    assert schema.column_index("A") == 0
    assert schema.has_column("B")
    assert schema.column("b").type is SQLType.TEXT


def test_covering_snapshot_scan_hands_out_the_cached_columns():
    table = Table(_schema(), rows=[(i, str(i)) for i in range(10)])
    cached = table.columnar()
    (chunk,) = table.scan_chunks(batch_size=100, stop=table.row_count())
    assert all(col is cached_col for col, cached_col in zip(chunk.physical_columns(), cached))
    (narrow,) = table.scan_chunks(batch_size=100, columns=[1], stop=10)
    assert narrow.physical_columns()[0] is cached[1]
    # The row list is a copy: DELETE and TRUNCATE rewrite the live one.
    assert chunk.rows() == table.raw_rows() and chunk.rows() is not table.raw_rows()


def test_append_after_snapshot_stays_invisible():
    table = Table(_schema(), rows=[(i, str(i)) for i in range(10)])
    visible = table.row_count()  # the snapshot token
    table.columnar()
    table.insert((10, "10"))
    (chunk,) = table.scan_chunks(batch_size=100, stop=visible)
    assert len(chunk) == 10
    assert chunk.rows() == [(i, str(i)) for i in range(10)]
    assert [len(col) for col in chunk.physical_columns()] == [10, 10]
    table.remove_rows([(0, "0")])
    assert chunk.rows()[0] == (0, "0")  # the scan kept its own rows
