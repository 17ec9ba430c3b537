"""Incremental, external and scope-limited provenance (IV-A.3 / IV-A.4)."""

from __future__ import annotations

import pytest

import repro
from repro.errors import RewriteError


@pytest.fixture
def db(example_db):
    return example_db


def test_select_into_stores_provenance(db):
    db.execute("SELECT PROVENANCE sum(price) AS total INTO stored FROM items")
    stored = db.execute("SELECT * FROM stored")
    assert stored.columns == ["total", "prov_items_id", "prov_items_price"]
    assert len(stored) == 3


def test_incremental_from_stored_table(db):
    db.execute("SELECT PROVENANCE sum(price) AS total INTO stored FROM items")
    result = db.execute(
        "SELECT PROVENANCE total * 2 FROM stored "
        "PROVENANCE (prov_items_id, prov_items_price)"
    )
    assert result.columns == ["?column?", "prov_items_id", "prov_items_price"]
    assert sorted(result.rows) == [(270, 1, 100), (270, 2, 10), (270, 3, 25)]


def test_provenance_annotation_with_unknown_attribute(db):
    db.execute("SELECT PROVENANCE sum(price) AS total INTO stored FROM items")
    with pytest.raises(RewriteError, match="not found"):
        db.execute("SELECT PROVENANCE total FROM stored PROVENANCE (nope)")


def test_external_provenance_on_plain_table(db):
    """External provenance: any relation can declare provenance columns."""
    db.execute("CREATE TABLE external (v integer, src text)")
    db.execute("INSERT INTO external VALUES (1, 'file_a'), (2, 'file_b')")
    result = db.execute("SELECT PROVENANCE v FROM external PROVENANCE (src)")
    assert result.columns == ["v", "src"]
    assert sorted(result.rows) == [(1, "file_a"), (2, "file_b")]


def test_view_with_provenance_body(db):
    db.execute(
        "CREATE VIEW v AS SELECT PROVENANCE name, numempl FROM shop"
    )
    plain = db.execute("SELECT * FROM v")
    assert plain.columns == [
        "name", "numempl", "prov_shop_name", "prov_shop_numempl",
    ]


def test_view_declared_provenance_attrs_used_by_default(db):
    db.execute(
        "CREATE VIEW v PROVENANCE (prov_shop_name, prov_shop_numempl) AS "
        "SELECT PROVENANCE name, numempl FROM shop"
    )
    result = db.execute("SELECT PROVENANCE name FROM v")
    assert result.columns == ["name", "prov_shop_name", "prov_shop_numempl"]


def test_baserelation_on_view(db):
    db.execute("CREATE VIEW totals AS SELECT sum(price) AS total FROM items")
    result = db.execute("SELECT PROVENANCE total FROM totals BASERELATION")
    assert result.columns == ["total", "prov_totals_total"]
    assert result.rows == [(135, 135)]


def test_baserelation_mixed_with_real_relation(db):
    result = db.execute(
        "SELECT PROVENANCE name, total FROM shop, "
        "(SELECT sum(price) AS total FROM items) BASERELATION AS agg"
    )
    assert result.columns == [
        "name", "total", "prov_shop_name", "prov_shop_numempl", "prov_agg_total",
    ]
    assert len(result) == 2


def test_provenance_through_two_stored_levels(db):
    """Provenance survives two SELECT INTO round trips."""
    db.execute("SELECT PROVENANCE sum(price) AS total INTO level1 FROM items")
    db.execute(
        "SELECT PROVENANCE total + 1 AS bumped INTO level2 FROM level1 "
        "PROVENANCE (prov_items_id, prov_items_price)"
    )
    result = db.execute(
        "SELECT PROVENANCE bumped FROM level2 "
        "PROVENANCE (prov_items_id, prov_items_price)"
    )
    assert sorted(result.rows) == [(136, 1, 100), (136, 2, 10), (136, 3, 25)]


def test_annotation_overrides_recomputation(db):
    """With the annotation, the rewriter must NOT descend into the view --
    stored provenance values are reused verbatim."""
    db.execute("SELECT PROVENANCE sum(price) AS total INTO stored FROM items")
    # Tamper with the stored provenance to observe which path is taken.
    db.execute("DROP TABLE items")
    result = db.execute(
        "SELECT PROVENANCE total FROM stored "
        "PROVENANCE (prov_items_id, prov_items_price)"
    )
    assert len(result) == 3  # items is gone; stored provenance still works


# -- mixed contribution semantics across nesting levels ----------------------


def test_witness_root_reuses_polynomial_subquery_annotation(db):
    """A polynomial-marked subquery is already rewritten when the witness
    root sees it: its annotation column is the from-item's P-list."""
    result = db.execute(
        "SELECT PROVENANCE name FROM "
        "(SELECT PROVENANCE (polynomial) name FROM shop WHERE numempl < 10) AS p"
    )
    assert result.columns == ["name", "prov_polynomial"]
    assert [(name, str(poly)) for name, poly in result.rows] == [
        ("Merdies", "shop(Merdies,3)")
    ]


def test_polynomial_root_rejects_witness_subquery(db):
    with pytest.raises(RewriteError, match="exposes witness-list provenance"):
        db.execute(
            "SELECT PROVENANCE (polynomial) name FROM "
            "(SELECT PROVENANCE name FROM shop) AS w"
        )


def test_polynomial_root_multiplies_polynomial_subquery_annotation(db):
    result = db.execute(
        "SELECT PROVENANCE (polynomial) name FROM "
        "(SELECT PROVENANCE (polynomial) name FROM shop) AS p, items WHERE id = 1"
    )
    assert sorted((name, str(poly)) for name, poly in result.rows) == [
        ("Joba", "items(1,100)*shop(Joba,14)"),
        ("Merdies", "items(1,100)*shop(Merdies,3)"),
    ]


@pytest.mark.parametrize(
    "marker, provenance_column, value",
    [
        ("PROVENANCE", "prov_shop_numempl", "14"),
        ("PROVENANCE (polynomial)", "prov_polynomial", "shop(Joba,14)"),
    ],
)
def test_unmarked_root_over_marked_subquery(db, marker, provenance_column, value):
    """The marked subquery is rewritten on its own; the unmarked root
    reads its provenance columns like any other attribute."""
    result = db.execute(
        f"SELECT name, {provenance_column} FROM "
        f"(SELECT {marker} name FROM shop) AS sub WHERE name = 'Joba'"
    )
    assert result.columns == ["name", provenance_column]
    assert [(name, str(prov)) for name, prov in result.rows] == [("Joba", value)]


def test_polynomial_root_with_unknown_provenance_attribute(db):
    with pytest.raises(RewriteError, match="'nope' not found"):
        db.execute("SELECT PROVENANCE (polynomial) name FROM shop PROVENANCE (nope)")
