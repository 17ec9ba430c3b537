"""Provenance attribute naming scheme (IV-A.1) unit tests."""

from __future__ import annotations

from repro.core.naming import ProvenanceNamer
from repro.datatypes import SQLType


def test_attribute_name_format():
    assert ProvenanceNamer.attribute_name("shop", 0, "name") == "prov_shop_name"
    assert ProvenanceNamer.attribute_name("Shop", 0, "NAME") == "prov_shop_name"


def test_repeated_reference_gets_number():
    assert ProvenanceNamer.attribute_name("shop", 1, "name") == "prov_shop_1_name"
    assert ProvenanceNamer.attribute_name("shop", 2, "name") == "prov_shop_2_name"


def test_namer_counts_references_per_relation():
    namer = ProvenanceNamer()
    assert namer.next_reference("shop") == 0
    assert namer.next_reference("shop") == 1
    assert namer.next_reference("items") == 0
    assert namer.next_reference("SHOP") == 2  # case-insensitive


def test_attributes_for_relation():
    namer = ProvenanceNamer()
    attrs = namer.attributes_for_relation(
        "items", ["id", "price"], [SQLType.INTEGER, SQLType.INTEGER]
    )
    assert [a.name for a in attrs] == ["prov_items_id", "prov_items_price"]
    assert all(a.ref_id == 0 for a in attrs)
    second = namer.attributes_for_relation("items", ["id"], [SQLType.INTEGER])
    assert second[0].name == "prov_items_1_id"
    assert second[0].ref_id == 1
