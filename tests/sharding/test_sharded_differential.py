"""Differential suite: sharded(N) ≡ unsharded, for every N and child.

The contract the sharded backend stands on: partitioning is
semantically invisible.  For any supported query — plain, witness
provenance, polynomial provenance — the scatter-gather result equals
the unsharded engine's as a multiset, whether the query scattered or
fell back.  Checked over the paper's shop/sales/items example and the
TPC-H SF-tiny workload, across shard counts, both child backend types,
with DML interleaved through the shard partitioning, and as a
Hypothesis property over shard counts and shard-key choices.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from tests.backends.support import assert_same_result

_EXAMPLE_SETUP = (
    "CREATE TABLE shop (name text, numempl integer, PRIMARY KEY (name))",
    "CREATE TABLE sales (sname text, itemid integer)",
    "CREATE TABLE items (id integer, price integer, PRIMARY KEY (id))",
    "INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)",
    "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
    "('Merdies', 2), ('Joba', 3), ('Joba', 3)",
    "INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)",
)

# sales has no primary key → replicated; shop/items partition by key.
EXAMPLE_QUERIES = (
    "SELECT name, numempl FROM shop",
    "SELECT name FROM shop WHERE name = 'Joba'",
    "SELECT sname, price FROM sales, items WHERE itemid = id",
    "SELECT name, numempl FROM shop WHERE numempl > 5 ORDER BY name",
    "SELECT id, price FROM items ORDER BY price DESC LIMIT 2",
    "SELECT id, price FROM items ORDER BY id OFFSET 1",
    "SELECT id, price FROM items ORDER BY id LIMIT 1 OFFSET 1",
    "SELECT DISTINCT numempl FROM shop ORDER BY numempl OFFSET 1",
    "SELECT count(*), sum(price) FROM items",
    "SELECT id, count(*) FROM items GROUP BY id",
    "SELECT DISTINCT sname FROM sales",
    "SELECT name FROM shop UNION ALL SELECT sname FROM sales",
    "SELECT sname, sum(price) FROM sales, items WHERE itemid = id "
    "GROUP BY sname",
)


def _example(backend_kwargs: dict) -> repro.PermDatabase:
    db = repro.connect(**backend_kwargs)
    for statement in _EXAMPLE_SETUP:
        db.execute(statement)
    return db


@pytest.fixture(scope="module")
def reference() -> repro.PermDatabase:
    return _example({})


@pytest.mark.parametrize("shards", (1, 2, 4))
@pytest.mark.parametrize("child", ("python", "sqlite"))
def test_example_queries_match(reference, shards, child):
    sharded = _example({"shards": shards, "backend": child})
    for sql in EXAMPLE_QUERIES:
        assert_same_result(
            reference.execute(sql), sharded.execute(sql), context=f"for {sql!r}"
        )


@pytest.mark.parametrize("shards", (1, 2, 4))
@pytest.mark.parametrize("child", ("python", "sqlite"))
def test_example_witness_provenance_matches(reference, shards, child):
    sharded = _example({"shards": shards, "backend": child})
    for sql in EXAMPLE_QUERIES:
        assert_same_result(
            reference.provenance(sql),
            sharded.provenance(sql),
            context=f"for witness {sql!r}",
        )


@pytest.mark.parametrize("shards", (2, 4))
@pytest.mark.parametrize("child", ("python", "sqlite"))
def test_example_polynomial_provenance_matches(reference, shards, child):
    sharded = _example({"shards": shards, "backend": child})
    for sql in EXAMPLE_QUERIES:
        assert_same_result(
            reference.provenance(sql, semantics="polynomial"),
            sharded.provenance(sql, semantics="polynomial"),
            context=f"for polynomial {sql!r}",
        )


@pytest.mark.parametrize("child", ("python", "sqlite"))
def test_interleaved_dml_routes_through_partitioning(child):
    plain = _example({})
    sharded = _example({"shards": 3, "backend": child})
    script = (
        "INSERT INTO items VALUES (4, 75), (5, 80)",
        "SELECT count(*), sum(price) FROM items",
        "DELETE FROM items WHERE price < 50",
        "SELECT id FROM items",
        "UPDATE shop SET numempl = numempl + 1 WHERE name = 'Joba'",
        "SELECT name, numempl FROM shop",
        "INSERT INTO sales VALUES ('Joba', 4)",
        "SELECT sname, price FROM sales, items WHERE itemid = id",
    )
    for sql in script:
        assert_same_result(
            plain.execute(sql), sharded.execute(sql), context=f"for {sql!r}"
        )
    # the DML must have flowed through the partitioner, not around it
    part = sharded.backend.partitioner
    assert part.appended_rows > 0 or part.delta_syncs > 0


# ---------------------------------------------------------------------------
# TPC-H SF-tiny


TPCH_QUERIES = (
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = 7",
    "SELECT count(*), sum(l_quantity) FROM lineitem",
    "SELECT l_orderkey, count(*) FROM lineitem GROUP BY l_orderkey",
    "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_orderkey = 7",
    "SELECT c_custkey, c_name FROM customer WHERE c_custkey IN (1, 5, 9)",
    "SELECT o_orderkey, o_orderdate FROM orders "
    "ORDER BY o_totalprice DESC, o_orderkey LIMIT 5",
)

TPCH_PROVENANCE_QUERIES = (
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = 7",
    "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_orderkey = 7",
)


@pytest.fixture(scope="module")
def tpch_pair():
    from repro.tpch.dbgen import tpch_database

    reference = tpch_database(scale_factor=0.001, seed=42)
    sharded = tpch_database(scale_factor=0.001, seed=42)
    sharded.set_backend(
        lambda catalog: __import__(
            "repro.sharding.backend", fromlist=["ShardedBackend"]
        ).ShardedBackend(catalog, shards=4)
    )
    return reference, sharded


def test_tpch_queries_match(tpch_pair):
    reference, sharded = tpch_pair
    for sql in TPCH_QUERIES:
        assert_same_result(
            reference.execute(sql), sharded.execute(sql), context=f"for {sql!r}"
        )
    assert sharded.backend.scattered >= 1
    assert sharded.backend.pruned_queries >= 1


def test_tpch_provenance_matches(tpch_pair):
    reference, sharded = tpch_pair
    for sql in TPCH_PROVENANCE_QUERIES:
        assert_same_result(
            reference.provenance(sql),
            sharded.provenance(sql),
            context=f"for witness {sql!r}",
        )
        assert_same_result(
            reference.provenance(sql, semantics="polynomial"),
            sharded.provenance(sql, semantics="polynomial"),
            context=f"for polynomial {sql!r}",
        )


# ---------------------------------------------------------------------------
# Hypothesis property: any shard count, any shard-key choice


_value = st.integers(min_value=0, max_value=4)
_rows = st.lists(
    st.tuples(_value, st.one_of(st.none(), _value), _value),
    min_size=0,
    max_size=8,
)

PROPERTY_QUERIES = (
    "SELECT k, v FROM r",
    "SELECT k, v, w FROM r WHERE k = 2",
    "SELECT k, count(*), sum(w) FROM r GROUP BY k",
    "SELECT count(*) FROM r",
    # ``v`` is nullable: a shard whose rows hold only NULLs must add
    # nothing to the gathered sum, and an all-NULL group stays NULL.
    "SELECT sum(v), min(v), max(v) FROM r",
    "SELECT k, sum(v) FROM r GROUP BY k",
    "SELECT DISTINCT v FROM r",
    # A total order: under provenance the witness columns tell rows tied
    # on ``(w, k)`` apart, and plain and sharded execution may legally
    # keep different ones of them.
    "SELECT k, w FROM r ORDER BY w, k, v LIMIT 3",
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=_rows,
    shards=st.integers(min_value=1, max_value=5),
    key=st.sampled_from(["k", "v", "w", None]),
)
def test_sharding_is_invisible(rows, shards, key):
    plain = repro.connect()
    sharded = repro.connect(shards=shards, shard_keys={"r": key})
    for db in (plain, sharded):
        db.execute("CREATE TABLE r (k integer, v integer, w integer)")
        db.load_table("r", rows)
    for sql in PROPERTY_QUERIES:
        assert_same_result(
            plain.execute(sql),
            sharded.execute(sql),
            context=f"for {sql!r} shards={shards} key={key}",
        )
        assert_same_result(
            plain.provenance(sql),
            sharded.provenance(sql),
            context=f"for witness {sql!r} shards={shards} key={key}",
        )
