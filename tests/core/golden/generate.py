"""The rewrite goldens: which statements are pinned, and how they render.

``python tests/core/golden/generate.py`` (with ``PYTHONPATH=src``)
rewrites every file next to this script; ``tests/core/test_rewrite_golden.py``
compares the same renderings with what is stored.  One JSON file per group
maps a case id to ``{"sql", "setop_strategy", "postgres", "sqlite"}``; a
rendering that raises stores ``"!<ErrorType>: <message>"`` instead of SQL, so
typed rejections are pinned as well.

The committed files were written by the rewriters of commit 5987cd5 (the
last one with separate witness and polynomial rewriter classes) on top of
this PR's set-operation deparse fix.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import repro
from repro.analyzer.analyzer import Analyzer
from repro.core.rewriter import traverse_query_tree
from repro.errors import PermError
from repro.sql.deparse import deparse_query, get_dialect
from repro.sql.parser import parse_sql
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query
from repro.tpch.queries import SUPPORTED_QUERIES
from repro.workloads import aggregation_chain, setop_queries, spj_queries

GOLDEN_DIR = Path(__file__).parent
DIALECTS = ("postgres", "sqlite")
WITNESS = "SELECT PROVENANCE"
POLYNOMIAL = "SELECT PROVENANCE (polynomial)"
#: A case is (sql, setop_strategy).
Case = tuple[str, str]


def _mark(sql: str, marker: str) -> str:
    return sql.replace("SELECT", marker, 1)


def _both(cases: dict[str, str]) -> dict[str, Case]:
    """Every unmarked statement as its witness and its polynomial twin."""
    return {
        f"{name}.{kind}": (_mark(sql, marker), "split")
        for name, sql in cases.items()
        for kind, marker in (("witness", WITNESS), ("poly", POLYNOMIAL))
    }


# -- the paper's shop/sales/items database -----------------------------------


def example_database() -> repro.PermDatabase:
    db = repro.connect()
    for statement in (
        "CREATE TABLE shop (name text, numempl integer)",
        "CREATE TABLE sales (sname text, itemid integer)",
        "CREATE TABLE items (id integer, price integer)",
        "CREATE VIEW totalitemprice AS "
        "SELECT PROVENANCE sum(price) AS total FROM items",
        "CREATE VIEW shoppoly AS SELECT PROVENANCE (polynomial) name FROM shop",
    ):
        db.execute(statement)
    return db


_QEX = (
    "SELECT name, sum(price) AS sum FROM shop, sales, items "
    "WHERE name = sname AND itemid = id GROUP BY name"
)


def paper_cases() -> dict[str, Case]:
    """The statements of ``tests/core/test_paper_example.py``."""
    return _both({"qex": _QEX}) | {
        "q1_over_provenance": (
            f"SELECT DISTINCT prov_items_id FROM ({_mark(_QEX, WITNESS)}) AS prov "
            "WHERE sum > 100",
            "split",
        ),
        "disjunctive_sublink": (
            "SELECT PROVENANCE name FROM shop "
            "WHERE numempl < 10 OR name IN (SELECT sname FROM sales)",
            "split",
        ),
        "baserelation": (
            "SELECT PROVENANCE total * 10 FROM "
            "(SELECT sum(price) AS total FROM items) BASERELATION AS sub",
            "split",
        ),
        "incremental_view": (
            "SELECT PROVENANCE total * 10 FROM totalitemprice "
            "PROVENANCE (prov_items_id, prov_items_price)",
            "split",
        ),
    }


def sublink_cases() -> dict[str, Case]:
    """Witness sublinks (section IV-E) in WHERE, target list and HAVING."""
    having = "SELECT PROVENANCE sname, sum(itemid) FROM sales GROUP BY sname HAVING "
    statements = {
        "where_in": "SELECT PROVENANCE name FROM shop WHERE name IN (SELECT sname FROM sales)",
        "where_not_in": "SELECT PROVENANCE name FROM shop WHERE name NOT IN (SELECT sname FROM sales)",
        "where_exists": "SELECT PROVENANCE name FROM shop WHERE EXISTS (SELECT 1 FROM items)",
        "where_scalar": "SELECT PROVENANCE id FROM items WHERE price < (SELECT max(price) FROM items)",
        "where_any": "SELECT PROVENANCE id FROM items WHERE id <= ANY (SELECT itemid FROM sales)",
        "where_two": "SELECT PROVENANCE id FROM items WHERE id IN (SELECT itemid FROM sales) "
        "AND price < (SELECT max(price) FROM items)",
        "target_scalar": "SELECT PROVENANCE name, (SELECT max(price) FROM items) FROM shop",
        "target_fromless": "SELECT PROVENANCE (SELECT max(price) FROM items)",
        "where_fromless": "SELECT PROVENANCE 1 AS one WHERE 1 IN (SELECT id FROM items)",
        "having_scalar": having + "sum(itemid) > (SELECT min(id) FROM items)",
        "having_in": having + "sum(itemid) IN (SELECT id FROM items)",
        "having_not_in": having + "sum(itemid) <> ALL (SELECT id FROM items)",
        "having_in_or_independent": having
        + "sum(itemid) > 4 OR sum(itemid) IN (SELECT id FROM items)",
        "having_all_or_independent": having
        + "sum(itemid) < 2 OR sum(itemid) <> ALL (SELECT id FROM items)",
        "aggregate_target_scalar": "SELECT PROVENANCE sname, count(*) + "
        "(SELECT max(id) FROM items) FROM sales GROUP BY sname",
        "nested_in_from": "SELECT PROVENANCE v FROM (SELECT name AS v FROM shop "
        "WHERE name IN (SELECT sname FROM sales)) AS sub",
        "correlated_rejected": "SELECT PROVENANCE name FROM shop WHERE EXISTS "
        "(SELECT 1 FROM sales WHERE sname = name)",
        "polynomial_rejected": _mark(
            "SELECT name FROM shop WHERE name IN (SELECT sname FROM sales)", POLYNOMIAL
        ),
    }
    return {name: (sql, "split") for name, sql in statements.items()}


def shape_cases() -> dict[str, Case]:
    """Tails, from-item annotations, marked subqueries, mixed semantics."""
    setop = "SELECT name FROM shop {op} SELECT sname FROM sales"
    both = _both(
        {
            "distinct_root": "SELECT DISTINCT sname FROM sales",
            "distinct_order_limit": "SELECT DISTINCT sname FROM sales ORDER BY sname LIMIT 1",
            "distinct_nested": "SELECT s.sname FROM (SELECT DISTINCT sname FROM sales) AS s, shop "
            "WHERE s.sname = name",
            "order_by_junk": "SELECT name FROM shop ORDER BY numempl DESC",
            "order_by_junk_limit": "SELECT name FROM shop ORDER BY numempl LIMIT 1",
            "limit_offset_root": "SELECT sname, itemid FROM sales ORDER BY itemid, sname LIMIT 2 OFFSET 1",
            "limit_offset_nested": "SELECT x.sname FROM (SELECT sname FROM sales ORDER BY itemid "
            "LIMIT 2 OFFSET 1) AS x",
            "aggregate_order_limit": "SELECT sname, count(*) AS c FROM sales GROUP BY sname "
            "ORDER BY c DESC LIMIT 1",
            "aggregate_ungrouped": "SELECT sum(price) AS total FROM items",
            "aggregate_distinct": "SELECT DISTINCT count(*) AS c FROM sales GROUP BY sname",
            "self_join": "SELECT a.name FROM shop AS a, shop AS b WHERE a.numempl < b.numempl",
            "outer_join": "SELECT name, itemid FROM shop LEFT JOIN sales ON name = sname",
            "annotation_name_collision": "SELECT name AS prov_polynomial FROM shop",
            "baserelation_subquery": "SELECT total FROM (SELECT sum(price) AS total FROM items) "
            "BASERELATION AS sub",
            "baserelation_table": "SELECT name FROM shop BASERELATION AS b",
            "reuse_polynomial_view": "SELECT name FROM shoppoly PROVENANCE (prov_polynomial)",
            "reuse_witness_view": "SELECT total FROM totalitemprice "
            "PROVENANCE (prov_items_id, prov_items_price)",
            "reuse_unknown_attribute": "SELECT name FROM shop PROVENANCE (nope)",
            "external_provenance": "SELECT name FROM shop PROVENANCE (numempl)",
            "over_witness_view": "SELECT total FROM totalitemprice",
            "over_polynomial_view": "SELECT name FROM shoppoly",
            "over_witness_subquery": "SELECT w.name FROM (SELECT PROVENANCE name FROM shop) AS w, sales "
            "WHERE w.name = sname",
            "over_polynomial_subquery": "SELECT p.name FROM "
            "(SELECT PROVENANCE (polynomial) name FROM shop) AS p, sales WHERE p.name = sname",
            "into": "SELECT name INTO stored FROM shop",
            "setop_union": setop.format(op="UNION"),
            "setop_union_all": setop.format(op="UNION ALL"),
            "setop_intersect": setop.format(op="INTERSECT"),
            "setop_intersect_all": setop.format(op="INTERSECT ALL"),
            "setop_except": setop.format(op="EXCEPT"),
            "setop_except_all": setop.format(op="EXCEPT ALL"),
            "setop_order_limit": setop.format(op="UNION") + " ORDER BY name LIMIT 2 OFFSET 1",
            "setop_nested_right": "SELECT name FROM shop UNION "
            "(SELECT sname FROM sales INTERSECT SELECT name FROM shop)",
            "setop_nested_except": "SELECT name FROM shop EXCEPT "
            "(SELECT sname FROM sales EXCEPT SELECT name FROM shop)",
            "setop_three_way": setop.format(op="UNION") + " UNION SELECT name FROM shop",
            "setop_leaf_with_tail": "SELECT name FROM shop UNION ALL "
            "(SELECT sname FROM sales ORDER BY itemid LIMIT 2)",
            "setop_over_aggregate": "SELECT sname, count(*) AS c FROM sales GROUP BY sname "
            "UNION SELECT name, numempl FROM shop",
        }
    )
    unmarked_and_errors = {
        "unmarked_over_witness_subquery": "SELECT name, prov_shop_numempl FROM "
        "(SELECT PROVENANCE name FROM shop) AS w",
        "unmarked_over_polynomial_subquery": "SELECT name, prov_polynomial FROM "
        "(SELECT PROVENANCE (polynomial) name FROM shop) AS p",
        "marked_sublink_subquery": "SELECT name FROM shop WHERE EXISTS "
        "(SELECT PROVENANCE sname FROM sales)",
        "marked_setop_operand_same_width": "SELECT name, name, numempl FROM shop UNION ALL "
        "SELECT PROVENANCE name FROM shop",
        "marked_setop_operand_rejected": "SELECT sname FROM sales EXCEPT "
        "SELECT PROVENANCE name FROM shop",
        "unknown_semantics": "SELECT PROVENANCE (nope) name FROM shop",
    }
    flat = {
        f"flat.{name}": (_mark(sql, WITNESS), "flat")
        for name, sql in {
            "union": setop.format(op="UNION") + " UNION SELECT name FROM shop",
            "intersect": setop.format(op="INTERSECT") + " INTERSECT SELECT name FROM shop",
            "mixed_falls_back": "SELECT name FROM shop UNION "
            "(SELECT sname FROM sales INTERSECT SELECT name FROM shop)",
            "except_falls_back": setop.format(op="EXCEPT"),
            "nested_in_from": "SELECT * FROM (" + setop.format(op="UNION") + ") AS u",
        }.items()
    }
    return both | {n: (s, "split") for n, s in unmarked_and_errors.items()} | flat


# -- TPC-H catalog (SF 0.001, dbgen/qgen seed 42) -----------------------------

_PARTS = 200  # |part| at SF 0.001


def tpch_cases() -> dict[str, Case]:
    """The 15 supported queries as witness and as polynomial twins (three
    of the latter are typed rejections: sublinks)."""
    return _both({f"q{n}": generate_query(n, seed=42) for n in SUPPORTED_QUERIES})


def workload_cases() -> dict[str, Case]:
    """``repro.workloads`` trees: set operations by operator, SPJ trees and
    aggregation chains; set-operation trees also under ``flat``."""
    trees: dict[str, str] = {}
    for num_sub in (2, 4, 6, 8):
        for label, operator in (
            ("union", "UNION"),
            ("intersect", "INTERSECT"),
            ("except", "EXCEPT"),
            ("mixed", None),
        ):
            (tree,) = setop_queries(num_sub, 1, _PARTS, seed=42 + num_sub, operator=operator)
            # Marked the way benchmarks/e2e marks them: a left-nested tree
            # would otherwise keep the marker on its inner node.
            trees[f"setop_{label}{num_sub}"] = f"SELECT * FROM ({tree}) AS s"
        (trees[f"spj{num_sub}"],) = spj_queries(num_sub, 1, _PARTS, seed=42 + num_sub)
    for depth in range(1, 7):
        trees[f"agg{depth}"] = aggregation_chain(depth, _PARTS)
    flat = {
        f"{name}.flat": (_mark(sql, WITNESS), "flat")
        for name, sql in trees.items()
        if name.startswith("setop_") and "except" not in name  # falls back to split
    }
    return _both(trees) | flat


GROUPS = {
    "paper": (example_database, paper_cases),
    "sublinks": (example_database, sublink_cases),
    "shapes": (example_database, shape_cases),
    "tpch": (lambda: tpch_database(scale_factor=0.001, seed=42), tpch_cases),
    "workloads": (lambda: tpch_database(scale_factor=0.001, seed=42), workload_cases),
}


def render(db: repro.PermDatabase, sql: str, setop_strategy: str, dialect: str) -> str:
    """``db.rewritten_sql(sql, dialect, optimized=False)`` (spelled out for
    ``flat``, which the database does not expose); errors render as text."""
    try:
        if setop_strategy == "split":
            return db.rewritten_sql(sql, dialect=dialect, optimized=False)
        query = Analyzer(db.catalog).analyze(parse_sql(sql)[0])
        rewritten = traverse_query_tree(query, setop_strategy=setop_strategy)
        return deparse_query(rewritten, dialect=get_dialect(dialect))
    except PermError as exc:
        return f"!{type(exc).__name__}: {exc}"


def rendered_group(group: str) -> Iterator[tuple[str, dict[str, str]]]:
    make_db, cases = GROUPS[group]
    db = make_db()
    for name, (sql, setop_strategy) in cases().items():
        entry = {"sql": sql, "setop_strategy": setop_strategy}
        for dialect in DIALECTS:
            entry[dialect] = render(db, sql, setop_strategy, dialect)
        yield name, entry


if __name__ == "__main__":
    for group in GROUPS:
        path = GOLDEN_DIR / f"{group}.json"
        entries = dict(rendered_group(group))
        path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(entries)} cases, {path.stat().st_size} bytes")
