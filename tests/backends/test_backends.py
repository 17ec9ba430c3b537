"""Execution-backend unit tests: registry, sync, dialect rejections."""

from __future__ import annotations

import datetime

import pytest

import repro
from repro.backends import (
    ExecutionBackend,
    backend_names,
    create_backend,
    register_backend,
)
from repro.backends.base import collect_base_relations
from repro.backends.sqlite_backend import _convert_rows, from_sqlite_value
from repro.datatypes import SQLType
from repro.errors import BackendUnsupportedError, PermError
from repro.semiring import Polynomial, polynomial

from tests.backends.support import assert_same_result

EXAMPLE_SETUP = [
    "CREATE TABLE shop (name text, numempl integer)",
    "CREATE TABLE sales (sname text, itemid integer)",
    "CREATE TABLE items (id integer, price integer)",
    "INSERT INTO shop VALUES ('Merdies', 3), ('Joba', 14)",
    "INSERT INTO sales VALUES ('Merdies', 1), ('Merdies', 2), "
    "('Merdies', 2), ('Joba', 3), ('Joba', 3)",
    "INSERT INTO items VALUES (1, 100), (2, 10), (3, 25)",
]


def example_db(backend: str) -> repro.PermDatabase:
    db = repro.connect(backend=backend)
    for statement in EXAMPLE_SETUP:
        db.execute(statement)
    return db


# -- registry / selection ----------------------------------------------------


def test_registered_backends():
    assert "python" in backend_names()
    assert "sqlite" in backend_names()


def test_backend_selection_and_switch():
    db = repro.connect(backend="sqlite")
    assert db.backend_name == "sqlite"
    db.set_backend("python")
    assert db.backend_name == "python"
    with pytest.raises(PermError, match="unknown backend"):
        db.set_backend("oracle")


def test_unknown_backend_at_construction():
    with pytest.raises(PermError, match="unknown backend"):
        repro.connect(backend="db2")


def test_custom_backend_registration():
    class EchoBackend(ExecutionBackend):
        name = "echo-test"

        def run_select(self, query):
            from repro.database import QueryResult

            return QueryResult(columns=query.output_columns(), rows=[])

    register_backend(EchoBackend)
    assert "echo-test" in backend_names()
    db = repro.connect(backend="echo-test")
    db.execute("CREATE TABLE t (a integer)")
    assert db.execute("SELECT a FROM t").columns == ["a"]
    # Factories are also accepted directly.
    backend = create_backend(EchoBackend, db.catalog)
    assert backend.name == "echo-test"


# -- paper example parity ----------------------------------------------------

PARITY_QUERIES = [
    "SELECT name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
    "SELECT PROVENANCE name, sum(price) AS total FROM shop, sales, items "
    "WHERE name = sname AND itemid = id GROUP BY name",
    "SELECT PROVENANCE sname FROM sales UNION SELECT name FROM shop",
    "SELECT PROVENANCE sname FROM sales INTERSECT SELECT name FROM shop",
    "SELECT PROVENANCE name FROM shop WHERE name IN (SELECT sname FROM sales)",
    "SELECT DISTINCT sname FROM sales ORDER BY sname DESC",
    "SELECT s.sname, i.price FROM sales AS s LEFT JOIN items AS i "
    "ON s.itemid = i.id ORDER BY s.sname, i.price NULLS FIRST",
    "SELECT PROVENANCE (polynomial) name FROM shop, sales WHERE name = sname",
    "SELECT PROVENANCE (polynomial) sname, count(*) AS c FROM sales GROUP BY sname",
    "SELECT PROVENANCE (polynomial) name FROM shop ORDER BY numempl DESC",
    "SELECT CASE WHEN numempl > 10 THEN 'big' ELSE 'small' END AS size_tag "
    "FROM shop ORDER BY size_tag",
    "SELECT upper(name) AS u, numempl / 4 AS q, numempl % 4 AS r FROM shop",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_example_queries_identical_across_backends(sql):
    assert_same_result(
        example_db("python").execute(sql),
        example_db("sqlite").execute(sql),
        context=f"for {sql!r}",
    )


def test_polynomial_annotations_cross_backend():
    sql = "SELECT PROVENANCE (polynomial) name FROM shop, sales WHERE name = sname"
    py = example_db("python").execute(sql)
    sq = example_db("sqlite").execute(sql)
    assert py.annotation_column == sq.annotation_column == "prov_polynomial"
    assert sorted(py.annotations()) == sorted(sq.annotations())
    assert all(isinstance(p, Polynomial) for p in sq.annotations())
    assert sorted(sq.evaluate_provenance("counting")) == sorted(
        py.evaluate_provenance("counting")
    )


def test_sqlite_poly_sum_normalises_each_monomial_once(monkeypatch):
    # One group of n single-term polynomials: summing must normalise O(n)
    # monomials, not re-normalise a growing partial sum on every row.
    n = 2000
    con = repro.connect(backend="sqlite").backend._con
    con.execute("CREATE TABLE wires (w TEXT)")
    terms = [Polynomial.variable(f"r{i}") for i in range(n)]
    con.executemany("INSERT INTO wires VALUES (?)", [(p.to_wire(),) for p in terms])
    calls = 0
    normalize = polynomial._normalize_monomial

    def counting(monomial):
        nonlocal calls
        calls += 1
        return normalize(monomial)

    monkeypatch.setattr(polynomial, "_normalize_monomial", counting)
    (wire,) = con.execute("SELECT perm_poly_sum(w) FROM wires").fetchone()
    assert calls <= 2 * n + 10
    monkeypatch.undo()
    assert Polynomial.from_wire(wire) == Polynomial.sum_all(terms)


# -- result conversion -------------------------------------------------------


def test_sqlite_results_convert_per_column():
    types = [
        SQLType.DATE, SQLType.BOOLEAN, SQLType.FLOAT, SQLType.POLYNOMIAL,
        SQLType.INTEGER, SQLType.TEXT,
    ]
    poly = Polynomial.variable("x") * Polynomial.variable("y")
    raw = [
        ("1995-03-15", 1, 3, poly.to_wire(), 7, "a"),
        (None, 0, 2.5, None, None, None),
        ("1995-03-15", None, None, Polynomial.zero().to_wire(), 8, "b"),
    ]
    rows = _convert_rows(raw, types)
    assert rows == [
        (datetime.date(1995, 3, 15), True, 3.0, poly, 7, "a"),
        (None, False, 2.5, None, None, None),
        (datetime.date(1995, 3, 15), None, None, Polynomial.zero(), 8, "b"),
    ]
    assert type(rows[0][1]) is bool and type(rows[1][1]) is bool
    assert type(rows[0][2]) is float
    # The scalar form reads the same table.
    for raw_row, row in zip(raw, rows):
        assert tuple(from_sqlite_value(v, t) for v, t in zip(raw_row, types)) == row


def test_sqlite_results_needing_no_conversion_are_not_copied():
    raw = [(1, "a"), (None, "b")]
    assert _convert_rows(raw, [SQLType.INTEGER, SQLType.TEXT]) is raw
    assert _convert_rows([], [SQLType.DATE]) == []


# -- incremental sync --------------------------------------------------------


def test_incremental_sync_ships_only_new_rows():
    db = example_db("sqlite")
    backend = db.backend
    db.execute("SELECT name FROM shop")
    shipped = backend._rows_shipped
    assert shipped == 2  # only shop was needed
    # A clean mirror ships nothing on re-query.
    db.execute("SELECT name FROM shop")
    assert backend._rows_shipped == shipped
    # DML ships exactly the appended suffix.
    db.execute("INSERT INTO shop VALUES ('New', 1)")
    rows = db.execute("SELECT name FROM shop ORDER BY name").rows
    assert ("New",) in rows
    assert backend._rows_shipped == shipped + 1


def test_drop_and_recreate_reloads_table():
    db = example_db("sqlite")
    assert len(db.execute("SELECT name FROM shop").rows) == 2
    db.execute("DROP TABLE shop")
    db.execute("CREATE TABLE shop (name text, numempl integer)")
    db.execute("INSERT INTO shop VALUES ('Only', 9)")
    assert db.execute("SELECT name FROM shop").rows == [("Only",)]


def test_select_into_and_requery_on_sqlite():
    db = example_db("sqlite")
    db.execute("SELECT PROVENANCE name INTO stored FROM shop WHERE numempl < 10")
    result = db.execute("SELECT name, prov_shop_name FROM stored")
    assert result.rows == [("Merdies", "Merdies")]


def test_collect_base_relations_descends_sublinks():
    from repro.sql.parser import parse_statement

    db = example_db("python")
    query, _ = db._analyze_and_rewrite(
        parse_statement("SELECT name FROM shop WHERE name IN (SELECT sname FROM sales)")
    )
    assert collect_base_relations(query) == {"shop", "sales"}


# -- unsupported constructs raise, never mis-execute -------------------------


def test_intersect_all_rejected_by_sqlite():
    db = example_db("sqlite")
    with pytest.raises(BackendUnsupportedError, match="INTERSECT ALL"):
        db.execute("SELECT name FROM shop INTERSECT ALL SELECT sname FROM sales")


def test_bare_interval_rejected_by_sqlite():
    db = example_db("sqlite")
    with pytest.raises(BackendUnsupportedError, match="INTERVAL"):
        db.execute("SELECT INTERVAL '3' MONTH FROM shop")


def test_date_arithmetic_supported_on_sqlite():
    setup = ["CREATE TABLE d (day date)", "INSERT INTO d VALUES (DATE '1995-03-31')"]
    for sql in [
        "SELECT day + INTERVAL '7' DAY AS later FROM d",
        "SELECT day FROM d WHERE day < DATE '1995-01-01' + INTERVAL '1' YEAR",
        "SELECT DATE '1995-03-31' + INTERVAL '3' MONTH AS clamped FROM d",
        "SELECT EXTRACT(YEAR FROM day) AS y, EXTRACT(MONTH FROM day) AS m FROM d",
    ]:
        results = []
        for backend in ("python", "sqlite"):
            db = repro.connect(backend=backend)
            for statement in setup:
                db.execute(statement)
            results.append(db.execute(sql))
        assert_same_result(results[0], results[1], context=f"for {sql!r}")


def test_month_arithmetic_on_column_rejected_by_sqlite():
    # SQLite's date() rolls month ends over; the engine clamps.  Rather
    # than silently diverging on e.g. Jan 31 + 1 month, the dialect rejects.
    db = repro.connect(backend="sqlite")
    db.execute("CREATE TABLE d (day date)")
    with pytest.raises(BackendUnsupportedError, match="month"):
        db.execute("SELECT day + INTERVAL '1' MONTH AS next_month FROM d")


def test_boolean_argument_to_engine_udf_rejected():
    # Booleans live as 0/1 in SQLite; shipping one into an engine UDF
    # (concat, greatest, ...) would silently change semantics.
    db = repro.connect(backend="sqlite")
    db.execute("CREATE TABLE bt (b boolean)")
    db.execute("INSERT INTO bt VALUES (TRUE)")
    with pytest.raises(BackendUnsupportedError, match="boolean argument"):
        db.execute("SELECT concat('x', b) AS c FROM bt")


def test_text_casts_keep_engine_strictness():
    # SQLite's native CAST('abc' AS INTEGER) is 0; the engine raises.
    # The dialect must route casts through the engine's conversion rules.
    for backend in ("python", "sqlite"):
        db = repro.connect(backend=backend)
        db.execute("CREATE TABLE tx (a text)")
        db.execute("INSERT INTO tx VALUES ('abc')")
        with pytest.raises(Exception):
            db.execute("SELECT CAST(a AS integer) AS i FROM tx")


def test_integer_minus_date_rejected_by_sqlite():
    db = example_db("sqlite")
    with pytest.raises(BackendUnsupportedError, match="date on the right"):
        db.execute("SELECT 5 - DATE '2020-01-10' AS d FROM shop")


def test_offset_without_limit():
    assert_same_result(
        example_db("python").execute("SELECT name FROM shop ORDER BY name OFFSET 1"),
        example_db("sqlite").execute("SELECT name FROM shop ORDER BY name OFFSET 1"),
    )


def test_correlated_setop_sublink_matches():
    # The sublink body is a set operation whose leaves reference the
    # outer query; both backends must bind t.x to the outer scope.
    setup = [
        "CREATE TABLE t (x integer)",
        "CREATE TABLE s (a integer)",
        "CREATE TABLE u (b integer, x integer)",
        "INSERT INTO t VALUES (1), (2)",
        "INSERT INTO s VALUES (99), (2)",
        "INSERT INTO u VALUES (5, 5)",
    ]
    sql = (
        "SELECT x FROM t WHERE EXISTS ("
        "(SELECT a FROM s WHERE s.a = t.x) UNION "
        "(SELECT b FROM u WHERE u.b = t.x))"
    )
    results = []
    for backend in ("python", "sqlite"):
        db = repro.connect(backend=backend)
        for statement in setup:
            db.execute(statement)
        results.append(db.execute(sql))
    assert results[0].rows == [(2,)]
    assert_same_result(results[0], results[1], context=f"for {sql!r}")


def test_unsupported_error_names_the_feature():
    try:
        example_db("sqlite").execute(
            "SELECT name FROM shop EXCEPT ALL SELECT sname FROM sales"
        )
    except BackendUnsupportedError as exc:
        assert exc.feature.startswith("EXCEPT ALL")
        assert exc.backend == "sqlite"
    else:  # pragma: no cover
        pytest.fail("EXCEPT ALL must be rejected by the SQLite dialect")


# -- CLI ---------------------------------------------------------------------


def test_cli_backend_flag_and_meta(capsys):
    from repro.__main__ import _handle_meta, main

    assert main(["--backend", "sqlite", "-c", "SELECT 1 + 1 AS two"]) == 0
    assert "2" in capsys.readouterr().out

    db = example_db("python")
    assert _handle_meta(db, "\\backend sqlite")
    assert db.backend_name == "sqlite"
    out = capsys.readouterr().out
    assert "sqlite" in out
    assert _handle_meta(db, "\\backend")
    listing = capsys.readouterr().out
    assert "python" in listing and "* sqlite" in listing
