"""The SQLite execution backend: rewritten queries on a real DBMS.

Reproduces the paper's actual deployment model — the provenance-rewritten
query ``q+`` is handed to a host DBMS as ordinary SQL.  Here the host is
an embedded ``sqlite3`` database:

* catalog tables are mirrored into SQLite with **incremental sync**:
  each table's ``(uid, epoch, synced row count)`` is remembered, so after
  DML only the appended row suffix is shipped (a truncate or a
  drop-and-recreate bumps epoch/uid and triggers a full reload);
* the analyzed/rewritten query tree is deparsed with the
  :class:`~repro.sql.deparse.SqliteDialect`, which either translates a
  construct faithfully or raises
  :class:`~repro.errors.BackendUnsupportedError`;
* the ``perm_poly_*`` scalar/aggregate primitives are registered via
  ``create_function`` / ``create_aggregate``, with ``N[X]`` polynomials
  travelling through SQLite as canonical wire strings
  (:meth:`~repro.semiring.polynomial.Polynomial.to_wire`), so both
  witness-list *and* polynomial provenance semantics run natively;
* result rows are mapped back to engine values (ISO text → ``date``,
  0/1 → ``bool``, wire strings → :class:`Polynomial`) using the query
  tree's output types, preserving column naming and the annotation-column
  plumbing of :class:`~repro.database.QueryResult`.
"""

from __future__ import annotations

import datetime
import sqlite3
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.datatypes import Interval, SQLType, parse_date
from repro.errors import BackendUnsupportedError, ExecutionError
from repro.analyzer.query_tree import Query
from repro.backends.base import ExecutionBackend, collect_base_relations
from repro.semiring.polynomial import Polynomial
from repro.sql.deparse import SqliteDialect, deparse_query, get_dialect

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import QueryResult
    from repro.storage.table import Table

#: Catalog column types → SQLite column affinities.
_AFFINITY = {
    SQLType.INTEGER: "INTEGER",
    SQLType.FLOAT: "REAL",
    SQLType.TEXT: "TEXT",
    SQLType.BOOLEAN: "INTEGER",
    SQLType.DATE: "TEXT",
    SQLType.POLYNOMIAL: "TEXT",
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def to_sqlite_value(value: Any) -> Any:
    """Engine value → SQLite storage value."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return int(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, Polynomial):
        return value.to_wire()
    if isinstance(value, Interval):
        raise BackendUnsupportedError("INTERVAL values in table data", "sqlite")
    raise ExecutionError(f"cannot ship value {value!r} to SQLite")


def _dates(values: Sequence) -> list:
    return [parse_date(v) if isinstance(v, str) else v for v in values]


def _booleans(values: Sequence) -> list:
    return [None if v is None else bool(v) for v in values]


def _polynomials(values: Sequence) -> list:
    return [Polynomial.from_wire(v) if isinstance(v, str) else v for v in values]


def _floats(values: Sequence) -> list:
    return [float(v) if isinstance(v, int) else v for v in values]


#: Analyzed output type → converter of one result column's SQLite values
#: to engine values (ISO text → ``date``, 0/1 → ``bool``, wire string →
#: ``Polynomial``, integral REAL → ``float``; NULL stays NULL).  Types
#: absent here come back from SQLite exactly as the engine holds them.
_FROM_SQLITE = {
    SQLType.DATE: _dates,
    SQLType.BOOLEAN: _booleans,
    SQLType.POLYNOMIAL: _polynomials,
    SQLType.FLOAT: _floats,
}


def from_sqlite_value(value: Any, sql_type: SQLType) -> Any:
    """SQLite result value → engine value, guided by the analyzed type."""
    convert = _FROM_SQLITE.get(sql_type)
    return value if convert is None else convert((value,))[0]


def _convert_rows(rows: list[tuple], types: list[SQLType]) -> list[tuple]:
    """Map SQLite result rows to engine values, one converter per column.

    Columns whose type needs no conversion pass through untouched; when
    no column needs one the rows come back as SQLite returned them.
    """
    converters = [
        (index, _FROM_SQLITE[sql_type])
        for index, sql_type in enumerate(types)
        if sql_type in _FROM_SQLITE
    ]
    if not converters or not rows:
        return rows
    columns = list(zip(*rows))
    for index, convert in converters:
        columns[index] = convert(columns[index])
    return list(zip(*columns))


# -- user functions ----------------------------------------------------------


def _udf(fn):
    """Wrap an engine scalar function as a SQLite user function."""

    def wrapped(*args):
        return to_sqlite_value(fn(*args))

    return wrapped


def _on_wires(fn):
    """Like :func:`_udf`, for functions whose arguments are polynomials."""

    def wrapped(*wires):
        return to_sqlite_value(
            fn(*[None if w is None else Polynomial.from_wire(w) for w in wires])
        )

    return wrapped


class _PolySum:
    """``create_aggregate`` adapter for the semiring sum of polynomials.

    ``step`` only collects the wire strings; ``finalize`` parses them and
    normalises the sum once (:meth:`Polynomial.sum_all`), instead of
    re-normalising a growing partial sum on every row.
    """

    def __init__(self) -> None:
        self.wires: list[str] = []

    def step(self, value) -> None:
        if value is not None:
            self.wires.append(value)

    def finalize(self) -> str:
        return Polynomial.sum_all(map(Polynomial.from_wire, self.wires)).to_wire()


class SqliteBackend(ExecutionBackend):
    """Ship catalog data into SQLite and execute deparsed query trees."""

    name = "sqlite"

    def __init__(self, catalog) -> None:
        super().__init__(catalog)
        self.dialect: SqliteDialect = get_dialect("sqlite")
        # check_same_thread off: a database served by ``start_in_thread``
        # runs statements on the server's engine thread and on the
        # embedding program's own thread.  The stdlib module is compiled in
        # serialized mode (sqlite3.threadsafety == 3), so cross-thread
        # use of one connection is locked inside SQLite itself.
        self._con = sqlite3.connect(":memory:", check_same_thread=False)
        # The engine's LIKE is case-sensitive (PostgreSQL semantics).
        self._con.execute("PRAGMA case_sensitive_like = ON")
        # Mirror state: table name -> (uid, epoch, rows synced).
        self._mirror: dict[str, tuple[int, int, int]] = {}
        self._statements = 0
        self._rows_shipped = 0
        self._register_functions()

    # -- protocol ----------------------------------------------------------

    def run_select(self, query: Query) -> "QueryResult":
        from repro.database import QueryResult

        sql = deparse_query(query, dialect=self.dialect)
        self.sync_tables(collect_base_relations(query))
        try:
            cursor = self._con.execute(sql)
            raw = cursor.fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(
                f"SQLite backend error: {exc}\n-- translated SQL --\n{sql}"
            ) from exc
        self._statements += 1
        return QueryResult(
            columns=query.output_columns(),
            rows=_convert_rows(raw, query.output_types()),
            annotation_column=query.annotation_column,
        )

    def close(self) -> None:
        self._con.close()
        self._mirror.clear()

    def describe(self) -> str:
        return (
            f"embedded SQLite {sqlite3.sqlite_version} "
            f"({self._statements} statements, {self._rows_shipped} rows shipped)"
        )

    # -- catalog mirroring -------------------------------------------------

    def sync_tables(self, names: Iterable[str]) -> None:
        """Bring the SQLite mirror of ``names`` up to date.

        Incremental: within one table epoch the heap only grows, so a
        clean mirror ships nothing and DML ships just the new suffix.
        """
        for name in sorted(names):
            self._sync_table(self.catalog.table(name))

    def _sync_table(self, table: "Table") -> None:
        key = table.name.lower()
        state = self._mirror.get(key)
        rows = table.raw_rows()
        if state is not None and state[0] == table.uid and state[1] == table.epoch:
            synced = state[2]
            if len(rows) > synced:
                self._insert_rows(table, rows[synced:])
                self._mirror[key] = (table.uid, table.epoch, len(rows))
            return
        # New, recreated or truncated table: full reload.
        self._con.execute(f"DROP TABLE IF EXISTS {_quote(key)}")
        columns = ", ".join(
            f"{_quote(col.name)} {self._affinity(table, col.type)}"
            for col in table.schema.columns
        )
        self._con.execute(f"CREATE TABLE {_quote(key)} ({columns})")
        if rows:
            self._insert_rows(table, rows)
        self._mirror[key] = (table.uid, table.epoch, len(rows))

    @staticmethod
    def _affinity(table: "Table", sql_type: SQLType) -> str:
        try:
            return _AFFINITY[sql_type]
        except KeyError:
            raise BackendUnsupportedError(
                f"{sql_type.value}-typed column in table {table.name!r}",
                "sqlite",
            ) from None

    def _insert_rows(self, table: "Table", rows: list[tuple]) -> None:
        width = len(table.schema.columns)
        placeholders = ", ".join("?" * width)
        statement = (
            f"INSERT INTO {_quote(table.name.lower())} VALUES ({placeholders})"
        )
        converted = [tuple(to_sqlite_value(v) for v in row) for row in rows]
        self._con.executemany(statement, converted)
        self._rows_shipped += len(rows)

    # -- function registration ---------------------------------------------

    def _register_functions(self) -> None:
        from repro.executor.expr_eval import SCALAR_FUNCTIONS

        con = self._con
        # Engine scalar functions whose SQLite builtin differs or is
        # missing; the dialect renames call sites to perm_<name>.
        for name in sorted(self.dialect.UDF_RENAMES):
            con.create_function(
                f"perm_{name}", -1, _udf(SCALAR_FUNCTIONS[name]), deterministic=True
            )
        # Provenance-polynomial primitives: the engine's own functions,
        # with polynomials travelling as wire strings.
        for name, adapter in (
            ("perm_poly_token", _udf),
            ("perm_poly_one", _udf),
            ("perm_poly_mul", _on_wires),
            ("perm_poly_monus", _on_wires),
        ):
            adapted = adapter(SCALAR_FUNCTIONS[name])
            con.create_function(name, -1, adapted, deterministic=True)
        con.create_aggregate("perm_poly_sum", 1, _PolySum)
