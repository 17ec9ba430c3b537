"""Tuple-variable minting: base tuples -> ``N[X]`` variables.

Every base tuple that can contribute to a query result is represented by
an abstract variable in the provenance polynomial.  Variables are minted
*by tuple identity*: the relation name plus the values of the tuple's
identity columns.  Identity is tied to the catalog -- a relation with a
declared primary key is identified by its key (short, stable variables
like ``part(42)``), everything else by its full value (matching the
witness-list rewriter's value-based tuple identity, so the two semantics
are directly comparable).

The rewriter chooses the identity columns at compile time
(:meth:`TupleVariableMinter.identity_attnos`); the executor mints the
actual variable names at run time (:func:`mint_variable`) from the values
flowing through the scan.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.datatypes import format_value

#: Characters that would make an unquoted text value ambiguous inside
#: ``relation(v1,v2,...)``.
_TEXT_DELIMITERS = frozenset(",()'")


def _render_identity_value(value: Any) -> str:
    """:func:`format_value`, except where it would merge distinct values."""
    if type(value) is int:  # the common key column, first
        return str(value)
    if isinstance(value, float):
        short = f"{value:.6g}"
        return short if float(short) == value else repr(value)
    if isinstance(value, str):
        if value == "NULL" or not _TEXT_DELIMITERS.isdisjoint(value):
            return "'" + value.replace("'", "''") + "'"
        return value
    return format_value(value)


def mint_variable(relation: str, values: Sequence[Any]) -> str:
    """The variable name for one base tuple: ``relation(v1,v2,...)``."""
    rendered = ",".join(map(_render_identity_value, values))
    return f"{relation}({rendered})"


class TupleVariableMinter:
    """Decides which columns identify a tuple of a range table entry."""

    @staticmethod
    def identity_attnos(rte) -> list[int]:
        """Column positions identifying a tuple of ``rte``.

        Base relations with a primary key in the catalog are identified by
        the key columns; key-less relations and ``BASERELATION``-marked
        subqueries by all (visible) columns.
        """
        schema = getattr(rte, "schema", None)
        if schema is not None and schema.primary_key:
            return [schema.column_index(name) for name in schema.primary_key]
        return list(range(len(rte.column_names)))
