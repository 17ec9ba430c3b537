"""Tuple-variable minting keeps distinct base tuples distinct.

Variables render identity values in the display format wherever that is
unambiguous, and otherwise fall back to ``repr`` (floats) or SQL quoting
(text containing a delimiter, or spelling ``NULL``).
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.semiring.minting import mint_variable


@pytest.fixture(params=("python", "sqlite"))
def backend_db(request) -> repro.PermDatabase:
    db = repro.connect()
    if request.param == "sqlite":
        db.set_backend("sqlite")
    return db


def _variables(db, sql: str) -> list[str]:
    (annotation,) = db.execute(sql).annotations()
    assert all(coefficient == 1 for _, coefficient in annotation.terms())
    return sorted(annotation.variables())


def test_floats_that_display_alike_stay_distinct(backend_db):
    backend_db.execute("CREATE TABLE t (a FLOAT, b INT)")
    backend_db.execute("INSERT INTO t VALUES (1.0000001, 1), (1.0000002, 1)")
    assert _variables(backend_db, "SELECT PROVENANCE (polynomial) b FROM t") == [
        "t(1.0000001,1)",
        "t(1.0000002,1)",
    ]


def test_text_with_delimiters_and_null_stay_distinct(backend_db):
    backend_db.execute("CREATE TABLE s (x TEXT, y TEXT)")
    backend_db.execute(
        "INSERT INTO s VALUES ('a,b', 'c'), ('a', 'b,c'), (NULL, 'z'), ('NULL', 'z')"
    )
    assert _variables(backend_db, "SELECT PROVENANCE (polynomial) count(*) FROM s") == [
        "s('NULL',z)",
        "s('a,b',c)",
        "s(NULL,z)",
        "s(a,'b,c')",
    ]


@pytest.mark.parametrize(
    "values, name",
    [
        ((42,), "part(42)"),
        ((1, 7), "part(1,7)"),
        ((0.5, 1.0, 1e-07), "part(0.5,1,1e-07)"),
        (("Joba", "two words", ""), "part(Joba,two words,)"),
        ((None, True, False), "part(NULL,t,f)"),
        ((datetime.date(1995, 3, 15),), "part(1995-03-15)"),
        (("it's", "f(x)", "NULL"), "part('it''s','f(x)','NULL')"),
        ((0.1 + 0.2,), "part(0.30000000000000004)"),
    ],
)
def test_rendering(values, name):
    assert mint_variable("part", values) == name


_COLUMN_VALUES = {
    "text": st.text(alphabet="ab,()' NUL", max_size=5),
    "float": st.floats(allow_nan=False),
}


@st.composite
def _two_rows(draw) -> tuple[list, list]:
    """Two rows of one relation: every column holds one type or NULL."""
    column_kinds = st.sampled_from(sorted(_COLUMN_VALUES))
    kinds = draw(st.lists(column_kinds, min_size=1, max_size=3))
    rows = [
        [draw(st.none() | _COLUMN_VALUES[kind]) for kind in kinds] for _ in range(2)
    ]
    return rows[0], rows[1]


@given(rows=_two_rows())
def test_distinct_tuples_mint_distinct_variables(rows):
    left, right = rows
    if left != right:
        assert mint_variable("r", left) != mint_variable("r", right)
