"""Sublink rewrite tests (paper section IV-E)."""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.errors import RewriteError


def _make_db(backend: str = "python"):
    database = repro.connect(backend=backend)
    database.execute("CREATE TABLE t (a integer, b text)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (5, 'z')")
    database.execute("CREATE TABLE s (c integer)")
    database.execute("INSERT INTO s VALUES (1), (2), (9)")
    return database


@pytest.fixture
def db():
    return _make_db()


def test_in_sublink_witnesses(db):
    result = db.execute("SELECT PROVENANCE a FROM t WHERE a IN (SELECT c FROM s)")
    assert result.columns == ["a", "prov_t_a", "prov_t_b", "prov_s_c"]
    assert Counter(result.rows) == Counter(
        {(1, 1, "x", 1): 1, (2, 2, "y", 2): 1}
    )


def test_not_in_sublink_attaches_non_fulfilling_tuples(db):
    """Paper's Q16 discussion: every tuple that did NOT fulfill the
    sublink condition contributes."""
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE a NOT IN (SELECT c FROM s)"
    )
    # Only a=5 passes NOT IN; its provenance includes all s tuples (each <> 5).
    assert Counter(result.rows) == Counter(
        {(5, 5, "z", 1): 1, (5, 5, "z", 2): 1, (5, 5, "z", 9): 1}
    )


def test_disjunction_makes_condition_independent(db):
    """Paper's exact example: C true independent of the sublink value ->
    all tuples accessed by the sublink contribute."""
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE a > 4 OR a IN (SELECT c FROM s)"
    )
    rows_for_5 = [row for row in result.rows if row[0] == 5]
    assert len(rows_for_5) == 3  # all of s
    rows_for_1 = [row for row in result.rows if row[0] == 1]
    assert rows_for_1 == [(1, 1, "x", 1)]  # only its witness


def test_exists_sublink_all_tuples_contribute(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE EXISTS (SELECT 1 FROM s)"
    )
    for value in (1, 2, 5):
        assert len([r for r in result.rows if r[0] == value]) == 3


def test_exists_over_empty_subquery(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE c > 99)"
    )
    assert result.rows == []


def test_scalar_sublink_aggregate_provenance(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE a < (SELECT max(c) FROM s)"
    )
    # max(c) = 9: every t row passes, and the aggregate's provenance (all
    # three s tuples) attaches to each result row.
    assert len(result) == 3 * 3
    assert result.columns == ["a", "prov_t_a", "prov_t_b", "prov_s_c"]


def test_scalar_sublink_filters_and_attaches(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE a < (SELECT min(c) + 1 FROM s)"
    )
    # min(c) + 1 = 2: only a=1 passes, with all three s witnesses.
    assert {row[0] for row in result.rows} == {1}
    assert len(result) == 3


def test_sublink_in_select_list(db):
    result = db.execute("SELECT PROVENANCE a, (SELECT max(c) FROM s) FROM t")
    assert result.columns == [
        "a", "?column?", "prov_t_a", "prov_t_b", "prov_s_c",
    ]
    assert len(result) == 9  # 3 rows x 3 contributing s tuples


def test_sublink_in_having(db):
    result = db.execute(
        "SELECT PROVENANCE b, sum(a) FROM t GROUP BY b "
        "HAVING sum(a) > (SELECT min(c) FROM s)"
    )
    # Groups y (2) and z (5) pass; each group row gains s provenance.
    assert result.columns == [
        "b", "sum", "prov_t_a", "prov_t_b", "prov_s_c",
    ]
    originals = {row[:2] for row in result.rows}
    assert originals == {("y", 2), ("z", 5)}
    for original in originals:
        witnesses = [r for r in result.rows if r[:2] == original]
        assert len(witnesses) == 3  # all of s via the scalar aggregate


def test_quantified_any_sublink(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE a <= ANY (SELECT c FROM s)"
    )
    rows_for_1 = {row for row in result.rows if row[0] == 1}
    assert rows_for_1 == {(1, 1, "x", 1), (1, 1, "x", 2), (1, 1, "x", 9)}


def test_multiple_sublinks(db):
    result = db.execute(
        "SELECT PROVENANCE a FROM t "
        "WHERE a IN (SELECT c FROM s) AND a < (SELECT max(c) FROM s)"
    )
    assert result.columns == [
        "a", "prov_t_a", "prov_t_b", "prov_s_c", "prov_s_1_c",
    ]
    # a in {1,2}; first sublink: 1 witness, second: all 3.
    assert len(result) == 2 * 1 * 3


def test_nested_sublink_inside_from_subquery(db):
    result = db.execute(
        "SELECT PROVENANCE v FROM "
        "(SELECT a AS v FROM t WHERE a IN (SELECT c FROM s)) AS sub"
    )
    assert result.columns == ["v", "prov_t_a", "prov_t_b", "prov_s_c"]
    assert len(result) == 2


def test_correlated_sublink_raises_rewrite_error(db):
    with pytest.raises(RewriteError, match="correlated"):
        db.execute(
            "SELECT PROVENANCE a FROM t "
            "WHERE EXISTS (SELECT 1 FROM s WHERE s.c = t.a)"
        )


def test_correlated_sublink_still_executes_without_provenance(db):
    result = db.execute(
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.c = t.a)"
    )
    assert sorted(result.rows) == [(1,), (2,)]


def test_sublink_original_filter_still_applies(db):
    # The rewritten query keeps the original condition: rows failing the
    # sublink must not leak in via the provenance join.
    result = db.execute(
        "SELECT PROVENANCE a FROM t WHERE a IN (SELECT c FROM s WHERE c < 2)"
    )
    assert {row[0] for row in result.rows} == {1}


# -- HAVING / FROM-less sublinks (attached at the aggregation's top node) ----

_HAVING = "SELECT PROVENANCE b, sum(a) FROM t GROUP BY b HAVING "
_ALL_OF_S = (1, 2, 9)

#: query -> hand-computed witness sets.  t = {1x, 2y, 5z}, s = {1, 2, 9}.
TOP_LEVEL_SUBLINK_CASES = {
    # sum IN s: group x (1) and y (2), each with the one matching s tuple.
    _HAVING + "sum(a) IN (SELECT c FROM s)": {
        ("x", 1, 1, "x", 1),
        ("y", 2, 2, "y", 2),
    },
    # sum <> ALL s: only z (5); every s tuple differs from 5 and contributes.
    _HAVING + "sum(a) NOT IN (SELECT c FROM s)": {
        ("z", 5, 5, "z", c) for c in _ALL_OF_S
    },
    # Independent disjunct: z passes by sum > 4 alone, so all of s attaches;
    # x and y pass only through the sublink and keep their single witness.
    _HAVING + "sum(a) > 4 OR sum(a) IN (SELECT c FROM s)": {
        ("x", 1, 1, "x", 1),
        ("y", 2, 2, "y", 2),
    } | {("z", 5, 5, "z", c) for c in _ALL_OF_S},
    # x passes by sum < 2 alone (all of s), z through <> ALL (all of s
    # differ from 5), y (2) fails both.
    _HAVING + "sum(a) < 2 OR sum(a) <> ALL (SELECT c FROM s)": {
        (b, total, total, b, c) for b, total in (("x", 1), ("z", 5)) for c in _ALL_OF_S
    },
    # FROM-less: the sublink relation becomes the whole FROM clause.
    "SELECT PROVENANCE (SELECT max(c) FROM s)": {(9, c) for c in _ALL_OF_S},
    "SELECT PROVENANCE 1 AS one WHERE 1 IN (SELECT c FROM s)": {(1, 1)},
    "SELECT PROVENANCE 1 AS one WHERE 7 IN (SELECT c FROM s)": set(),
}


@pytest.mark.parametrize("sql", TOP_LEVEL_SUBLINK_CASES)
def test_having_and_fromless_sublink_witnesses(db, sql):
    result = db.execute(sql)
    expected = TOP_LEVEL_SUBLINK_CASES[sql]
    assert Counter(result.rows) == Counter(expected)  # each witness once

    shipped = _make_db("sqlite").execute(sql)
    assert shipped.columns == result.columns
    assert Counter(shipped.rows) == Counter(result.rows)
