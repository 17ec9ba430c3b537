"""Differential suite over a table of thousands of rows.

The paper examples in ``test_differential.py`` hold a handful of rows;
this suite runs the same engine over a ten-thousand-row ``events``
table with seventeen groups and forty-one tags, where hash tables,
``count(DISTINCT)`` sets and witness blocks grow large.  Each query is
checked three ways:

* against an oracle computed in plain Python from the loaded rows —
  streaming pipelines (scan -> filter -> project) *in scan order*,
  aggregates as multisets with float tolerance;
* against SQLite, an engine written by other people;
* against the sharded backend (two shards, partitioned on ``id``) with
  Python and SQLite children, whose gather re-aggregates partial
  ``count``/``sum``/``min``/``max`` states and polynomial sums.

Witness and polynomial provenance of the same shapes are compared
across the three configurations.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import repro

from tests.backends.support import assert_same_result

ROWS = 10_000

_SETUP = (
    "CREATE TABLE events (id integer, grp integer, val double precision, "
    "tag text, PRIMARY KEY (id))",
)


def _rows() -> list[tuple]:
    rng = random.Random(20260807)
    return [
        (i, i % 17, round(rng.random() * 1000.0, 6), f"tag{i % 41}")
        for i in range(ROWS)
    ]


EVENTS = _rows()

#: The configurations compared with the default Python engine.
CONFIGS = {
    "sqlite": {"backend": "sqlite"},
    "shards2": {"shards": 2},
    "shards2_sqlite": {"shards": 2, "backend": "sqlite"},
}


def _database(**kwargs) -> repro.PermDatabase:
    db = repro.connect(**kwargs)
    for statement in _SETUP:
        db.execute(statement)
    db.load_table("events", EVENTS)
    db.execute("ANALYZE")
    return db


@pytest.fixture(scope="module")
def python_db() -> repro.PermDatabase:
    return _database()


@pytest.fixture(scope="module")
def other_dbs() -> dict[str, repro.PermDatabase]:
    return {name: _database(**kwargs) for name, kwargs in CONFIGS.items()}


def _groups(rows, key):
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


# Streaming pipelines: the oracle lists rows in scan (insertion) order.
STREAMING = {
    "eq_filter": (
        "SELECT id, val FROM events WHERE grp = 3",
        lambda: [(i, v) for i, g, v, _ in EVENTS if g == 3],
    ),
    "conjunct_expr": (
        "SELECT id, tag, val * 2 FROM events WHERE val > 900 AND grp < 8",
        lambda: [(i, t, v * 2) for i, g, v, t in EVENTS if v > 900 and g < 8],
    ),
    "like_prefix": (
        "SELECT id FROM events WHERE tag LIKE 'tag1%'",
        lambda: [(i,) for i, _, _, t in EVENTS if t.startswith("tag1")],
    ),
    "like_dynamic": (
        # The pattern is a column: compiled per distinct value, not once.
        "SELECT id, tag FROM events WHERE tag LIKE tag",
        lambda: [(i, t) for i, _, _, t in EVENTS],
    ),
}

# Aggregation pipelines: the oracle is a multiset.
AGGREGATES = {
    "count_star": (
        "SELECT count(*) FROM events",
        lambda: [(len(EVENTS),)],
    ),
    "count_sum": (
        "SELECT grp, count(*), sum(val) FROM events GROUP BY grp",
        lambda: [
            (g, len(rows), sum(r[2] for r in rows))
            for g, rows in _groups(EVENTS, lambda r: r[1]).items()
        ],
    ),
    "min_max_avg": (
        "SELECT grp, min(val), max(val), avg(val) FROM events GROUP BY grp",
        lambda: [
            (
                g,
                min(r[2] for r in rows),
                max(r[2] for r in rows),
                sum(r[2] for r in rows) / len(rows),
            )
            for g, rows in _groups(EVENTS, lambda r: r[1]).items()
        ],
    ),
    "count_distinct": (
        "SELECT grp, count(DISTINCT tag) FROM events GROUP BY grp",
        lambda: [
            (g, len({r[3] for r in rows}))
            for g, rows in _groups(EVENTS, lambda r: r[1]).items()
        ],
    ),
    "filtered_sum": (
        "SELECT tag, sum(val) FROM events WHERE grp < 9 GROUP BY tag",
        lambda: [
            (t, sum(r[2] for r in rows))
            for t, rows in _groups(
                [r for r in EVENTS if r[1] < 9], lambda r: r[3]
            ).items()
        ],
    ),
}

#: Aggregates whose partial states the sharded gather merges; ``avg`` and
#: ``count(DISTINCT)`` have no such merge and run unsharded instead.
MERGED_ON_GATHER = {"count_star", "count_sum", "filtered_sum"}

WITNESS = {
    "filter": "SELECT id, tag FROM events WHERE val > 990",
    "group_count": "SELECT grp, count(*) FROM events GROUP BY grp",
    "group_sum": "SELECT tag, sum(val) FROM events WHERE grp < 9 GROUP BY tag",
}

POLYNOMIAL = {
    "filter": "SELECT id, tag FROM events WHERE val > 990",
    "group_count": "SELECT grp, count(*) FROM events WHERE grp < 4 GROUP BY grp",
}


class _Expected:
    """The oracle's rows wrapped to look like a ``QueryResult``."""

    def __init__(self, columns, rows):
        self.columns = columns
        self.rows = rows


@pytest.mark.parametrize("case", STREAMING)
def test_streaming_matches_scan_order(python_db, case):
    sql, oracle = STREAMING[case]
    # Ordered, exact: a scan -> filter -> project pipeline emits rows in
    # the order the table holds them.
    assert python_db.execute(sql).rows == oracle()


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("case", STREAMING)
def test_streaming_matches_other_backends(python_db, other_dbs, case, config):
    sql, _ = STREAMING[case]
    assert_same_result(
        python_db.execute(sql),
        other_dbs[config].execute(sql),
        context=f"on {config} for {sql!r}",
    )


@pytest.mark.parametrize("case", AGGREGATES)
def test_aggregates_match_oracle(python_db, case):
    sql, oracle = AGGREGATES[case]
    actual = python_db.execute(sql)
    assert_same_result(
        _Expected(actual.columns, oracle()), actual, context=f"for {sql!r}"
    )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("case", AGGREGATES)
def test_aggregates_match_other_backends(python_db, other_dbs, case, config):
    sql, _ = AGGREGATES[case]
    db = other_dbs[config]
    scattered = getattr(db.backend, "scattered", None)
    assert_same_result(
        python_db.execute(sql), db.execute(sql), context=f"on {config} for {sql!r}"
    )
    if scattered is not None and case in MERGED_ON_GATHER:
        # The shards computed partial states and the gather merged them;
        # a fallback to one node would not test the merge.
        assert db.backend.scattered == scattered + 1


def test_group_order_is_first_encounter(python_db):
    # Hash aggregation emits groups in the order the scan first meets
    # them, so a GROUP BY without ORDER BY is stable from run to run.
    sql = "SELECT grp, count(*) FROM events GROUP BY grp"
    expected = [
        (g, len(rows)) for g, rows in _groups(EVENTS, lambda r: r[1]).items()
    ]
    assert python_db.execute(sql).rows == expected
    assert python_db.execute(sql).rows == expected


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("case", WITNESS)
def test_witness_provenance_matches(python_db, other_dbs, case, config):
    sql = WITNESS[case]
    expected = python_db.provenance(sql)
    assert len(expected.rows) > 0
    assert_same_result(
        expected,
        other_dbs[config].provenance(sql),
        context=f"on {config} for provenance {sql!r}",
    )


def test_witness_provenance_lists_every_contributing_row(python_db):
    # One output row per (group, contributing tuple): the witness blocks
    # of a grouped count together name every scanned row exactly once.
    result = python_db.provenance(WITNESS["group_count"])
    assert len(result.rows) == ROWS
    witness_ids = Counter(row[2] for row in result.rows)
    assert witness_ids == Counter(i for i, *_ in EVENTS)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("case", POLYNOMIAL)
def test_polynomial_provenance_matches(python_db, other_dbs, case, config):
    sql = POLYNOMIAL[case]
    expected = python_db.provenance(sql, semantics="polynomial")
    actual = other_dbs[config].provenance(sql, semantics="polynomial")
    assert expected.columns == actual.columns
    assert_same_result(expected, actual, context=f"on {config} for {sql!r}")
