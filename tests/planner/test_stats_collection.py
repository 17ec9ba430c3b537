"""``collect_table_stats`` against a frozen reference implementation.

ANALYZE sorts each column's distinct values once and reads min/max and
the equi-depth histogram off that one list.  The statistics it returns
must equal (``==``) those of the per-row implementation below, which is
kept verbatim as the reference: plans, plan goldens and every estimate
depend on them.  The property covers totally ordered and unorderable
values; NaN is left out, because Python orders it inconsistently and
neither implementation's min/max or bounds mean anything for it.
"""

from __future__ import annotations

import datetime
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, SQLType, TableSchema
from repro.planner import stats as stats_module
from repro.planner.stats import (
    HISTOGRAM_BUCKETS,
    ColumnStats,
    TableStats,
    _chao1_ndv,
    _collect_mcv,
    _orderable,
    _reservoir_indices,
    collect_table_stats,
)
from repro.storage.table import Table
from repro.tpch.dbgen import tpch_database


def reference_collect_table_stats(table, sample_rows=None):
    """The per-row implementation: min/max over every row, a histogram
    from sorted ``(value, count)`` pairs walked value by value."""
    rows = table.row_count()
    stats = TableStats(
        table_name=table.name,
        row_count=rows,
        table_uid=table.uid,
        table_truncations=table.truncations,
    )
    if rows == 0:
        for name in table.column_names:
            stats.columns[name.lower()] = ColumnStats()
        return stats
    sample_indices = None
    if sample_rows is not None and rows > sample_rows:
        seed = hash((table.uid, table.epoch, rows))
        sample_indices = _reservoir_indices(rows, sample_rows, seed)
        stats.sampled_rows = len(sample_indices)
    for attno, name in enumerate(table.column_names):
        column = table.columnar()[attno]
        if sample_indices is not None:
            column = [column[i] for i in sample_indices]
        scanned = len(column)
        non_null = [v for v in column if v is not None]
        null_frac = 1.0 - len(non_null) / scanned
        if not non_null:
            stats.columns[name.lower()] = ColumnStats(null_frac=1.0)
            continue
        cap = stats_module.MAX_TRACKED_DISTINCT
        sample = non_null if len(non_null) <= cap else non_null[:cap]
        counts = Counter(sample)
        seen = len(counts)
        if sample_indices is not None:
            est_non_null = max(1, round(rows * (1.0 - null_frac)))
            ndv = _chao1_ndv(counts, seen, est_non_null)
        elif len(sample) < len(non_null):
            ndv = (
                len(non_null)
                if seen == len(sample)
                else max(1, int(seen / len(sample) * len(non_null)))
            )
        else:
            ndv = seen
        probe = non_null[0]
        if _orderable(probe):
            try:
                min_value, max_value = min(non_null), max(non_null)
            except TypeError:
                min_value = max_value = None
        else:
            min_value = max_value = None
        non_null_frac = len(non_null) / scanned
        mcv = _collect_mcv(counts, len(sample), seen, non_null_frac)
        histogram, histogram_frac = _reference_histogram(
            counts, {v for v, _ in mcv}, len(sample), non_null_frac
        )
        stats.columns[name.lower()] = ColumnStats(
            ndv=ndv,
            null_frac=null_frac,
            min_value=min_value,
            max_value=max_value,
            mcv=mcv,
            histogram=histogram,
            histogram_frac=histogram_frac,
        )
    return stats


def _reference_histogram(counts, mcv_values, sample_size, non_null_frac):
    remaining = [(v, c) for v, c in counts.items() if v not in mcv_values]
    if len(remaining) < 2 or not _orderable(remaining[0][0]):
        return (), 0.0
    try:
        remaining.sort()
    except TypeError:
        return (), 0.0
    total = sum(c for _, c in remaining)
    buckets = min(HISTOGRAM_BUCKETS, len(remaining) - 1)
    bounds = [remaining[0][0]]
    cumulative = 0
    threshold = 1
    for value, count in remaining:
        cumulative += count
        while threshold <= buckets and cumulative * buckets >= threshold * total:
            if value != bounds[-1]:
                bounds.append(value)
            threshold += 1
    return tuple(bounds), total / sample_size * non_null_frac


def _table(columns: list[list]) -> Table:
    schema = TableSchema(
        "t", [Column(f"c{i}", SQLType.TEXT) for i in range(len(columns))]
    )
    table = Table(schema)
    table.insert_many(zip(*columns))
    return table


@pytest.mark.parametrize("scale_factor", [0.001, 0.005])
def test_tpch_statistics_equal_the_reference(scale_factor):
    db = tpch_database(scale_factor=scale_factor, seed=42)
    tables = db.catalog.tables()
    assert len(tables) == 8
    for table in tables:
        assert collect_table_stats(table) == reference_collect_table_stats(table)
        assert collect_table_stats(
            table, sample_rows=500
        ) == reference_collect_table_stats(table, sample_rows=500)


_DAY = datetime.date(2024, 1, 1)
_KINDS = {
    # Small pools so values repeat: MCV lists and heavy histogram
    # buckets need duplicates.
    "int": st.integers(-3, 40),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5, 1e300]),
    "bool": st.booleans(),
    "date": st.integers(0, 40).map(lambda d: _DAY + datetime.timedelta(days=d)),
    "str": st.text(alphabet="abcz", max_size=3),
}


@st.composite
def _columns(draw):
    rows = draw(st.integers(0, 70))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = draw(
            st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=2)
        )
        value = st.one_of(*(_KINDS[kind] for kind in kinds))
        if draw(st.booleans()):
            value = st.one_of(st.none(), value)
        if draw(st.integers(0, 9)) == 0:
            value = st.none()  # all NULL
        columns.append(draw(st.lists(value, min_size=rows, max_size=rows)))
    return columns


@settings(max_examples=300)
@given(
    columns=_columns(),
    cap=st.sampled_from([None, 1, 4, 12]),
    sample_rows=st.one_of(st.none(), st.integers(1, 50)),
)
def test_statistics_equal_the_reference(columns, cap, sample_rows):
    table = _table(columns)
    limit = stats_module.MAX_TRACKED_DISTINCT if cap is None else cap
    with mock.patch.object(stats_module, "MAX_TRACKED_DISTINCT", limit):
        got = collect_table_stats(table, sample_rows=sample_rows)
        want = reference_collect_table_stats(table, sample_rows=sample_rows)
    assert got == want


def test_an_mcv_of_another_type_keeps_the_histogram():
    # A frequent string among distinct integers: the column has no
    # range, but the integers still sort into a histogram.
    column = list(range(40)) + ["hot"] * 30
    table = _table([column])
    got = collect_table_stats(table)
    assert got == reference_collect_table_stats(table)
    assert got.columns["c0"].min_value is None
    assert len(got.columns["c0"].histogram) == HISTOGRAM_BUCKETS + 1


class _CountingStr(str):
    comparisons = 0

    def __lt__(self, other):
        _CountingStr.comparisons += 1
        return str.__lt__(self, other)

    def __gt__(self, other):
        _CountingStr.comparisons += 1
        return str.__gt__(self, other)


def test_each_distinct_value_is_ordered_once_not_each_row():
    column = [_CountingStr(f"v{i % 10}") for i in range(10_000)]
    table = _table([column])
    _CountingStr.comparisons = 0
    got = collect_table_stats(table)
    assert _CountingStr.comparisons < 100
    assert (got.columns["c0"].min_value, got.columns["c0"].max_value) == ("v0", "v9")
