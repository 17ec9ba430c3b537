"""Table and column statistics: the planner's view of the data.

Collected by ``ANALYZE`` (the SQL statement, ``db.analyze()``, or the
shell's ``\\analyze``) in one pass over each heap and stored in the
catalog.  The cost model (:mod:`repro.planner.cost`) consumes them for
selectivity and cardinality estimation; without statistics it falls back
to magic-constant defaults, so ``ANALYZE`` is an optimization, never a
correctness requirement.

Freshness: a :class:`TableStats` remembers the ``(uid, epoch)`` of the
heap it was built from.  A dropped-and-recreated table (new ``uid``) or
a truncate (new ``epoch``) invalidates the entry; plain appends do not
— like any sampling DBMS, the numbers then lag the data until the next
``ANALYZE`` (the live row count is always read from the heap itself).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, filterfalse, islice
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table

#: Distinct-tracking cap per column: beyond this many values the column
#: is treated as effectively unique (ndv extrapolated to the row count),
#: bounding ANALYZE memory on wide-text columns of large heaps.
MAX_TRACKED_DISTINCT = 131072

#: Most-common-value list size.  A value makes the list only when it
#: repeats and (for high-NDV columns) occurs more often than average, so
#: unique-key columns carry no MCV list at all.
MCV_LIST_SIZE = 10

#: Equi-depth histogram resolution: each bucket holds ~1/32 of the
#: non-NULL, non-MCV rows.
HISTOGRAM_BUCKETS = 32


@dataclass
class ColumnStats:
    """One column's statistics snapshot.

    ``ndv`` counts distinct non-NULL values; ``min_value``/``max_value``
    are populated only for orderable types (numbers, strings, dates).

    ``mcv`` is the most-common-value list as ``(value, fraction)`` pairs
    where the fraction is of *all* rows (so NULLs and MCVs and the
    histogram mass sum to ~1).  ``histogram`` holds equi-depth bucket
    bounds over the remaining (non-NULL, non-MCV) orderable values, and
    ``histogram_frac`` is the fraction of all rows those buckets cover.
    """

    ndv: int = 0
    null_frac: float = 0.0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    mcv: tuple = ()
    histogram: tuple = ()
    histogram_frac: float = 0.0

    def mcv_total_frac(self) -> float:
        return sum(frac for _, frac in self.mcv)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStats(ndv={self.ndv}, nulls={self.null_frac:.3f}, "
            f"range=[{self.min_value!r}, {self.max_value!r}], "
            f"mcv={len(self.mcv)}, hist={max(len(self.histogram) - 1, 0)})"
        )


@dataclass
class TableStats:
    """Statistics snapshot of one heap table."""

    table_name: str
    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    # Heap identity at collection time (freshness check): the snapshot
    # outlives row removal, not a truncate or a drop-and-recreate.
    table_uid: int = -1
    table_truncations: int = -1
    #: Rows actually inspected when the snapshot was sample-based
    #: (auto-ANALYZE over large heaps); ``None`` means a full scan.
    sampled_rows: Optional[int] = None

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def is_fresh_for(self, table: "Table") -> bool:
        return (
            self.table_uid == table.uid
            and self.table_truncations == table.truncations
        )


def _orderable(value: Any) -> bool:
    """Min/max only make sense for homogeneous, orderable scalars."""
    import datetime

    return isinstance(value, (int, float, str, datetime.date)) and not isinstance(
        value, bool
    )


def _reservoir_indices(rows: int, sample_rows: int, seed: int) -> list[int]:
    """Algorithm-R reservoir over the row-index stream, sorted ascending.

    Seeded deterministically (from the heap's identity) so repeated
    collections over unchanged data produce identical statistics —
    estimate-quality tests and WAL replay both rely on that.
    """
    rng = random.Random(seed)
    reservoir = list(range(sample_rows))
    for index in range(sample_rows, rows):
        slot = rng.randrange(index + 1)
        if slot < sample_rows:
            reservoir[slot] = index
    reservoir.sort()
    return reservoir


def _chao1_ndv(counts: Counter, seen: int, est_population: int) -> int:
    """Chao1 richness estimate of population NDV from sample frequencies.

    ``seen + f1^2 / (2 f2)`` with the bias-corrected ``f1 (f1 - 1) / 2``
    term when no value occurred exactly twice; clamped between the
    distinct values actually seen and the estimated non-NULL population.
    """
    f1 = sum(1 for c in counts.values() if c == 1)
    f2 = sum(1 for c in counts.values() if c == 2)
    if f2 > 0:
        estimate = seen + (f1 * f1) / (2.0 * f2)
    else:
        estimate = seen + f1 * (f1 - 1) / 2.0
    return max(seen, min(int(estimate), est_population))


def collect_table_stats(
    table: "Table", sample_rows: Optional[int] = None
) -> TableStats:
    """One pass over the heap: per-column NDV, nulls, min/max,
    most-common values, and an equi-depth histogram.

    Heaps are transposed through the table's columnar cache, so the
    per-column work runs over plain lists: one C-level ``Counter`` build
    per column over up to :data:`MAX_TRACKED_DISTINCT` values (larger
    columns are sampled by prefix and extrapolated), then one sort of
    the distinct values, which yields min/max and the histogram.

    ``sample_rows`` switches to estimation over a seeded reservoir
    sample of that many rows (auto-ANALYZE uses this above
    :attr:`~repro.catalog.catalog.Catalog.AUTO_ANALYZE_SAMPLE_THRESHOLD`
    rows): fractions scale directly, NDV goes through the Chao1
    estimator, and min/max narrow to the sampled extremes.  The live
    ``row_count`` is always exact — only per-column shape is estimated.
    """
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
        if scanned <= MAX_TRACKED_DISTINCT:
            # Every non-NULL value is tracked: count the NULLs along with
            # them rather than copy the column without them.
            values = None
            counts = Counter(column)
            non_null = scanned - counts.pop(None, 0)
            tracked = non_null
        else:
            values = [v for v in column if v is not None]
            non_null = len(values)
            tracked = min(non_null, MAX_TRACKED_DISTINCT)
            counts = Counter(islice(values, MAX_TRACKED_DISTINCT))
        null_frac = 1.0 - non_null / scanned
        if not non_null:
            stats.columns[name.lower()] = ColumnStats(null_frac=1.0)
            continue
        seen = len(counts)
        if sample_indices is not None:
            est_non_null = max(1, round(rows * (1.0 - null_frac)))
            ndv = _chao1_ndv(counts, seen, est_non_null)
        elif tracked < non_null:
            # Extrapolate: if the sample looks unique, assume the column
            # is; otherwise scale the sample's distinct ratio.
            ndv = (
                non_null
                if seen == tracked
                else max(1, int(seen / tracked * non_null))
            )
        else:
            ndv = seen
        non_null_frac = non_null / scanned
        mcv = _collect_mcv(counts, tracked, seen, non_null_frac)
        mcv_values = {v for v, _ in mcv}
        # The histogram covers the non-MCV values; its type gate probes
        # the first of them in first-occurrence order.
        first_rest = next((v for v in counts if v not in mcv_values), None)
        want_histogram = seen - len(mcv) >= 2 and _orderable(first_rest)
        # Min/max come off the sorted distinct values unless the counts
        # cover only a prefix of the column.  The first key counted is
        # the column's first non-NULL value.
        want_range = _orderable(next(iter(counts)))
        ordered = None
        if want_histogram or (want_range and tracked == non_null):
            try:
                ordered = sorted(counts)
            except TypeError:  # mixed types: no meaningful order
                pass
        min_value = max_value = None
        if want_range and tracked < non_null:
            try:
                min_value, max_value = min(values), max(values)
            except TypeError:  # mixed types sneaked in; skip the range
                pass
        elif want_range and ordered is not None:
            min_value, max_value = ordered[0], ordered[-1]
        histogram, histogram_frac = (), 0.0
        if want_histogram:
            histogram, histogram_frac = _collect_histogram(
                counts, ordered, mcv_values, tracked, non_null_frac
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


def _collect_mcv(
    counts: Counter, sample_size: int, seen: int, non_null_frac: float
) -> tuple:
    """The most-common-value list as ``(value, fraction-of-all-rows)``.

    Singletons never qualify (a value seen once is not "common"), and on
    high-NDV columns a value must beat the average frequency — so a
    uniform column (every TPC-H key) carries no MCV list and estimation
    falls through to NDV/histogram arithmetic.  Low-NDV columns keep
    every repeating value, making equality estimates exact.
    """
    top = max(counts.values())
    if top <= 1 or (seen > MCV_LIST_SIZE and top * seen <= sample_size):
        return ()  # the loop below would stop at the most common value
    mcv = []
    for value, count in counts.most_common(MCV_LIST_SIZE):
        if count <= 1:
            break
        if seen > MCV_LIST_SIZE and count * seen <= sample_size:
            break  # most_common is descending: the rest fail too
        mcv.append((value, count / sample_size * non_null_frac))
    return tuple(mcv)


def _collect_histogram(
    counts: Counter,
    ordered: Optional[list],
    mcv_values: set,
    sample_size: int,
    non_null_frac: float,
) -> tuple[tuple, float]:
    """Equi-depth bucket bounds over the non-MCV values.

    Returns ``(bounds, fraction-of-all-rows-covered)``; bounds are
    ``HISTOGRAM_BUCKETS + 1`` values (fewer when the column has fewer
    distinct values) with each adjacent pair delimiting ~equal row mass.
    ``ordered`` is every distinct value sorted, or ``None`` when they do
    not sort together (an MCV of another type): the non-MCV values are
    then sorted on their own, and a mixed-type rest gets no histogram.
    """
    if ordered is None:
        try:
            remaining = sorted(filterfalse(mcv_values.__contains__, counts))
        except TypeError:  # mixed types: no meaningful order
            return (), 0.0
    else:
        remaining = list(filterfalse(mcv_values.__contains__, ordered))
    cumulative = list(accumulate(map(counts.__getitem__, remaining)))
    total = cumulative[-1]
    buckets = min(HISTOGRAM_BUCKETS, len(remaining) - 1)
    # Bucket t ends at the first value whose running count reaches
    # t/buckets of the mass: ``cumulative * buckets >= t * total``, an
    # exact integer threshold.  A heavy value can end several buckets;
    # it still contributes one bound (buckets merely go unequal).
    bounds = [remaining[0]]
    last = 0
    for threshold in range(1, buckets + 1):
        index = bisect_left(cumulative, -(-threshold * total // buckets))
        if index != last:
            bounds.append(remaining[index])
            last = index
    return tuple(bounds), total / sample_size * non_null_frac
