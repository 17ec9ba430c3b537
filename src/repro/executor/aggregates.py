"""Aggregate function implementations with SQL null semantics.

* NULL inputs are skipped by every aggregate,
* ``sum``/``min``/``max``/``avg`` over zero non-null inputs yield NULL,
* ``count`` yields 0,
* DISTINCT deduplicates input values before accumulation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.semiring.polynomial import Polynomial


class AggState:
    """Base accumulator; one instance per group per aggregate.

    ``add_many``/``add_count`` are the vectorized entry points: a batch
    executor feeds a whole column slice (or a bare row count for
    argument-less aggregates) per group per chunk.  The defaults loop
    over :meth:`add`, and the hot states override them with C-level
    reductions.  Accumulation order matches the row engine: values
    arrive in row order, chunk after chunk, so fold-sensitive results
    (float sums) differ only by partial-sum regrouping.

    ``merge`` folds another state of the same kind into this one — the
    shard gatherer's re-aggregation
    (:func:`repro.sharding.merge._reaggregate`), which lifts each
    shard's final value back into a state.  Only the states it admits
    define it: ``count(*)``, ``sum``, ``min``, ``max`` and
    ``perm_poly_sum``.  :class:`PolySumState` merges by polynomial
    addition, so gathered provenance stays inside the N[X] algebra.
    """

    __slots__ = ()

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def add_many(self, values: list) -> None:
        for value in values:
            self.add(value)

    def add_count(self, count: int) -> None:
        for _ in range(count):
            self.add(None)

    def merge(self, other: "AggState") -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class CountStarState(AggState):
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, value: Any) -> None:
        self.n += 1

    def add_many(self, values: list) -> None:
        self.n += len(values)

    def add_count(self, count: int) -> None:
        self.n += count

    def merge(self, other: "CountStarState") -> None:
        self.n += other.n

    def result(self) -> int:
        return self.n


class CountState(AggState):
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.n += 1

    def add_many(self, values: list) -> None:
        self.n += sum(1 for value in values if value is not None)

    def result(self) -> int:
        return self.n


class SumState(AggState):
    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total: Any = 0
        self.seen = False

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.seen = True

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if present:
            self.total += sum(present[1:], start=present[0])
            self.seen = True

    def merge(self, other: "SumState") -> None:
        if other.seen:
            self.total = other.total if not self.seen else self.total + other.total
            self.seen = True

    def result(self) -> Any:
        return self.total if self.seen else None


class AvgState(AggState):
    __slots__ = ("total", "n")

    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.total += value
            self.n += 1

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if present:
            self.total += sum(present)
            self.n += len(present)

    def result(self) -> Optional[float]:
        return self.total / self.n if self.n else None


class MinState(AggState):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or value < self.best):
            self.best = value

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if present:
            low = min(present)
            if self.best is None or low < self.best:
                self.best = low

    def merge(self, other: "MinState") -> None:
        self.add(other.best)

    def result(self) -> Any:
        return self.best


class MaxState(AggState):
    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (self.best is None or value > self.best):
            self.best = value

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if present:
            high = max(present)
            if self.best is None or high > self.best:
                self.best = high

    def merge(self, other: "MaxState") -> None:
        self.add(other.best)

    def result(self) -> Any:
        return self.best


class PolySumState(AggState):
    """Semiring sum of ``N[X]`` provenance polynomials.

    Used by the polynomial rewrite's collapse step: the annotations of all
    derivations of one result tuple are added up.  NULL inputs are skipped
    like in any aggregate, leaving the zero polynomial.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = Polynomial.zero()

    def add(self, value: Any) -> None:
        if value is not None:
            self.total = self.total + value

    def add_many(self, values: list) -> None:
        present = [value for value in values if value is not None]
        if present:
            # One merged normalization pass instead of a quadratic
            # re-normalizing fold — the big vectorization win for
            # polynomial provenance over large groups.
            self.total = Polynomial.sum_all([self.total, *present])

    def merge(self, other: "PolySumState") -> None:
        # Semiring-native combine: partial provenance annotations from
        # two shards add in N[X], exactly like the serial fold.
        self.total = self.total + other.total

    def result(self) -> Any:
        return self.total


class DistinctWrapper(AggState):
    """Feeds only first occurrences of each value into the inner state."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner: AggState) -> None:
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_STATE_CLASSES: dict[str, Callable[[], AggState]] = {
    "count": CountState,
    "sum": SumState,
    "avg": AvgState,
    "min": MinState,
    "max": MaxState,
    "perm_poly_sum": PolySumState,
}


def make_aggregate_factory(
    name: str, star: bool = False, distinct: bool = False
) -> Callable[[], AggState]:
    """Return a zero-argument factory creating fresh accumulator states."""
    if star:
        if name != "count":
            raise ValueError(f"{name}(*) is not defined")
        return CountStarState
    if name not in _STATE_CLASSES:
        raise ValueError(f"unknown aggregate {name!r}")
    base = _STATE_CLASSES[name]
    if distinct:
        return lambda: DistinctWrapper(base())
    return base
