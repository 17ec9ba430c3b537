"""Aggregate-state merges: the combine step of the shard gatherer.

``sharding/merge.py::_reaggregate`` lifts each shard's final
``count(*)``, ``sum``, ``min``, ``max`` or ``perm_poly_sum`` back into
an :class:`AggState` and merges the states group by group.  These are
the only states that define ``merge``; SQL NULL semantics must survive
it — a shard whose group saw only NULLs contributes nothing, and a
group that saw only NULLs everywhere stays NULL.
"""

from __future__ import annotations

from repro.executor.aggregates import (
    CountStarState,
    MaxState,
    MinState,
    PolySumState,
    SumState,
)
from repro.semiring.polynomial import Polynomial


def test_sum_state_merge_null_handling():
    a, b, c, d = SumState(), SumState(), SumState(), SumState()
    a.add(3)
    b.add(4)
    a.merge(b)
    assert a.result() == 7
    a.merge(c)  # all-NULL partial: no contribution
    assert a.result() == 7
    c.merge(d)  # all-NULL merged into all-NULL stays NULL
    assert c.result() is None
    c.merge(a)  # merging into an all-NULL state adopts the total
    assert c.result() == 7


def test_min_max_count_star_merge():
    lo, hi = MinState(), MaxState()
    for state in (lo, hi):
        for v in (5, 2):
            state.add(v)
    other_lo, other_hi = MinState(), MaxState()
    other_lo.add(1)
    other_hi.add(9)
    lo.merge(other_lo)
    hi.merge(other_hi)
    assert (lo.result(), hi.result()) == (1, 9)
    lo.merge(MinState())  # all-NULL partials leave the extremes alone
    hi.merge(MaxState())
    assert (lo.result(), hi.result()) == (1, 9)

    n_a, n_b = CountStarState(), CountStarState()
    n_a.add(None)
    n_b.add_count(2)
    n_a.merge(n_b)
    assert n_a.result() == 3


def test_polynomial_sum_merge_is_polynomial_addition():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    a, b = PolySumState(), PolySumState()
    a.add(x)
    b.add(y)
    b.add(x)
    a.merge(b)
    assert a.result() == x + x + y

