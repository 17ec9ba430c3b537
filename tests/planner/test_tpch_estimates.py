"""Regression tests: TPC-H estimate quality with histogram/MCV stats.

Q9 (``p_name LIKE '%pink%'``) and Q14 (``p_type LIKE 'PROMO%'``) were
the canonical ``\\explain+`` misestimates before ANALYZE collected
histograms and MCV lists: constant-LIKE selectivity fell back to a
magic 10% and the provenance join trees inherited the error.  With the
statistics-backed LIKE estimator every node of both plans must now
estimate within the instrument's 10× misestimate threshold.
"""

from __future__ import annotations

import re

import pytest

from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query


@pytest.fixture(scope="module")
def db():
    database = tpch_database(scale_factor=0.001, seed=42)
    database.execute("ANALYZE")
    return database


@pytest.mark.parametrize("number", (9, 14))
def test_like_queries_estimate_within_threshold(db, number):
    sql = generate_query(number, seed=7, provenance=True)
    text = db.explain(sql, analyze=True)
    flagged = [line for line in text.splitlines() if "misestimate" in line]
    assert not flagged, "\n".join(flagged)


def test_q9_part_scan_estimate_tracks_like_selectivity(db):
    """The filtered part scan's estimate comes from the pattern's MCV/
    histogram sample, not the 10% default (200 rows at this scale)."""
    sql = generate_query(9, seed=7, provenance=True)
    text = db.explain(sql, analyze=True)
    scans = [
        line
        for line in text.splitlines()
        if "SeqScan on part (filtered)" in line
    ]
    assert scans
    est, actual = map(
        int, re.search(r"est=(\d+) actual rows=(\d+)", scans[0]).groups()
    )
    assert actual <= est * 10 and est <= max(actual, 1) * 10


def test_scan_filter_project_operators_carry_estimates(db):
    """Acceptance shape: \\explain+ of a scan→filter→project chain shows
    the plain operators, each with a histogram-backed est= within the
    misestimate threshold of its actual rows."""
    text = db.explain(
        "SELECT l_orderkey, l_extendedprice * (1 - l_discount) "
        "FROM lineitem WHERE l_shipdate > date '1995-01-01' "
        "AND l_discount < 0.05",
        analyze=True,
    )
    plan = text.split("-- physical plan (analyzed, vectorized) --\n")[1]
    operators = [line for line in plan.splitlines() if line.lstrip().startswith("->")]
    assert [line.split("(")[0].strip() for line in operators] == [
        "-> ProjectNode",
        "-> SeqScan on lineitem",
    ]
    assert "SeqScan on lineitem (filtered)" in operators[1]
    for line in operators:
        est, actual = map(
            int, re.search(r"est=(\d+) actual rows=(\d+)", line).groups()
        )
        assert actual <= est * 10 and est <= max(actual, 1) * 10
    assert "misestimate" not in text
