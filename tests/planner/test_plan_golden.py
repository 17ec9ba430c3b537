"""Plans did not change: every pinned statement still plans to the join
tree stored in ``tests/planner/golden/plans.json`` — shape byte for byte,
estimates at 1e-9 relative (see ``golden/generate.py`` for the case list,
the rendering and how to regenerate)."""

from __future__ import annotations

import json

import pytest

from tests.planner.golden.generate import GOLDEN_PATH, RELATIVE_TOLERANCE, rendered


@pytest.fixture(scope="module")
def plans():
    return rendered()


def test_same_statements_are_pinned(plans):
    stored = json.loads(GOLDEN_PATH.read_text())
    assert sorted(plans) == sorted(stored)
    # A golden of nothing would pass trivially: the witness shapes the
    # join enumeration exists for must be in it, joins and all.
    assert stored["spj8.witness"]["shape"].count("HashJoin") == 7
    assert stored["setop_mixed8.witness"]["shape"].count("HashJoin") >= 8


def test_deleted_planner_modes_plan_the_golden_bytes():
    # ``cost_based``, ``vectorize``, ``fuse_pipelines`` and the morsel
    # parallelism keywords are accepted and ignored (the benchmark
    # harness still passes them), so planning through them must
    # reproduce the stored file byte for byte.
    legacy = rendered(
        cost_based=False,
        vectorize=False,
        fuse_pipelines=False,
        parallel_workers=4,
        parallel_executor="process",
        morsel_size=16,
    )
    text = json.dumps(legacy, indent=1, sort_keys=True) + "\n"
    assert text == GOLDEN_PATH.read_text()


def test_plan_shapes_and_estimates_match_golden(plans):
    stored = json.loads(GOLDEN_PATH.read_text())
    for name, entry in plans.items():
        golden = stored[name]
        assert entry["sql"] == golden["sql"], name
        assert entry["shape"] == golden["shape"], name
        assert entry["estimates"] == pytest.approx(
            golden["estimates"], rel=RELATIVE_TOLERANCE, abs=0.0
        ), name
