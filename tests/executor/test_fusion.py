"""Unit tests for pipeline-fused kernel codegen (repro.executor.fusion).

Results are checked against SQLite in tests/backends/test_differential.py
(including random scan→filter→project pipelines).  Here every fused
kernel is also checked against the operator chain it replaced: each
:class:`FusedPipelineNode` keeps that chain as ``fallback``, and
:func:`assert_fused_kernels_match_fallbacks` runs both on the same
data.  The remaining tests pin the mechanics: which chains fuse, which
fall back, and that the fused node composes with EXPLAIN
instrumentation.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.executor.context import ExecContext
from repro.executor.fusion import FusedPipelineNode, fuse_pipelines
from repro.executor.nodes import PlanNode, SeqScan, run_plan_rows
from repro.sql.parser import parse_sql

from tests.backends.test_differential import (
    _pipeline_rows,
    pipeline_setup,
    pipelines,
)


def _fused_nodes(plan: PlanNode) -> list[FusedPipelineNode]:
    found = [plan] if isinstance(plan, FusedPipelineNode) else []
    for child in plan.children():
        found += _fused_nodes(child)
    return found


def _plan(db: repro.PermDatabase, sql: str) -> PlanNode:
    (stmt,) = parse_sql(sql)
    query, _ = db._analyze_and_rewrite(stmt)
    return db.backend._plan(query)


def assert_fused_kernels_match_fallbacks(db: repro.PermDatabase, sql: str) -> int:
    """Run every fused kernel of ``sql``'s plan and the operator chain it
    replaced (``fallback``) on the same data; their row bags must be
    equal.  Returns the number of fused nodes checked."""
    fused = _fused_nodes(_plan(db, sql))
    for node in fused:
        kernel_rows = run_plan_rows(node, ExecContext())
        chain_rows = run_plan_rows(node.fallback, ExecContext())
        assert Counter(kernel_rows) == Counter(chain_rows), (sql, node.source)
    return len(fused)


@pytest.fixture()
def db():
    database = repro.connect()
    database.execute("CREATE TABLE t (a integer, b integer, s text)")
    database.execute(
        "INSERT INTO t VALUES (1, 2, 'ab'), (3, 4, 'ba'), "
        "(NULL, 5, NULL), (7, 0, 'abc')"
    )
    return database


def test_explain_shows_fused_boundary(db):
    plan = db.explain("SELECT a + b FROM t WHERE a > 1 AND b < 5")
    assert "FusedPipeline [2 preds -> 1 cols]" in plan
    assert "SeqScan on t" in plan


def test_fused_results_correct(db):
    result = db.execute("SELECT a + b FROM t WHERE a > 1 AND b < 5")
    assert sorted(result.rows) == [(7,), (7,)]


def test_explain_analyze_instruments_fused_node(db):
    plan = db.explain("SELECT a FROM t WHERE a > 1", analyze=True)
    assert "FusedPipeline" in plan
    assert "actual rows=2" in plan


def test_fused_kernel_matches_its_fallback_chain(db):
    sql = "SELECT a + b FROM t WHERE a > 1 AND b < 5"
    assert assert_fused_kernels_match_fallbacks(db, sql) == 1
    # The fallback chain is the scan→filter→project the kernel replaced.
    (node,) = _fused_nodes(_plan(db, sql))
    assert node.fallback.label() == "ProjectNode"
    assert sorted(node.fallback.run(ExecContext())) == [(7,), (7,)]


@given(rows=_pipeline_rows, sql=pipelines())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_random_pipelines_match_their_fallback_chains(rows, sql):
    db = repro.connect()
    pipeline_setup(rows)(db)
    assert_fused_kernels_match_fallbacks(db, sql)


def test_witness_pipelines_fuse_and_match_fallbacks(db):
    # Provenance twins fuse too: the witness columns ride the kernel.
    sql = "SELECT PROVENANCE a, s FROM t WHERE a > 1 AND s LIKE 'a%'"
    assert assert_fused_kernels_match_fallbacks(db, sql) == 1


def test_projection_only_chain_not_fused(db):
    # No predicate: nothing to fuse — the zero-copy column paths of the
    # per-operator pipeline are already optimal.
    assert "FusedPipeline" not in db.explain("SELECT a FROM t")


def test_sublink_predicate_is_not_fused(db):
    # A sublink in WHERE has no inline source form: the emitter raises
    # NotFusible and the chain keeps its per-operator execution.
    sql = "SELECT a FROM t WHERE a = (SELECT min(b) FROM t)"
    assert "FusedPipeline" not in db.explain(sql)
    assert db.execute(sql).rows == []


def test_fused_node_run_adapter_matches_batches(db):
    # ``run`` is the base class's row adapter over the fused kernel.
    plan = _plan(db, "SELECT a + b FROM t WHERE a > 1 AND b < 5")
    assert isinstance(plan, FusedPipelineNode)
    rows = list(plan.run(ExecContext()))
    assert sorted(rows) == sorted(run_plan_rows(plan, ExecContext())) == [(7,), (7,)]


def test_fuse_pass_leaves_unfusible_plans_alone(db):
    scan = SeqScan(db.catalog.table("t"), ["a", "b", "s"])
    assert fuse_pipelines(scan) is scan


def test_shell_has_no_fusion_toggle(capsys):
    from repro.__main__ import _handle_meta

    db = repro.connect()
    assert _handle_meta(db, "\\fuse off") is True
    assert "unknown meta command" in capsys.readouterr().out
