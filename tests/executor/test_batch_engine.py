"""Unit tests for the batch engine.

Covers the Chunk representation (selection vectors, dual backing),
batch expression kernels (3VL, short-circuit fidelity), node-level
batch behaviors, the per-execution state reset that makes prepared
plans re-runnable, ``explain(analyze=True)``, and the one-protocol
structure (no plan node has a row path of its own; the deleted
toggles survive only as ignored arguments and constants).
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro.catalog.schema import Column, TableSchema
from repro.datatypes import SQLType
from repro.errors import ExecutionError
from repro.executor.context import ExecContext
from repro.storage.chunk import Chunk, chunk_rows
from repro.storage.table import Table


# ---------------------------------------------------------------------------
# Chunk representation
# ---------------------------------------------------------------------------


def test_chunk_column_and_rows_roundtrip():
    chunk = Chunk.from_columns([[1, 2, 3], ["a", "b", "c"]], 3)
    assert len(chunk) == 3
    assert chunk.column(1) == ["a", "b", "c"]
    assert chunk.rows() == [(1, "a"), (2, "b"), (3, "c")]


def test_chunk_selection_vector_gathers_lazily():
    chunk = Chunk.from_columns([[1, 2, 3, 4], [10, 20, 30, 40]], 4)
    filtered = chunk.with_sel([0, 2])
    assert len(filtered) == 2
    assert filtered.column(1) == [10, 30]
    assert filtered.rows() == [(1, 10), (3, 30)]
    # The underlying columns are untouched (shared, not copied).
    assert filtered.physical_columns()[0] is chunk.physical_columns()[0]


def test_chunk_select_composes_selections():
    chunk = Chunk.from_columns([[0, 1, 2, 3, 4]], 5)
    first = chunk.with_sel([1, 2, 4])
    second = first.select([0, 2])  # logical positions into first
    assert second.rows() == [(1,), (4,)]


def test_chunk_row_backed_extracts_single_column():
    chunk = Chunk.from_rows([(1, "x"), (2, "y")], 2)
    assert chunk.is_row_backed()
    assert chunk.column(0) == [1, 2]
    assert chunk.column(1) == ["x", "y"]


def test_chunk_project_zero_copy_on_columns():
    chunk = Chunk.from_columns([[1], [2], [3]], 1)
    projected = chunk.project([2, 0])
    assert projected.rows() == [(3, 1)]
    assert projected.physical_columns()[0] is chunk.physical_columns()[2]


def test_chunk_phys_rows_shared_through_selection():
    heap_rows = [(1, "a"), (2, "b"), (3, "c")]
    chunk = Chunk(
        columns=[[1, 2, 3], ["a", "b", "c"]], nrows=3, phys_rows=heap_rows
    )
    filtered = chunk.with_sel([2, 0])
    rows = filtered.rows()
    assert rows == [(3, "c"), (1, "a")]
    assert rows[0] is heap_rows[2]  # original tuples, not rebuilt ones


def test_chunk_slice_and_compact():
    chunk = Chunk.from_columns([[0, 1, 2, 3]], 4).with_sel([1, 2, 3])
    assert chunk.slice(1, 3).rows() == [(2,), (3,)]
    compacted = chunk.compact()
    assert compacted.sel is None
    assert compacted.rows() == [(1,), (2,), (3,)]


def test_chunk_rows_rechunks_by_batch_size():
    chunks = list(chunk_rows([(i,) for i in range(10)], 1, batch_size=4))
    assert [len(c) for c in chunks] == [4, 4, 2]
    assert chunks[2].rows() == [(8,), (9,)]


def test_table_scan_chunks_narrow_and_batched():
    schema = TableSchema(
        "t", [Column("a", SQLType.INTEGER), Column("b", SQLType.TEXT)]
    )
    table = Table(schema, [(i, f"r{i}") for i in range(5)])
    chunks = list(table.scan_chunks(batch_size=2, columns=[1]))
    assert [len(c) for c in chunks] == [2, 2, 1]
    assert chunks[0].rows() == [("r0",), ("r1",)]
    # Single-batch scans hand out the cached columns without copying.
    (whole,) = table.scan_chunks(batch_size=100)
    assert whole.physical_columns()[0] is table.columnar()[0]


def test_table_columnar_cache_invalidated_by_insert():
    schema = TableSchema("t", [Column("a", SQLType.INTEGER)])
    table = Table(schema, [(1,)])
    assert table.columnar() == [[1]]
    table.insert((2,))
    assert table.columnar() == [[1, 2]]
    table.truncate()
    assert table.columnar() == [[]]


def test_table_columnar_cache_invalidated_by_truncate_same_count():
    # Regression: truncate() + reinserting the SAME number of rows must
    # not serve the pre-truncate columns (row count alone cannot tell;
    # the epoch can).
    schema = TableSchema("t", [Column("a", SQLType.INTEGER)])
    table = Table(schema, [(1,), (2,)])
    assert table.columnar() == [[1, 2]]
    table.truncate()
    table.insert_many([(10,), (20,)])
    assert table.columnar() == [[10, 20]]


def test_vectorized_scan_sees_truncate_and_reload():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    assert sorted(db.execute("SELECT a FROM t").rows) == [(1,), (2,)]
    db.catalog.table("t").truncate()
    db.execute("INSERT INTO t VALUES (10), (20)")
    assert sorted(db.execute("SELECT a FROM t").rows) == [(10,), (20,)]


# ---------------------------------------------------------------------------
# Batch kernels: 3VL and short-circuit fidelity
# ---------------------------------------------------------------------------


def _db():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b integer)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 0), (NULL, 5), (4, NULL)")
    return db


def test_batch_three_valued_comparison():
    rows = _db().execute("SELECT a > 1 FROM t").rows
    assert rows == [(False,), (True,), (None,), (True,)]


def test_batch_and_short_circuits_division():
    # Row semantics: b <> 0 fails first, so a / b never runs on b = 0.
    # The batch AND must preserve that via sub-selection evaluation.
    rows = _db().execute("SELECT a FROM t WHERE b <> 0 AND a / b >= 0").rows
    assert rows == [(1,)]


def test_batch_case_evaluates_only_matching_arms():
    rows = _db().execute(
        "SELECT CASE WHEN b = 0 THEN -1 ELSE a / b END FROM t WHERE a = 2"
    ).rows
    assert rows == [(-1,)]


def test_batch_division_by_zero_still_raises():
    with pytest.raises(ExecutionError):
        _db().execute("SELECT a / b FROM t")


def test_batch_in_list_with_null_semantics():
    rows = _db().execute("SELECT a IN (1, NULL) FROM t WHERE b = 5").rows
    assert rows == [(None,)]
    rows = _db().execute("SELECT a NOT IN (1, 2) FROM t").rows
    assert rows == [(False,), (False,), (None,), (True,)]


def test_batch_sort_null_ordering():
    rows = _db().execute("SELECT b FROM t ORDER BY b DESC NULLS LAST").rows
    assert rows == [(10,), (5,), (0,), (None,)]
    rows = _db().execute("SELECT b FROM t ORDER BY b").rows
    assert rows == [(0,), (5,), (10,), (None,)]


def test_batch_limit_offset_spanning_chunks():
    db = repro.connect()
    db.execute("CREATE TABLE n (v integer)")
    db.load_table("n", [(i,) for i in range(100)])
    rows = db.execute("SELECT v FROM n ORDER BY v LIMIT 5 OFFSET 97").rows
    assert rows == [(97,), (98,), (99,)]


def test_batch_grand_aggregate_on_empty_input():
    db = repro.connect()
    db.execute("CREATE TABLE e (v integer)")
    rows = db.execute("SELECT count(*), sum(v), avg(v) FROM e").rows
    assert rows == [(0, None, None)]


# ---------------------------------------------------------------------------
# Satellite: prepared statements re-execute against live data
# ---------------------------------------------------------------------------


def test_prepared_query_sees_mutations_after_prepare():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    prepared = db.prepare("SELECT a FROM t ORDER BY a")
    assert prepared.run().rows == [(1,), (2,)]
    db.execute("INSERT INTO t VALUES (3)")
    # PR-3 known limit (now fixed): per-plan caches made a re-run
    # return stale rows after table mutation.
    assert prepared.run().rows == [(1,), (2,), (3,)]


def test_prepared_query_refreshes_materialized_shared_subplans():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    # The two identical subqueries share one materialized subplan.
    sql = (
        "SELECT x.a, y.a FROM (SELECT a FROM t) AS x, (SELECT a FROM t) AS y "
        "WHERE x.a = y.a ORDER BY x.a"
    )
    prepared = db.prepare(sql)
    assert prepared.run().rows == [(1, 1), (2, 2)]
    db.execute("INSERT INTO t VALUES (5)")
    assert prepared.run().rows == [(1, 1), (2, 2), (5, 5)]


def test_prepared_query_refreshes_sublink_caches():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    prepared = db.prepare("SELECT a FROM t WHERE a = (SELECT max(a) FROM t)")
    assert prepared.run().rows == [(2,)]
    db.execute("INSERT INTO t VALUES (7)")
    assert prepared.run().rows == [(7,)]


def test_backend_plan_cache_invalidated_by_ddl():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1)")
    assert db.execute("SELECT a FROM t").rows == [(1,)]
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (a integer, b integer)")
    db.execute("INSERT INTO t VALUES (4, 5)")
    assert db.execute("SELECT * FROM t").rows == [(4, 5)]


def test_backend_plan_cache_keeps_a_hot_plan(monkeypatch):
    import repro.planner as planner_module

    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.execute("INSERT INTO t VALUES (1)")
    plans = []
    real_make_planner = planner_module.make_planner

    def counting_make_planner(*args, **kwargs):
        plans.append(1)
        return real_make_planner(*args, **kwargs)

    monkeypatch.setattr(planner_module, "make_planner", counting_make_planner)
    hot = db.compile_select("SELECT a FROM t")
    # More fresh trees than the cache holds, the hot one re-run between
    # each: recency, not insertion order, decides what is evicted.
    fresh = [db.compile_select(f"SELECT a + {i} FROM t") for i in range(70)]
    for tree in fresh:
        assert db.run_compiled(hot).rows == [(1,)]
        db.run_compiled(tree)
    assert len(plans) == 1 + len(fresh)


# ---------------------------------------------------------------------------
# Satellite: explain(analyze=True)
# ---------------------------------------------------------------------------


def test_explain_analyze_reports_rows_batches_and_time():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    db.load_table("t", [(i,) for i in range(50)])
    text = db.explain("SELECT a FROM t WHERE a < 10", analyze=True)
    assert "physical plan (analyzed, vectorized)" in text
    assert "actual rows=10" in text
    assert "batches=" in text
    assert "time=" in text
    assert "-- execution: 10 rows" in text


def test_explain_without_analyze_does_not_execute():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer)")
    text = db.explain("SELECT a FROM t")
    assert "actual rows" not in text


# ---------------------------------------------------------------------------
# One protocol
# ---------------------------------------------------------------------------


def _plan_node_classes():
    from repro.executor import nodes

    for value in vars(nodes).values():
        if (
            inspect.isclass(value)
            and issubclass(value, nodes.PlanNode)
            and value.__module__ == nodes.__name__
            and value is not nodes.PlanNode
        ):
            yield value


def test_no_plan_node_defines_its_own_row_path():
    classes = list(_plan_node_classes())
    assert len(classes) == 14  # every operator lives in nodes.py
    assert [cls.__name__ for cls in classes if "run" in vars(cls)] == []
    assert all("run_batches" in vars(cls) for cls in classes)


def test_run_adapter_yields_the_batch_rows():
    from repro.executor.nodes import FilterNode, ValuesNode

    values = ValuesNode([(1,), (2,), (3,)], ["v"])
    filtered = FilterNode(
        values, [lambda chunk, ctx: [v > 1 for v in chunk.column(0)]]
    )
    ctx = ExecContext(batch_size=2)
    assert list(filtered.run(ctx)) == [(2,), (3,)]


def test_connect_has_no_engine_mode_toggles():
    parameters = inspect.signature(repro.connect).parameters
    assert "vectorize" not in parameters
    assert "fuse_pipelines" not in parameters
    assert "cost_based" not in parameters
    assert "optimize" not in parameters
    assert "parallel_workers" not in parameters
    assert "parallel_executor" not in parameters
    assert len(parameters) == 8
    database_parameters = inspect.signature(repro.PermDatabase).parameters
    assert "vectorize" not in database_parameters
    assert "fuse_pipelines" not in database_parameters
    assert "cost_based" not in database_parameters
    assert "optimize" not in database_parameters
    assert "parallel_workers" not in database_parameters
    assert "parallel_executor" not in database_parameters
    db = repro.connect()
    assert not hasattr(db, "vectorize_enabled")
    assert not hasattr(db, "fuse_pipelines_enabled")
    assert not hasattr(db, "cost_based_enabled")
    assert not hasattr(db, "optimizer_enabled")
    assert not hasattr(db, "parallel_workers")
    assert not hasattr(db, "parallel_executor")
    with pytest.raises(TypeError):
        repro.connect(optimize=False)
    with pytest.raises(TypeError):
        repro.connect(parallel_workers=2)
    with pytest.raises(TypeError):
        repro.connect(parallel_executor="thread")


def test_deleted_modes_survive_only_as_ignored_surface():
    # The benchmark harness reaches the engine through these names.
    from repro.backends import PythonBackend
    from repro.parallel import resolve_worker_count
    from repro.planner import make_planner
    from repro.sql.parser import parse_sql
    from repro.tpch.dbgen import tpch_database
    from repro.tpch.qgen import generate_query

    assert PythonBackend.vectorize is True
    assert PythonBackend.fuse_pipelines is False  # no kernel is generated
    assert PythonBackend.cost_based is True
    assert ExecContext(vectorized=False).batch_size > 0

    db = tpch_database(scale_factor=0.001, seed=42)
    backend = db.backend
    assert (backend.parallel_workers, backend.parallel_executor) == (1, "serial")
    assert backend.morsel_size is None
    assert resolve_worker_count(backend.parallel_workers) == 1
    assert resolve_worker_count(None) == 1
    for sql in (
        generate_query(3, seed=7, provenance=True),
        "SELECT PROVENANCE n_name FROM nation WHERE n_regionkey = 1",
    ):
        (stmt,) = parse_sql(sql)
        query, _ = db._analyze_and_rewrite(stmt)
        legacy = make_planner(
            db.catalog, cost_based=False, vectorize=False, fuse_pipelines=False
        )
        explained = legacy.plan(query).explain()
        assert explained == make_planner(db.catalog).plan(query).explain()
    assert explained == "-> SliceNode\n  -> SeqScan on nation (filtered)"
