"""Smoke tests of the benchmark harness itself (not collected by tier-1,
whose ``testpaths`` is ``tests``)::

    python3 -m pytest -q benchmarks/e2e/test_harness.py

Two ``run.py --quick`` sweeps (scale factors / 5, one pass) back the
checks that need real output; each stays under 30 s.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per-layer metrics that are counts of work, not times: they must repeat
#: exactly from run to run (README marks them with ``#``).
EXACT_COUNTS = [
    "sql.parse_stmts", "sql.deparse_bytes", "analyzer.rtes", "core.prov_columns",
    "semiring.poly_terms", "optimizer.nodes_in", "optimizer.nodes_out", "planner.plan_nodes",
    "planner.fused_nodes", "planner.exchange_nodes", "executor.rows_out", "executor.rows_scanned",
    "backends.sqlite_rows_shipped", "sharding.pruned_ratio", "sharding.fallback_ratio",
    "sharding.delta_rows", "server.overloads", "server.timeouts", "wal.bytes_per_stmt",
    "wal.fsyncs_per_stmt", "matview.incremental_ratio",
]


def quick_run(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.DEVNULL, timeout=120,
    )
    assert done.returncode == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory) -> list[dict]:
    tmp_path = tmp_path_factory.mktemp("e2e")
    return [quick_run(tmp_path, "first"), quick_run(tmp_path, "second")]


def test_benchmark_json_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(EXACT_COUNTS) <= {m["name"] for m in SPEC["per_layer"]}


def test_emitted_names_equal_benchmark_json(quick_runs):
    summary = quick_runs[0]
    assert summary["claim"] is None
    assert list(summary["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for entry in summary["workloads"].values():
        assert list(entry["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(entry["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        assert entry["correct_trace0"] and entry["correct_trace1"]
        assert all(value > 0 for value in entry["end_to_end"].values())


def test_counts_repeat_exactly(quick_runs):
    first, second = quick_runs
    for workload in first["workloads"]:
        for name in EXACT_COUNTS:
            a = first["workloads"][workload]["per_layer"][name]
            b = second["workloads"][workload]["per_layer"][name]
            assert a == b, (workload, name, a, b)


def test_span_self_time_arithmetic():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 9.0, 11.0, 12.0])
    real = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        with tracer.statement("s1"):               # 0 .. 12
            with tracer.span("a"):                 #   1 .. 8
                with tracer.span("b"):             #     2 .. 4
                    pass
                with tracer.span("b"):             #     5 .. 7
                    pass
            with tracer.span(tracing.INSTRUMENT):  #   9 .. 11
                pass
    finally:
        tracing.time.perf_counter = real
    by_start = {span["start"]: index for index, span in enumerate(tracer.spans)}
    assert tracer.spans[by_start[2.0]]["parent"] == by_start[1.0]
    assert tracer.spans[by_start[1.0]]["parent"] == by_start[0.0]
    assert all(span["stmt_id"] == "s1" for span in tracer.spans)
    assert tracer.totals()["b"] == 4.0
    assert tracer.self_times()["a"] == 7.0 - 4.0
    assert tracer.self_times()[tracing.STATEMENT] == 12.0 - 7.0 - 2.0
    # 10 s of statement wall once instrumentation is taken out, 3 s uncovered
    assert tracer.coverage() == pytest.approx(1 - 3.0 / 10.0)


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1) == "worse"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.1) == "better"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "higher", 0.1) == "worse"
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1) == "same"
    assert compare.verdict(steady[:3], [v * 0.7 for v in steady[:3]], "lower", 0.1) == "same"
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 13.0, 8.0]
    assert compare.verdict(noisy, steady, "lower", 0.1) == "unresolved"
