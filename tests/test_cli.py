"""CLI smoke tests (python -m repro)."""

from __future__ import annotations

import argparse
import re
import subprocess
import sys

import pytest

import repro
from repro.__main__ import _build_database
from repro.tpch.qgen import generate_query


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_single_command_mode():
    result = run_cli("--example", "-c", "SELECT name FROM shop ORDER BY name")
    assert result.returncode == 0
    assert "Joba" in result.stdout
    assert "Merdies" in result.stdout


def test_provenance_command():
    result = run_cli(
        "--example",
        "-c",
        "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
    )
    assert result.returncode == 0
    assert "prov_shop_name" in result.stdout


def test_error_exit_code():
    result = run_cli("--example", "-c", "SELECT zzz FROM shop")
    assert result.returncode == 1
    assert "error" in result.stderr


def test_ddl_command_tag():
    result = run_cli("-c", "CREATE TABLE t (a integer)")
    assert result.returncode == 0
    assert "CREATE TABLE" in result.stdout


def test_interactive_optimize_and_stats():
    script = (
        "\\optimize off\n"
        "\\parallel 2\n"
        "SELECT name FROM shop;\n"
        "\\stats\n"
        "\\explain SELECT PROVENANCE name FROM shop\n"
        "\\q\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--example"],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    # The optimizer always runs and execution is always serial: there
    # is no switch for either.
    assert "unknown meta command '\\\\optimize'" in result.stdout
    assert "unknown meta command '\\\\parallel'" in result.stdout
    assert "Merdies" in result.stdout
    assert "prepared-statement cache:" in result.stdout
    assert "after optimization" in result.stdout


@pytest.mark.parametrize("meta", ["\\d", "\\q"])
def test_interactive_meta_commands(meta):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--example"],
        input=f"{meta}\n\\q\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0


def test_interactive_query_and_rewrite():
    script = (
        "SELECT name FROM shop;\n"
        "\\rewrite SELECT PROVENANCE name FROM shop\n"
        "\\q\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--example"],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "Merdies" in result.stdout
    assert "prov_shop_name" in result.stdout


def test_polynomial_provenance_command():
    result = run_cli(
        "--example",
        "-c",
        "SELECT PROVENANCE (polynomial) name FROM shop WHERE numempl < 10",
    )
    assert result.returncode == 0
    assert "prov_polynomial" in result.stdout
    assert "shop(Merdies,3)" in result.stdout


def test_no_vectorize_flag_is_gone():
    # There is one engine, one serial execution path, one planner and an
    # optimizer that always runs, so there is no flag to choose another
    # path.
    for flag in (
        "--no-vectorize", "--no-cost-based", "--no-optimize",
        "--workers=2", "--executor=thread",
    ):
        result = run_cli(
            "--example", flag,
            "-c", "SELECT PROVENANCE name FROM shop WHERE numempl < 10",
        )
        assert result.returncode == 2
        assert f"unrecognized arguments: {flag}" in result.stderr


def test_shell_has_no_fusion_toggle(capsys):
    from repro.__main__ import _handle_meta

    db = repro.connect()
    assert _handle_meta(db, "\\fuse off") is True
    assert "unknown meta command" in capsys.readouterr().out


def test_interactive_explain_analyze():
    script = (
        "\\vectorize off\n"
        "\\costbased off\n"
        "SELECT name FROM shop;\n"
        "\\explain+ SELECT PROVENANCE name FROM shop\n"
        "\\q\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--example"],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "unknown meta command '\\\\vectorize'" in result.stdout
    assert "unknown meta command '\\\\costbased'" in result.stdout
    assert "Merdies" in result.stdout
    assert "physical plan (analyzed, vectorized)" in result.stdout
    assert "actual rows=" in result.stdout


def test_analyze_statement_command():
    result = run_cli("--example", "-c", "ANALYZE shop")
    assert result.returncode == 0
    assert "shop" in result.stdout


def test_interactive_analyze_and_stats():
    script = (
        "SELECT name FROM shop;\n"
        "\\analyze\n"
        "\\stats\n"
        "\\explain+ SELECT PROVENANCE name, sum(itemid) FROM shop, sales "
        "WHERE name = sname GROUP BY name\n"
        "\\q\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--example"],
        input=script,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "analyzed shop" in result.stdout
    assert "table statistics:" in result.stdout
    assert "est=" in result.stdout
    assert "actual rows=" in result.stdout


def test_tpch_database_is_analyzed_and_plans_q5_without_blowup():
    args = argparse.Namespace(
        tpch=0.005, example=False, backend="python",
        shards=None, shard_key=None, wal_dir=None, wal_sync="always",
    )
    db = _build_database(args)
    assert {stats.table_name for stats in db.catalog.analyzed_tables()} == {
        "customer", "lineitem", "nation", "orders",
        "part", "partsupp", "region", "supplier",
    }
    # Without statistics every Q5 join estimate is one row, and the
    # planner joins customer to supplier on nation before it reaches
    # orders: an intermediate several times the size of lineitem.
    lineitem = db.catalog.table("lineitem").row_count()
    for provenance in (False, True):
        text = db.explain(generate_query(5, seed=42, provenance=provenance), analyze=True)
        rows = [int(n) for n in re.findall(r"actual rows=(\d+)", text)]
        assert rows and max(rows) <= lineitem
