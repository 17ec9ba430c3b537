"""Dynamic-pattern LIKE: batch kernel instead of per-row fallback.

PR-4 left non-constant LIKE patterns on the row-closure fallback; the
batch compiler now evaluates the pattern column batch-wise and memoizes
one compiled regex per distinct pattern string.
"""

from __future__ import annotations

import repro
from repro.analyzer import expressions as ex
from repro.datatypes import SQLType
from repro.executor.context import ExecContext
from repro.executor.expr_eval import ExprCompiler
from repro.storage.chunk import Chunk


def _like_expr(negated: bool = False) -> ex.LikeTest:
    return ex.LikeTest(
        arg=ex.Var(varno=0, varattno=0, type=SQLType.TEXT, name="s"),
        pattern=ex.Var(varno=0, varattno=1, type=SQLType.TEXT, name="p"),
        negated=negated,
    )


def test_dynamic_pattern_gets_dedicated_batch_kernel():
    compiler = ExprCompiler({(0, 0): 0, (0, 1): 1})
    kernel = compiler._batch_LikeTest(_like_expr())
    assert kernel is not None  # previously: None -> per-row fallback

    chunk = Chunk(
        columns=[
            ["hello", "world", "hat", None, "x"],
            ["h%", "h%", "_a_", "x", None],
        ],
        nrows=5,
    )
    ctx = ExecContext()
    assert kernel(chunk, ctx) == [True, False, True, None, None]

    negated = compiler._batch_LikeTest(_like_expr(negated=True))
    assert negated(chunk, ctx) == [False, True, False, None, None]


def test_dynamic_like_on_sql():
    # Hand-computed: SQLite's LIKE is case-insensitive and has no
    # default escape character, so it cannot serve as the reference.
    db = repro.connect()
    db.execute("CREATE TABLE t (s text, p text)")
    db.execute(
        "INSERT INTO t VALUES "
        "('hello', 'h%'), ('world', 'h%'), ('hat', '_a_'), "
        "('100%', '100\\%'), (NULL, '%'), ('x', NULL)"
    )
    assert db.execute("SELECT s, p, s LIKE p FROM t").rows == [
        ("hello", "h%", True),
        ("world", "h%", False),
        ("hat", "_a_", True),
        ("100%", "100\\%", True),
        (None, "%", None),
        ("x", None, None),
    ]
    assert db.execute("SELECT s FROM t WHERE s NOT LIKE p").rows == [("world",)]
    assert db.execute("SELECT s FROM t WHERE s LIKE 'h' || '%'").rows == [
        ("hello",),
        ("hat",),
    ]


def test_repeated_patterns_share_compiled_regex():
    # The chunk-local memo must key on the pattern string: 10k rows with
    # 3 distinct patterns compile at most 3 regexes (observable only as
    # speed, so assert correctness at scale instead of timing).
    db = repro.connect()
    db.execute("CREATE TABLE t (s text, p text)")
    patterns = ["tag%", "%7", "_ag42"]
    rows = [(f"tag{i}", patterns[i % 3]) for i in range(10000)]
    db.catalog.table("t").insert_many(rows)
    got = db.execute("SELECT count(*) FROM t WHERE s LIKE p").scalar()
    expected = sum(
        1
        for s, p in rows
        if (p == "tag%" and s.startswith("tag"))
        or (p == "%7" and s.endswith("7"))
        or (p == "_ag42" and len(s) == 5 and s[1:] == "ag42")
    )
    assert got == expected
