"""The frontend of paper Fig. 5, spelled once::

    parser & analyzer -> provenance rewriter -> optimizer

Perm's ``q+`` is an ordinary query, so the host's optimization phase
always runs on it.  :func:`frontend` is the one place the stages are
chained: statement execution, ``explain``, ``rewritten_sql`` and
materialized-view maintenance all drive it, over the live catalog or a
shadow one.
"""

from __future__ import annotations

from typing import Iterator

from repro.analyzer.analyzer import Analyzer
from repro.analyzer.query_tree import Query
from repro.core.rewriter import traverse_query_tree
from repro.errors import PermError
from repro.optimizer import optimize_query_tree
from repro.sql import ast
from repro.sql.parser import parse_sql


def parse_select(sql: str, caller: str) -> ast.SelectNode:
    """Parse ``sql``, which must be exactly one SELECT."""
    statements = parse_sql(sql)
    if len(statements) != 1 or not isinstance(
        statements[0], (ast.SelectStmt, ast.SetOpSelect)
    ):
        raise PermError(f"{caller}() expects a single SELECT statement")
    return statements[0]


def frontend(catalog, stmt: ast.SelectNode, rewrite: bool = True) -> Iterator[Query]:
    """Yield ``stmt``'s tree after each stage: analyzed, provenance-
    rewritten (left as analyzed when ``rewrite`` is false: the paper's
    Fig. 9 configuration without the Perm module), optimized.

    The optimizer works in place, so a caller that wants the rewritten
    tree as such reads it before advancing to the last stage.
    """
    query = Analyzer(catalog).analyze(stmt)
    yield query
    if rewrite:
        query = traverse_query_tree(query)
    yield query
    yield optimize_query_tree(query)
