"""The execution-backend protocol.

The paper's deployment model is that the provenance-rewritten query
``q+`` is *ordinary SQL* the host DBMS executes like any other query.
An :class:`ExecutionBackend` is one such host: it receives the analyzed
(and possibly provenance-rewritten) query tree after the Perm module ran
and returns the result rows.  The frontend pipeline — parser, analyzer,
view unfolding, provenance rewriter — is backend-independent, exactly as
in the DBMS-independent rewriting approach of Pintor et al.

Backends must be *faithful or loud*: a construct a backend cannot
execute with the engine's exact semantics raises
:class:`~repro.errors.BackendUnsupportedError` naming the feature.
Silently divergent results are never acceptable (the differential test
suite enforces this).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator

from repro.analyzer import expressions as ex
from repro.analyzer.query_tree import JoinTreeExpr, Query, RTEKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.catalog.catalog import Catalog
    from repro.database import QueryResult


class ExecutionBackend(ABC):
    """Executes analyzed/rewritten query trees against catalog data."""

    #: Registry name; subclasses override.
    name = "abstract"

    #: Whether ``run_select`` accepts engine-level execution controls
    #: (``snapshot=``/``timeout=`` keyword arguments).  Only in-process
    #: backends that interpret plans themselves can honor these.
    supports_execution_controls = False

    def __init__(self, catalog: "Catalog") -> None:
        self.catalog = catalog

    @abstractmethod
    def run_select(self, query: Query) -> "QueryResult":
        """Execute one analyzed (and provenance-rewritten) query tree."""

    def close(self) -> None:
        """Release backend resources (connections, mirrored data)."""

    def describe(self) -> str:
        """One-line human description for the CLI."""
        return self.name


# ---------------------------------------------------------------------------
# Query-tree inspection shared by data-shipping backends
# ---------------------------------------------------------------------------


def _query_expressions(query: Query) -> Iterator[ex.Expr]:
    for target in query.target_list:
        yield target.expr
    if query.jointree.quals is not None:
        yield query.jointree.quals
    stack = list(query.jointree.items)
    while stack:
        node = stack.pop()
        if isinstance(node, JoinTreeExpr):
            if node.quals is not None:
                yield node.quals
            stack.append(node.left)
            stack.append(node.right)
    yield from query.group_clause
    if query.having is not None:
        yield query.having
    if query.limit_count is not None:
        yield query.limit_count
    if query.limit_offset is not None:
        yield query.limit_offset


def collect_base_relations(query: Query) -> set[str]:
    """Names of all base relations a query tree reads, transitively.

    Descends into subquery range-table entries and into sublink
    subqueries inside expressions — everything a backend must have data
    for before it can execute the deparsed SQL.
    """
    found: set[str] = set()
    _collect(query, found)
    return found


def _collect(query: Query, found: set[str]) -> None:
    for rte in query.range_table:
        if rte.kind is RTEKind.RELATION and rte.relation_name:
            found.add(rte.relation_name)
        elif rte.subquery is not None:
            _collect(rte.subquery, found)
    for expr in _query_expressions(query):
        for node in ex.walk(expr):
            if isinstance(node, ex.SubLink):
                _collect(node.subquery, found)
