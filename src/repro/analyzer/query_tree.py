"""PostgreSQL-style query trees.

The paper (section IV-B) describes the representation Perm rewrites:

    "the result of the SQL-parser is a so-called query tree.  Each query
    node in the query tree represents one or more relational algebra
    operators.  The main components of a query node are the target list,
    the range table and the set operation tree."

This module defines exactly that structure:

* :class:`Query` — one query node,
* :class:`TargetEntry` — one target-list item,
* :class:`RangeTableEntry` — a base relation or a subquery,
* :class:`FromExpr` / :class:`JoinTreeNode` — the join tree with WHERE quals,
* :class:`SetOpNode` / :class:`SetOpRangeRef` — the set operation tree.

Query nodes classify themselves as SPJ, ASPJ or set-operation nodes
(:meth:`Query.node_class`), which is the case distinction the rewrite
algorithm of Fig. 7 makes.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.catalog.schema import TableSchema
from repro.datatypes import SQLType
from repro.analyzer.expressions import Expr, Var


@dataclass
class TargetEntry:
    """One select-list entry of a query node.

    ``resjunk`` entries exist only to feed ORDER BY and are not part of the
    visible result (same device as PostgreSQL).
    """

    expr: Expr
    name: str
    resjunk: bool = False

    def __repr__(self) -> str:
        junk = ", junk" if self.resjunk else ""
        return f"TargetEntry({self.name!r} = {self.expr}{junk})"


class RTEKind(enum.Enum):
    RELATION = "relation"
    SUBQUERY = "subquery"


@dataclass
class RangeTableEntry:
    """A FROM-clause item after analysis: a base relation or a subquery.

    Views are unfolded into SUBQUERY entries by the analyzer before the
    provenance rewriter runs (paper Fig. 5).

    Provenance-specific fields (SQL-PLE, section IV-A):

    * ``provenance_attrs`` — names of attributes holding already-computed
      (external/incremental) provenance; the rewriter treats the entry as
      already rewritten.
    * ``base_relation`` — the BASERELATION marker: the rewriter applies R1
      to this entry instead of descending into it.

    Optimizer annotation (physical-only, set by projection pruning):

    * ``used_attnos`` — for RELATION entries, the attribute numbers the
      query actually references; the planner narrows the ``SeqScan``
      accordingly.  ``None`` means "all columns".  Var numbering and the
      deparser always use the relation's full schema.
    """

    kind: RTEKind
    alias: str  # reference name used for qualified lookups
    column_names: list[str]
    column_types: list[SQLType]
    relation_name: Optional[str] = None  # for RELATION entries
    schema: Optional[TableSchema] = None  # for RELATION entries
    subquery: Optional["Query"] = None  # for SUBQUERY entries
    provenance_attrs: Optional[tuple[str, ...]] = None
    base_relation: bool = False
    used_attnos: Optional[frozenset[int]] = None

    def width(self) -> int:
        return len(self.column_names)

    def __repr__(self) -> str:
        if self.kind is RTEKind.RELATION:
            return f"RTE(rel {self.relation_name!r} as {self.alias!r})"
        return f"RTE(subquery as {self.alias!r})"


# ---------------------------------------------------------------------------
# Join tree
# ---------------------------------------------------------------------------


@dataclass
class RangeTableRef:
    """Leaf of the join tree: points into the range table by index."""

    rtindex: int

    def __repr__(self) -> str:
        return f"RTRef({self.rtindex})"


@dataclass
class JoinTreeExpr:
    """An explicit join inside the FROM clause."""

    join_type: str  # 'inner' | 'left' | 'right' | 'full' | 'cross'
    left: "JoinTreeNode"
    right: "JoinTreeNode"
    quals: Optional[Expr] = None  # ON condition

    def __repr__(self) -> str:
        return f"Join({self.join_type}, {self.left}, {self.right}, on={self.quals})"


JoinTreeNode = Union[RangeTableRef, JoinTreeExpr]


@dataclass
class FromExpr:
    """The full FROM/WHERE component: implicit crossproduct of ``items``
    filtered by ``quals``."""

    items: list[JoinTreeNode] = field(default_factory=list)
    quals: Optional[Expr] = None


def jointree_rtindexes(node: JoinTreeNode) -> list[int]:
    """All range-table indexes referenced under a join-tree node."""
    if isinstance(node, RangeTableRef):
        return [node.rtindex]
    return jointree_rtindexes(node.left) + jointree_rtindexes(node.right)


# ---------------------------------------------------------------------------
# Set operation tree
# ---------------------------------------------------------------------------


@dataclass
class SetOpRangeRef:
    """Leaf of a set operation tree: a range table entry (a subquery)."""

    rtindex: int


@dataclass
class SetOpNode:
    op: str  # 'union' | 'intersect' | 'except'
    all: bool
    left: "SetOpTreeNode"
    right: "SetOpTreeNode"


SetOpTreeNode = Union[SetOpRangeRef, SetOpNode]


def setop_tree_contains_except(node: SetOpTreeNode) -> bool:
    if isinstance(node, SetOpRangeRef):
        return False
    if node.op == "except":
        return True
    return setop_tree_contains_except(node.left) or setop_tree_contains_except(node.right)


def setop_leaf_indexes(node: SetOpTreeNode) -> list[int]:
    if isinstance(node, SetOpRangeRef):
        return [node.rtindex]
    return setop_leaf_indexes(node.left) + setop_leaf_indexes(node.right)


# ---------------------------------------------------------------------------
# Sort clause
# ---------------------------------------------------------------------------


@dataclass
class SortClause:
    """ORDER BY entry referencing a target-list position."""

    tlist_index: int  # index into Query.target_list
    descending: bool = False
    nulls_first: Optional[bool] = None


# ---------------------------------------------------------------------------
# The query node
# ---------------------------------------------------------------------------


class QueryNodeClass(enum.Enum):
    """The three rewrite cases of the paper (section IV-B)."""

    SPJ = "spj"
    ASPJ = "aspj"
    SETOP = "setop"


@dataclass
class Query:
    """One analyzed query node.

    For set-operation queries, ``set_operations`` is set, the range table
    holds the leaf subqueries and ``target_list`` contains plain Vars over
    the first leaf.  Otherwise the node is an (A)SPJ node described by
    target list, range table, join tree, grouping and having.
    """

    target_list: list[TargetEntry] = field(default_factory=list)
    range_table: list[RangeTableEntry] = field(default_factory=list)
    jointree: FromExpr = field(default_factory=FromExpr)
    group_clause: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    distinct: bool = False
    has_aggs: bool = False
    set_operations: Optional[SetOpTreeNode] = None
    sort_clause: list[SortClause] = field(default_factory=list)
    limit_count: Optional[Expr] = None
    limit_offset: Optional[Expr] = None
    # Optimizer annotation (physical-only, set by aggregation-join
    # fusion): each ``(agg_rtindex, prov_rtindex, agg_key_positions)``
    # entry marks a pair of subquery RTEs joined on null-safe group-key
    # equality whose FROM/WHERE cores are bag-equivalent — the provenance
    # rewriter's ``q_agg ⋈ d+`` pattern.  The planner evaluates each
    # pair's shared core once and joins the aggregate back onto it; the
    # deparser ignores the hint (the tree stays an ordinary SQL join).
    agg_shares: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)
    # Optimizer annotation (physical-only, set by subplan-sharing
    # detection): this query node is a closed subquery that appears,
    # structurally identical, more than once in the statement — the
    # planner plans one shared, materialized instance for the whole group.
    share_candidate: bool = False
    # SQL-PLE: marked for provenance rewrite (SELECT PROVENANCE).
    provenance: bool = False
    # Which rewrite strategy computes the provenance (None = the default
    # witness-list semantics; "polynomial" = semiring annotations, ...).
    provenance_type: Optional[str] = None
    # Name of a single annotation-carrying output column (set by rewrite
    # strategies that produce one, e.g. the polynomial strategy).
    annotation_column: Optional[str] = None
    into: Optional[str] = None

    # -- classification -------------------------------------------------------

    def node_class(self) -> QueryNodeClass:
        if self.set_operations is not None:
            return QueryNodeClass.SETOP
        if self.has_aggs or self.group_clause:
            return QueryNodeClass.ASPJ
        return QueryNodeClass.SPJ

    # -- result schema ---------------------------------------------------------

    @property
    def visible_targets(self) -> list[TargetEntry]:
        return [t for t in self.target_list if not t.resjunk]

    def visible_position(self, tlist_index: int) -> int:
        """Output position of target ``tlist_index`` (junk entries removed)."""
        return sum(1 for t in self.target_list[:tlist_index] if not t.resjunk)

    def output_columns(self) -> list[str]:
        return [t.name for t in self.visible_targets]

    def output_types(self) -> list[SQLType]:
        return [t.expr.type for t in self.visible_targets]

    # -- helpers ---------------------------------------------------------------

    def rte(self, index: int) -> RangeTableEntry:
        return self.range_table[index]

    def add_rte(self, rte: RangeTableEntry) -> int:
        """Append a range table entry, returning its index."""
        self.range_table.append(rte)
        return len(self.range_table) - 1

    def deep_copy(self) -> "Query":
        """A fully independent copy (used by the ASPJ duplicate step)."""
        return copy.deepcopy(self)

    def __repr__(self) -> str:
        cls = self.node_class().value
        return (
            f"Query({cls}, targets={[t.name for t in self.target_list]}, "
            f"rtes={len(self.range_table)}, provenance={self.provenance})"
        )


def subquery_rte(subquery: Query, alias: str) -> RangeTableEntry:
    """Wrap a query node as a subquery range table entry."""
    return RangeTableEntry(
        kind=RTEKind.SUBQUERY,
        alias=alias,
        column_names=list(subquery.output_columns()),
        column_types=list(subquery.output_types()),
        subquery=subquery,
    )


def binary_setop_query(op: str, all_flag: bool, left: Query, right: Query) -> Query:
    """A fresh binary set-operation query node over two subqueries."""
    q = Query()
    left_rte = subquery_rte(left, alias="*setop*0")
    right_rte = subquery_rte(right, alias="*setop*1")
    left_index = q.add_rte(left_rte)
    q.add_rte(right_rte)
    q.set_operations = SetOpNode(
        op=op,
        all=all_flag,
        left=SetOpRangeRef(left_index),
        right=SetOpRangeRef(left_index + 1),
    )
    for attno, (column, col_type) in enumerate(
        zip(left_rte.column_names, left_rte.column_types)
    ):
        q.target_list.append(
            TargetEntry(
                expr=Var(varno=left_index, varattno=attno, type=col_type, name=column),
                name=column,
            )
        )
    return q


def make_var_for_rte_column(
    query: Query, rtindex: int, attno: int, levelsup: int = 0
) -> Var:
    """Build a Var referencing column ``attno`` of range table entry ``rtindex``."""
    rte = query.range_table[rtindex]
    return Var(
        varno=rtindex,
        varattno=attno,
        type=rte.column_types[attno],
        name=rte.column_names[attno],
        levelsup=levelsup,
    )


def level_exprs(query: Query) -> Iterator[Expr]:
    """Read-only iteration over the expressions owned by ``query`` itself
    (not those of its subqueries or sublink queries)."""
    for target in query.target_list:
        yield target.expr
    if query.jointree.quals is not None:
        yield query.jointree.quals
    stack: list[JoinTreeNode] = list(query.jointree.items)
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
