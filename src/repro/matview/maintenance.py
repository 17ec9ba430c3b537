"""Refresh machinery for materialized provenance views.

Two maintenance paths keep a view's stored rows equal to what re-running
its definition would return:

**Full refresh** re-runs the provenance-rewritten definition through the
in-process engine under a snapshot matching the dependency states being
recorded, so the stored rows and the recorded ``(epoch, row count)`` per
base table can never disagree — even while concurrent writers append.

**Incremental (delta) maintenance** consumes the per-statement delta log
(:class:`repro.storage.table.TableDelta`) and exploits that the
rewritten form of an eligible view — select/project/join and ``UNION
ALL``, each base table referenced once — is *multilinear* in its base
tables: with ``T'ᵢ = Tᵢ + Δᵢ`` (signed bag deltas),

    ΔV = Σ_{∅≠S⊆changed} (−1)^{|S|+1} · Q(Δᵢ for i∈S, T'ⱼ for j∉S)

which references only *new* table states — the old heap no longer
exists after deletes, so the classical expansion over old states is not
evaluable here.  Each term runs the unchanged rewritten query against a
shadow catalog that swaps the subset's tables for small delta heaps.

Merging the signed terms into the stored state is where the semiring
structure earns its keep:

* polynomial semantics merges per visible tuple with N[X] addition and
  :meth:`~repro.semiring.polynomial.Polynomial.monus`.  Monus is only
  the exact inverse of addition when the subtrahend is covered
  coefficient-wise (the semiring's natural order), so every subtraction
  is guarded by ``covers()`` — an uncovered delete means the log and the
  stored state disagree and the view falls back to a full refresh;
* witness semantics merges whole annotated rows as a counted bag; a
  negative count is the same disagreement and triggers the same
  fallback.

Anything the algebra cannot maintain exactly — aggregation, DISTINCT,
set difference/intersection, sublinks, self-joins, a pruned delta log,
writes that bypassed the log — is detected and answered with a full
refresh, never with silently wrong rows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Optional

from repro.analyzer import expressions as ex
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.query_tree import JoinTreeExpr, Query, RTEKind
from repro.errors import ExecutionError, PermError
from repro.executor.context import ExecContext
from repro.matview.view import DependencyState, MaterializedProvenanceView
from repro.planner import make_planner
from repro.semiring.polynomial import Polynomial
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database import PermDatabase

#: Inclusion-exclusion evaluates up to ``3^k − 1`` signed terms for
#: ``k`` changed tables; past this many changed tables a full refresh
#: is both simpler and almost certainly cheaper.
MAX_DELTA_TABLES = 3

#: Refresh retries when a concurrent TRUNCATE/DELETE invalidates the
#: snapshot mid-refresh before giving up.
_REFRESH_RETRIES = 5

#: Semantics whose merge algebra is implemented; anything else is
#: correct-but-full-refresh.
_INCREMENTAL_SEMANTICS = ("witness", "polynomial")


# ---------------------------------------------------------------------------
# Entry points (caller holds view.lock)
# ---------------------------------------------------------------------------


def ensure_fresh(db: "PermDatabase", view: MaterializedProvenanceView) -> str:
    """Bring a view up to date; returns ``'fresh'``, ``'incremental'``
    or ``'full'`` describing what was needed."""
    view.check_dependencies(db.catalog)
    if view.is_current(db.catalog):
        return "fresh"
    if view.incremental_eligible:
        if incremental_refresh(db, view):
            return "incremental"
    full_refresh(db, view)
    return "full"


def full_refresh(db: "PermDatabase", view: MaterializedProvenanceView) -> None:
    """Recompute the view from scratch and re-anchor its dependencies."""
    view.check_dependencies(db.catalog)
    last_error: Optional[ExecutionError] = None
    for _ in range(_REFRESH_RETRIES):
        deps, snapshot = _capture_dependencies(db, view)
        try:
            pre, rewritten, columns, rows = _evaluate(
                view.statement, db.catalog, snapshot
            )
        except ExecutionError as exc:
            if str(exc).startswith("snapshot too old"):
                last_error = exc
                continue  # a writer moved a heap mid-refresh; recapture
            raise
        view.columns = columns
        view.rows = list(rows)
        view.annotation_column = rewritten.annotation_column
        view.deps = deps
        view.full_refreshes += 1
        _classify(view, pre, rewritten)
        _index_stored_state(view)
        return
    raise last_error  # pragma: no cover - needs a pathological writer


def incremental_refresh(
    db: "PermDatabase", view: MaterializedProvenanceView
) -> bool:
    """Apply logged base-table deltas to the stored rows.

    Returns False — with the stored state untouched — whenever the log
    cannot prove the result exact; the caller then falls back to
    :func:`full_refresh`.
    """
    catalog = db.catalog
    changed: dict[str, tuple[Table, list[tuple], list[tuple]]] = {}
    new_deps: dict[str, DependencyState] = {}
    snapshot: dict[int, tuple[int, int]] = {}
    for dep_name, dep in view.deps.items():
        table = catalog.table(dep_name)
        if table.uid != dep.uid:
            return False  # dropped and recreated: a different heap
        seq = table.delta_seq
        epoch = table.epoch
        row_count = table.row_count()
        snapshot[table.uid] = (epoch, row_count)
        new_deps[dep_name] = DependencyState(table.uid, epoch, row_count, seq)
        if epoch == dep.epoch and row_count == dep.row_count and seq == dep.delta_seq:
            continue
        deltas = table.deltas_since(dep.delta_seq)
        if deltas is None:
            return False  # log pruned or truncated past our anchor
        deltas = [d for d in deltas if d.seq <= seq]
        inserted, deleted = _net_delta(deltas)
        if dep.row_count + len(inserted) - len(deleted) != row_count:
            # Rows reached the heap without a delta record (bulk load,
            # SELECT INTO): the log is not the whole story.
            return False
        changed[dep_name] = (table, inserted, deleted)
    if not changed:
        # Deltas cancelled out (or only the delta seq moved); just
        # re-anchor so is_current() is cheap again.
        view.deps = new_deps
        return True
    if len(changed) > MAX_DELTA_TABLES:
        return False

    terms = _evaluate_delta_terms(db, view, changed, snapshot)
    if terms is None:
        return False
    if not _merge_terms(view, terms):
        return False
    view.deps = new_deps
    view.incremental_refreshes += 1
    return True


def status(view: MaterializedProvenanceView, catalog) -> str:
    """One-word freshness label for the CLI and ``explain``."""
    for dep_name in view.deps:
        if not catalog.has_table(dep_name):
            return "broken"
    return "fresh" if view.is_current(catalog) else "stale"


# ---------------------------------------------------------------------------
# Evaluation (full pipeline against a possibly-shadowed catalog)
# ---------------------------------------------------------------------------


class _ShadowCatalog:
    """A catalog view that swaps named tables for delta heaps.

    The planner binds base relations by name at plan time, so handing
    it a catalog whose :meth:`table` answers with a small delta heap
    re-plans the *unchanged* view definition over the delta — schema,
    token minting and witness attributes all behave as if the delta
    rows were the table's whole content.  Everything else (schemas,
    statistics, views) proxies to the real catalog.
    """

    def __init__(self, base, overrides: dict[str, Table]) -> None:
        self._base = base
        self._overrides = overrides

    def table(self, name: str) -> Table:
        override = self._overrides.get(name.lower())
        if override is not None:
            return override
        return self._base.table(name)

    def __getattr__(self, attr):
        return getattr(self._base, attr)


def _capture_dependencies(
    db: "PermDatabase", view: MaterializedProvenanceView
) -> tuple[dict[str, DependencyState], dict[int, tuple[int, int]]]:
    """Record the current state of every base table the view reads.

    The matching snapshot token is returned alongside so the refresh
    can *execute under* exactly the state it records — concurrent
    appends past the captured row counts are simply not visible.
    """
    from repro.backends.base import collect_base_relations

    analyzed = Analyzer(db.catalog).analyze(view.statement)
    deps: dict[str, DependencyState] = {}
    snapshot: dict[int, tuple[int, int]] = {}
    for name in sorted(collect_base_relations(analyzed)):
        table = db.catalog.table(name)
        deps[name.lower()] = DependencyState(
            table.uid, table.epoch, table.row_count(), table.delta_seq
        )
        snapshot[table.uid] = (table.epoch, table.row_count())
    return deps, snapshot


def _evaluate(
    statement,
    catalog,
    snapshot: Optional[dict[int, tuple[int, int]]],
) -> tuple[Query, Query, list[str], list[tuple]]:
    """Run the full frontend + in-process engine for one statement.

    Always the Python engine regardless of the active backend: only it
    honors snapshot reads, and delta heaps exist solely in the (shadow)
    catalog — a data-shipping backend would not see them.
    """
    from repro.executor.nodes import run_plan_rows
    from repro.frontend import frontend
    from repro.storage.chunk import DEFAULT_BATCH_SIZE

    analyzed, _, planned = frontend(catalog, statement)
    plan = make_planner(catalog).plan(planned)
    ctx = ExecContext(
        batch_size=plan.batch_size_hint or DEFAULT_BATCH_SIZE, snapshot=snapshot
    )
    rows = run_plan_rows(plan, ctx)
    return analyzed, planned, list(plan.output_names), rows


def _evaluate_delta_terms(
    db: "PermDatabase",
    view: MaterializedProvenanceView,
    changed: dict[str, tuple[Table, list[tuple], list[tuple]]],
    snapshot: dict[int, tuple[int, int]],
) -> Optional[list[tuple[int, list[tuple]]]]:
    """All signed inclusion-exclusion terms as ``(sign, rows)`` pairs."""
    names = sorted(changed)
    terms: list[tuple[int, list[tuple]]] = []
    for size in range(1, len(names) + 1):
        for subset in itertools.combinations(names, size):
            # Each Δᵢ = Aᵢ − Dᵢ expands multilinearly into a choice of
            # the insert or delete heap per table in the subset.
            for sides in itertools.product(("+", "-"), repeat=size):
                overrides: dict[str, Table] = {}
                skip = False
                for name, side in zip(subset, sides):
                    table, inserted, deleted = changed[name]
                    delta_rows = inserted if side == "+" else deleted
                    if not delta_rows:
                        skip = True  # an empty factor zeroes the term
                        break
                    overrides[name] = Table(table.schema, delta_rows)
                if skip:
                    continue
                sign = (-1) ** (size + 1) * (-1) ** sides.count("-")
                shadow = _ShadowCatalog(db.catalog, overrides)
                try:
                    _, rewritten, columns, rows = _evaluate(
                        view.statement, shadow, snapshot
                    )
                except ExecutionError as exc:
                    if str(exc).startswith("snapshot too old"):
                        return None  # concurrent writer; retry as full
                    raise
                if columns != view.columns or (
                    rewritten.annotation_column != view.annotation_column
                ):
                    return None  # shape drifted; not safely mergeable
                terms.append((sign, rows))
    return terms


def _net_delta(deltas) -> tuple[list[tuple], list[tuple]]:
    """Collapse a delta sequence into net inserted / deleted bags.

    A row deleted after being inserted (or re-inserted after being
    deleted) within the window cancels, so the returned pair is exactly
    ``T_new − T_old`` split into its positive and negative parts.
    """
    inserted: Counter = Counter()
    deleted: Counter = Counter()
    for delta in deltas:
        for row in delta.deleted:
            if inserted[row] > 0:
                inserted[row] -= 1
            else:
                deleted[row] += 1
        for row in delta.inserted:
            if deleted[row] > 0:
                deleted[row] -= 1
            else:
                inserted[row] += 1
    return list(inserted.elements()), list(deleted.elements())


# ---------------------------------------------------------------------------
# Merging signed terms into the stored state
# ---------------------------------------------------------------------------


def _merge_terms(
    view: MaterializedProvenanceView, terms: list[tuple[int, list[tuple]]]
) -> bool:
    if view.semantics == "polynomial":
        return _merge_polynomial(view, terms)
    return _merge_witness(view, terms)


def _merge_polynomial(
    view: MaterializedProvenanceView, terms: list[tuple[int, list[tuple]]]
) -> bool:
    if view.poly_map is None or view.annotation_column is None:
        return False
    try:
        ann = view.columns.index(view.annotation_column)
    except ValueError:
        return False
    positive: dict[tuple, Polynomial] = {}
    negative: dict[tuple, Polynomial] = {}
    zero = Polynomial.zero()
    for sign, rows in terms:
        bucket = positive if sign > 0 else negative
        for row in rows:
            key = row[:ann] + row[ann + 1 :]
            poly = row[ann]
            if not isinstance(poly, Polynomial):
                return False
            bucket[key] = bucket.get(key, zero) + poly
    # Work out the new annotation per touched key without mutating yet,
    # so an inexact monus leaves the stored state untouched.
    changed: dict[tuple, Optional[Polynomial]] = {}
    for key, poly in positive.items():
        changed[key] = view.poly_map.get(key, zero) + poly
    for key, poly in negative.items():
        current = changed[key] if key in changed else view.poly_map.get(key, zero)
        if not current.covers(poly):
            # Monus would clamp instead of invert: the stored state and
            # the delta log disagree — recompute rather than guess.
            return False
        remaining = current.monus(poly)
        changed[key] = None if remaining.is_zero() else remaining
    # Apply delta-sized: update rows in place via the key→position
    # index; only a key removal forces an O(stored) compaction.
    pos = view.poly_pos
    removed = False
    for key, poly in changed.items():
        at = pos.get(key)
        if poly is None:
            view.poly_map.pop(key, None)
            if at is not None:
                view.rows[at] = None
                del pos[key]
                removed = True
            continue
        view.poly_map[key] = poly
        row = key[:ann] + (poly,) + key[ann:]
        if at is None:
            pos[key] = len(view.rows)
            view.rows.append(row)
        else:
            view.rows[at] = row
    if removed:
        view.rows = [row for row in view.rows if row is not None]
        view.poly_pos = {
            row[:ann] + row[ann + 1 :]: at for at, row in enumerate(view.rows)
        }
    return True


def _merge_witness(
    view: MaterializedProvenanceView, terms: list[tuple[int, list[tuple]]]
) -> bool:
    if view.row_bag is None:
        return False
    delta: Counter = Counter()
    for sign, rows in terms:
        for row in rows:
            delta[row] += sign
    bag = view.row_bag
    if any(bag[row] + count < 0 for row, count in delta.items()):
        return False  # bag difference is inexact here; recompute
    # Apply delta-sized: pure insertions append; only deletions pay an
    # O(stored) rebuild of the row list.
    removed = False
    appended: list[tuple] = []
    for row, count in delta.items():
        if count == 0:
            continue
        remaining = bag[row] + count
        if remaining:
            bag[row] = remaining
        else:
            del bag[row]
        if count < 0:
            removed = True
        else:
            appended.extend([row] * count)
    if removed:
        view.rows = list(bag.elements())
    else:
        view.rows.extend(appended)
    return True


def _index_stored_state(view: MaterializedProvenanceView) -> None:
    """(Re)build the merge index after a full refresh."""
    view.poly_map = None
    view.poly_pos = {}
    view.row_bag = None
    if not view.incremental_eligible:
        return
    if view.semantics == "polynomial":
        if view.annotation_column is None:
            view.incremental_eligible = False
            view.ineligible_reason = "rewrite produced no annotation column"
            return
        ann = view.columns.index(view.annotation_column)
        poly_map: dict[tuple, Polynomial] = {}
        poly_pos: dict[tuple, int] = {}
        for at, row in enumerate(view.rows):
            key = row[:ann] + row[ann + 1 :]
            if key in poly_map or not isinstance(row[ann], Polynomial):
                # Duplicate visible tuples mean the root collapse did
                # not run; per-key merging would be wrong.
                view.incremental_eligible = False
                view.ineligible_reason = "result rows not keyed by visible tuple"
                return
            poly_map[key] = row[ann]
            poly_pos[key] = at
        view.poly_map = poly_map
        view.poly_pos = poly_pos
    else:
        view.row_bag = Counter(view.rows)


# ---------------------------------------------------------------------------
# Eligibility classification
# ---------------------------------------------------------------------------


def _classify(
    view: MaterializedProvenanceView, analyzed: Query, rewritten: Query
) -> None:
    """Decide whether delta maintenance applies to this view.

    Structural limits come from the multilinearity argument in the
    module docstring; the reference count runs on the *rewritten* tree
    because that is the query actually evaluated over delta heaps — a
    rewrite that duplicated a base table (aggregate provenance joins
    do) would break per-occurrence linearity even if the original
    query referenced it once.
    """
    view.incremental_eligible = False
    if view.semantics not in _INCREMENTAL_SEMANTICS:
        view.ineligible_reason = (
            f"no delta merge algebra for {view.semantics!r} semantics"
        )
        return
    reason = _structural_reason(analyzed)
    if reason is None:
        counts: Counter = Counter()
        _count_base_references(rewritten, counts)
        repeated = sorted(name for name, n in counts.items() if n > 1)
        if repeated:
            reason = (
                f"table {repeated[0]!r} is referenced more than once "
                "(maintenance is per-occurrence linear)"
            )
    view.incremental_eligible = reason is None
    view.ineligible_reason = reason


def _structural_reason(query: Query) -> Optional[str]:
    """First structural feature that rules out delta maintenance.

    The delta expansion needs the evaluated query to be *multilinear*
    per base-table occurrence — in particular it must vanish when any
    referenced heap is empty.  That rules out more than aggregation:

    * set operations are affine, not multilinear (a ``UNION ALL``
      branch not referencing the changed table contributes its rows to
      every delta term, duplicating them), and
    * outer joins preserve the null-padded side of an empty input.
    """
    if query.has_aggs or query.group_clause or query.having is not None:
        return "aggregation is not delta-maintainable"
    if query.distinct:
        return "DISTINCT is not delta-maintainable"
    if query.sort_clause or query.limit_count is not None or query.limit_offset is not None:
        return "ORDER BY/LIMIT is not delta-maintainable"
    if query.set_operations is not None:
        return (
            "set operations are not delta-maintainable "
            "(branches are affine, not multilinear)"
        )
    reason = _jointree_reason(query.jointree.items)
    if reason is not None:
        return reason
    for expr in _iter_expressions(query):
        for node in ex.walk(expr):
            if isinstance(node, ex.SubLink):
                return "subquery expressions are not delta-maintainable"
    for rte in query.range_table:
        if rte.subquery is not None:
            reason = _structural_reason(rte.subquery)
            if reason is not None:
                return reason
    return None


def _jointree_reason(items) -> Optional[str]:
    stack = list(items)
    while stack:
        item = stack.pop()
        if isinstance(item, JoinTreeExpr):
            if item.join_type not in ("inner", "cross"):
                return (
                    f"{item.join_type.upper()} JOIN is not "
                    "delta-maintainable (does not vanish on empty inputs)"
                )
            stack.append(item.left)
            stack.append(item.right)
    return None


def _iter_expressions(query: Query):
    for target in query.target_list:
        yield target.expr
    if query.jointree.quals is not None:
        yield query.jointree.quals
    stack = list(query.jointree.items)
    while stack:
        item = stack.pop()
        if isinstance(item, JoinTreeExpr):
            if item.quals is not None:
                yield item.quals
            stack.append(item.left)
            stack.append(item.right)
    yield from query.group_clause
    if query.having is not None:
        yield query.having


def _count_base_references(query: Query, counts: Counter) -> None:
    for rte in query.range_table:
        if rte.kind is RTEKind.RELATION and rte.relation_name:
            counts[rte.relation_name.lower()] += 1
        elif rte.subquery is not None:
            _count_base_references(rte.subquery, counts)
    for expr in _iter_expressions(query):
        for node in ex.walk(expr):
            if isinstance(node, ex.SubLink):
                _count_base_references(node.subquery, counts)


def validate_definition(statement) -> None:
    """Reject definition shapes a materialized view cannot serve.

    Raised at CREATE time with a targeted message instead of failing
    obscurely later: the stored heap is unordered, so an ORDER BY /
    LIMIT contract could not be honored on serve, and SELECT INTO has
    side effects a refresh must not repeat.
    """
    if not getattr(statement, "provenance", False):
        raise PermError(
            "CREATE MATERIALIZED PROVENANCE VIEW requires a SELECT "
            "PROVENANCE body (add the PROVENANCE keyword)"
        )
    if getattr(statement, "into", None):
        raise PermError(
            "SELECT INTO cannot be used as a materialized view definition"
        )
    if statement.order_by or statement.limit is not None or statement.offset is not None:
        raise PermError(
            "ORDER BY/LIMIT/OFFSET are not supported in materialized "
            "provenance view definitions (the stored result is unordered)"
        )
