"""The catalog maps names to tables and view definitions.

Views are stored as their SQL text plus the parsed statement; the analyzer
unfolds them into subquery range-table entries, mirroring PostgreSQL's
rewriter stage (paper Fig. 5: Perm runs *after* view unfolding).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.catalog.schema import TableSchema
from repro.errors import CatalogError
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.matview.view import MaterializedProvenanceView
    from repro.planner.stats import TableStats
    from repro.sql.ast import SelectStmt


@dataclass
class ViewDefinition:
    """A named view: its SQL text and parsed SELECT statement."""

    name: str
    sql: str
    statement: "SelectStmt"
    # Provenance attribute names declared when the view stores external or
    # previously computed provenance (paper section IV-A.3).
    provenance_attributes: tuple[str, ...] = ()


class Catalog:
    """Name -> table/view mapping with case-insensitive lookup.

    ``epoch`` is a schema version counter: it increments on every DDL
    change (create/drop of a table or view).  Compiled statements are
    schema-bound but *data*-independent — plans resolve tables by name at
    execution and scans read the live heap (each :class:`Table` carries
    its own ``uid``/``epoch`` for data-mirroring backends) — so the
    prepared-statement cache keys on this counter alone.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ViewDefinition] = {}
        self._matviews: dict[str, "MaterializedProvenanceView"] = {}
        self.epoch = 0
        # ANALYZE-collected statistics, keyed by lower-cased table name.
        # ``stats_epoch`` increments on every (re)collection so cached
        # plans keyed on it re-plan with the fresh numbers.
        self._table_stats: dict[str, "TableStats"] = {}
        self.stats_epoch = 0
        # Serializes (auto-)ANALYZE: a database served by
        # ``start_in_thread`` (``ServerHandle``) has two callers, the
        # server's engine thread and the embedding program's own thread,
        # and a concurrent double-collect would bump ``stats_epoch`` twice
        # and waste two heap passes.
        self._analyze_lock = threading.Lock()

    # -- tables -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError(f"relation {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        self.epoch += 1
        return table

    def drop_table(self, name: str, missing_ok: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if missing_ok:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.epoch += 1

    def table(self, name: str) -> Table:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        return self._tables[key]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    # -- durability (checkpoint restore) -------------------------------------
    #
    # Restore installs pre-built objects without bumping ``epoch`` /
    # ``stats_epoch``: recovery forces both counters to their persisted
    # values afterwards so statement caches key identically to the
    # crashed process.

    def install_table(self, table: Table) -> None:
        key = table.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError(f"relation {table.name!r} already exists")
        self._tables[key] = table

    def install_stats(self, name: str, stats: "TableStats") -> None:
        self._table_stats[name.lower()] = stats

    def stats_entries(self) -> dict[str, "TableStats"]:
        """Every stored statistics snapshot, fresh or lagging.

        Checkpoints persist the raw entries (not :meth:`analyzed_tables`):
        a *lagging* snapshot still drives auto-ANALYZE growth thresholds,
        so recovery must restore exactly what the crashed process held or
        replayed DML would re-ANALYZE at different points.
        """
        return dict(self._table_stats)

    def set_epochs(self, epoch: int, stats_epoch: int) -> None:
        self.epoch = epoch
        self.stats_epoch = stats_epoch

    # -- statistics (ANALYZE) ------------------------------------------------

    def analyze(self, name: Optional[str] = None) -> list["TableStats"]:
        """Collect statistics for one table (or all tables).

        Returns the collected :class:`~repro.planner.stats.TableStats`
        snapshots.  Stale entries for dropped tables are purged so the
        statistics dictionary tracks the live schema.
        """
        from repro.planner.stats import collect_table_stats

        if name is not None:
            tables = [self.table(name)]
        else:
            tables = self.tables()
        with self._analyze_lock:
            collected = []
            for table in tables:
                stats = collect_table_stats(table)
                self._table_stats[table.name.lower()] = stats
                collected.append(stats)
            for key in list(self._table_stats):
                if key not in self._tables:
                    del self._table_stats[key]
            self.stats_epoch += 1
        return collected

    #: Auto-ANALYZE fires only after the live row count moved (up or
    #: down) by at least this many rows …
    AUTO_ANALYZE_MIN_GROWTH = 128
    #: … plus this fraction of the analyzed row count (the PostgreSQL
    #: autovacuum shape: base + scale factor).
    AUTO_ANALYZE_GROWTH_FRACTION = 0.2
    #: Heaps at or above this many live rows are auto-ANALYZEd from a
    #: reservoir sample instead of a full scan …
    AUTO_ANALYZE_SAMPLE_THRESHOLD = 50_000
    #: … of this many rows (seeded deterministically per heap state).
    AUTO_ANALYZE_SAMPLE_ROWS = 20_000

    def maybe_auto_analyze(self) -> list[str]:
        """Refresh statistics for previously-ANALYZEd tables whose heaps
        grew or shrank past the auto-ANALYZE threshold.

        Deliberately conservative: tables never ANALYZEd stay
        stats-free (the cost model's defaults apply), so opting a
        workload into statistics remains an explicit act; only the
        *staleness* of collected numbers is repaired automatically.
        Tables whose heap was truncated/recreated (stale uid or
        truncation count) are also re-collected once they hold enough
        rows to matter.  A DELETE or UPDATE of a few rows leaves the
        snapshot fresh, so it neither re-scans the heap nor bumps
        ``stats_epoch`` (which every cached plan keys on).
        Returns the names of the tables refreshed.
        """
        from repro.planner.stats import collect_table_stats

        with self._analyze_lock:
            refreshed = []
            for key, stats in list(self._table_stats.items()):
                table = self._tables.get(key)
                if table is None:
                    continue
                live = table.row_count()
                threshold = self.AUTO_ANALYZE_MIN_GROWTH + int(
                    stats.row_count * self.AUTO_ANALYZE_GROWTH_FRACTION
                )
                if stats.is_fresh_for(table):
                    due = abs(live - stats.row_count) >= threshold
                else:
                    due = live >= self.AUTO_ANALYZE_MIN_GROWTH
                if due:
                    # Large heaps refresh from a reservoir sample: the
                    # background path must not re-scan a multi-100k-row
                    # table on every 20% growth step.  Explicit ANALYZE
                    # stays a full scan.
                    sample = (
                        self.AUTO_ANALYZE_SAMPLE_ROWS
                        if live >= self.AUTO_ANALYZE_SAMPLE_THRESHOLD
                        else None
                    )
                    self._table_stats[key] = collect_table_stats(
                        table, sample_rows=sample
                    )
                    refreshed.append(table.name)
            if refreshed:
                self.stats_epoch += 1
            return refreshed

    def stats_for(self, name: str) -> Optional["TableStats"]:
        """Fresh statistics for a table, or None (never analyzed, the
        heap was truncated/recreated since, or the table is gone)."""
        key = name.lower()
        stats = self._table_stats.get(key)
        if stats is None:
            return None
        table = self._tables.get(key)
        if table is None or not stats.is_fresh_for(table):
            return None
        return stats

    def analyzed_tables(self) -> list["TableStats"]:
        """All statistics snapshots that are still fresh."""
        return [
            stats
            for name, stats in sorted(self._table_stats.items())
            if self.stats_for(name) is not None
        ]

    # -- views --------------------------------------------------------------

    def create_view(self, view: ViewDefinition) -> None:
        key = view.name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError(f"relation {view.name!r} already exists")
        self._views[key] = view
        self.epoch += 1

    def drop_view(self, name: str, missing_ok: bool = False) -> None:
        key = name.lower()
        if key not in self._views:
            if missing_ok:
                return
            raise CatalogError(f"view {name!r} does not exist")
        del self._views[key]
        self.epoch += 1

    def view(self, name: str) -> ViewDefinition:
        key = name.lower()
        if key not in self._views:
            raise CatalogError(f"view {name!r} does not exist")
        return self._views[key]

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def views(self) -> list[ViewDefinition]:
        return list(self._views.values())

    def has_relation(self, name: str) -> bool:
        return self.has_table(name) or self.has_view(name) or self.has_matview(name)

    # -- materialized provenance views --------------------------------------

    def create_matview(self, view: "MaterializedProvenanceView") -> None:
        key = view.name.lower()
        if key in self._tables or key in self._views or key in self._matviews:
            raise CatalogError(f"relation {view.name!r} already exists")
        self._matviews[key] = view
        self.epoch += 1

    def drop_matview(self, name: str, missing_ok: bool = False) -> None:
        key = name.lower()
        if key not in self._matviews:
            if missing_ok:
                return
            raise CatalogError(
                f"materialized provenance view {name!r} does not exist"
            )
        del self._matviews[key]
        self.epoch += 1

    def matview(self, name: str) -> "MaterializedProvenanceView":
        key = name.lower()
        if key not in self._matviews:
            raise CatalogError(
                f"materialized provenance view {name!r} does not exist"
            )
        return self._matviews[key]

    def has_matview(self, name: str) -> bool:
        return name.lower() in self._matviews

    def matviews(self) -> list["MaterializedProvenanceView"]:
        return list(self._matviews.values())

    def matview_for_statement(
        self, stmt: "SelectStmt"
    ) -> Optional["MaterializedProvenanceView"]:
        """The registered view whose definition matches ``stmt``, if any.

        Matching is by normalized statement text (``matview.matching``),
        so textual variation that prints identically — whitespace, case
        of keywords, redundant parens — still hits the view.
        """
        if not self._matviews:
            return None
        from repro.matview.matching import statement_key

        key = statement_key(stmt)
        if key is None:
            return None
        for view in self._matviews.values():
            if view.statement_key == key:
                return view
        return None
