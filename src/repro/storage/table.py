"""Heap tables: the mutable storage behind catalog relations.

A :class:`Table` owns a list of row tuples plus its schema.  It is the
physical object scanned by the executor and the object INSERT/SELECT INTO
write into.  Duplicate rows are naturally represented by repetition, which
matches the bag semantics of the Perm algebra.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.schema import TableSchema
from repro.errors import ExecutionError
from repro.storage.chunk import DEFAULT_BATCH_SIZE, Chunk
from repro.storage.relation import Relation


_UID_COUNTER = itertools.count(1)

#: Per-statement deltas retained per table; readers that fall further
#: behind (``deltas_since`` past the pruned floor) get ``None`` and must
#: recompute from the full heap.
DELTA_LOG_CAPACITY = 256


@dataclass(frozen=True)
class TableDelta:
    """The row sets one DML statement added to / removed from a table.

    ``seq`` orders deltas per table (1-based, gapless while retained).
    An UPDATE records both sets: the pre-images it removed and the
    post-images it wrote.  Consumers (materialized-view maintenance,
    future row versioning) treat the pair as delete-then-insert.
    """

    seq: int
    command: str  # 'INSERT' | 'DELETE' | 'UPDATE'
    inserted: tuple[tuple, ...] = ()
    deleted: tuple[tuple, ...] = ()


class Table:
    """A named heap of rows conforming to a :class:`TableSchema`.

    Mutation tracking for execution backends that mirror catalog data
    (e.g. the SQLite backend):

    * ``uid`` uniquely identifies this heap for the process lifetime, so a
      dropped-and-recreated table of the same name is recognizably new;
    * ``epoch`` increments on :meth:`truncate` — within one epoch the row
      list only ever *grows*, so a mirror that remembers how many rows it
      copied can sync incrementally by shipping just the appended suffix.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence[Any]] | None = None) -> None:
        self.schema = schema
        self._rows: list[tuple] = []
        self.uid = next(_UID_COUNTER)
        self.epoch = 0
        # Columnar view of the heap for vectorized scans, rebuilt lazily
        # whenever the (epoch, row count) it was derived from goes stale.
        # The epoch matters: truncate() + reinserting the same number of
        # rows must not serve the pre-truncate columns.
        self._columns: list[list] | None = None
        self._columns_state: tuple[int, int] = (-1, -1)
        # Serializes columnar-cache rebuilds: a database served by
        # ``start_in_thread`` scans on the server's engine thread and on
        # the embedding program's own thread, which may race on a stale
        # cache, and each would otherwise redo the full transpose.
        # Appends themselves stay lock-free — CPython list.append is
        # atomic and within one epoch the row list only grows.
        self._columns_lock = threading.Lock()
        # Per-statement delta log (``TableDelta``): what each DML
        # statement inserted/deleted, for consumers that maintain
        # derived state incrementally.  ``delta_seq`` is the seq of the
        # newest recorded delta; ``_delta_floor`` the seq below which
        # deltas were pruned (or invalidated by truncate).
        self._deltas: list[TableDelta] = []
        self.delta_seq = 0
        self._delta_floor = 0
        if rows is not None:
            self.insert_many(rows)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.column_names

    def insert(self, row: Sequence[Any]) -> None:
        """Insert one row, validating width and (cheaply) types."""
        row = tuple(row)
        if len(row) != len(self.schema.columns):
            raise ExecutionError(
                f"INSERT into {self.name}: row has {len(row)} values, "
                f"table has {len(self.schema.columns)} columns"
            )
        self._rows.append(row)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def truncate(self) -> None:
        self._rows.clear()
        self.epoch += 1
        # A truncate is not expressible as a bounded delta; invalidate
        # the whole log so lagging readers recompute from scratch.
        self._deltas.clear()
        self._delta_floor = self.delta_seq

    def remove_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Remove one occurrence per listed row (order-preserving multiset
        difference); returns how many rows were actually removed.

        Removal ends the append-only guarantee the current epoch made to
        snapshot readers, so the epoch is bumped — in-flight snapshots
        taken before the removal fail loudly instead of reading rows that
        may have shifted position.
        """
        from collections import Counter

        pending = Counter(tuple(row) for row in rows)
        if not pending:
            return 0
        kept: list[tuple] = []
        removed = 0
        for row in self._rows:
            if pending.get(row, 0) > 0:
                pending[row] -= 1
                removed += 1
            else:
                kept.append(row)
        if removed:
            self._rows[:] = kept
            self.epoch += 1
        return removed

    # -- delta log ----------------------------------------------------------

    def record_delta(
        self,
        command: str,
        inserted: Iterable[Sequence[Any]] = (),
        deleted: Iterable[Sequence[Any]] = (),
    ) -> TableDelta:
        """Append one statement's delta row sets to the log."""
        self.delta_seq += 1
        delta = TableDelta(
            seq=self.delta_seq,
            command=command,
            inserted=tuple(tuple(r) for r in inserted),
            deleted=tuple(tuple(r) for r in deleted),
        )
        self._deltas.append(delta)
        if len(self._deltas) > DELTA_LOG_CAPACITY:
            dropped = self._deltas.pop(0)
            self._delta_floor = dropped.seq
        return delta

    def deltas_since(self, seq: int) -> list[TableDelta] | None:
        """All deltas recorded after ``seq``, oldest first.

        Returns ``None`` when the log cannot answer — ``seq`` predates
        the pruned floor or a truncate — meaning the caller must fall
        back to reading the full heap.
        """
        if seq < self._delta_floor:
            return None
        return [d for d in self._deltas if d.seq > seq]

    # -- durability (checkpoint restore) -------------------------------------

    def delta_log_state(self) -> tuple[int, list[TableDelta]]:
        """(pruned floor, retained deltas) — what a checkpoint persists."""
        return self._delta_floor, list(self._deltas)

    def restore_state(
        self,
        rows: Iterable[Sequence[Any]],
        epoch: int,
        delta_seq: int,
        delta_floor: int,
        deltas: Iterable[TableDelta],
    ) -> None:
        """Rehydrate heap rows, epoch and delta log from a checkpoint.

        The table keeps its fresh ``uid`` (uids are process-lifetime
        identities, never persisted); everything else — including the
        in-memory delta log, so incremental matview maintenance resumes
        where the crashed process left off — is restored exactly.
        """
        self._rows = [tuple(row) for row in rows]
        self.epoch = epoch
        self.delta_seq = delta_seq
        self._delta_floor = delta_floor
        self._deltas = list(deltas)
        self._columns = None
        self._columns_state = (-1, -1)

    def scan(self) -> Iterator[tuple]:
        """Iterate the stored rows (the executor's SeqScan source)."""
        return iter(self._rows)

    def columnar(self) -> list[list]:
        """The heap transposed to per-attribute columns, cached.

        Within one epoch the row list only grows, so the cache is valid
        exactly when it was built from the current (epoch, row count);
        otherwise it is rebuilt with one C-level transpose.

        Thread-safe via double-checked locking: readers that find a
        fresh cache never take the lock; a stale cache is rebuilt by one
        thread while the others wait.  The returned columns are at least
        as long as any row count read before the call (the row list only
        grows within an epoch), so callers may slice by their own count.
        """
        state = (self.epoch, len(self._rows))
        columns = self._columns
        if columns is not None and self._columns_state == state:
            return columns
        with self._columns_lock:
            state = (self.epoch, len(self._rows))
            if self._columns is None or self._columns_state != state:
                count = state[1]
                width = len(self.schema.columns)
                if count == 0:
                    self._columns = [[] for _ in range(width)]
                else:
                    # Bound the transpose to the row count recorded in
                    # ``state`` so a concurrent append cannot leave the
                    # cache longer than its recorded state says.
                    self._columns = [list(col) for col in zip(*self._rows[:count])]
                self._columns_state = state
            return self._columns

    def scan_chunks(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        columns: list[int] | None = None,
        stop: int | None = None,
    ) -> Iterator[Chunk]:
        """Scan the heap as columnar chunks (the vectorized SeqScan source).

        ``columns`` (when given) narrows to the listed attribute numbers in
        output order.  ``batch_size`` is always honored — even when the
        columnar cache holds the whole table: the zero-copy fast path
        (handing out the cached column lists directly; consumers never
        mutate chunk columns) applies only when the scanned range is the
        whole cache and fits one batch, otherwise the cache is sliced
        into bounded chunks.
        The cost-based planner shrinks the executor's batch size below
        the table size when joins fan out
        (:attr:`~repro.executor.nodes.PlanNode.batch_size_hint`), so at
        larger scale factors scans stream bounded chunks instead of
        SF-sized single ones.

        ``stop`` bounds the scan to a heap prefix — the substrate for
        snapshot reads (within one epoch rows are append-only, so a row
        count *is* a snapshot token).  A snapshot that covers the whole
        heap still takes the zero-copy path.
        """
        total = len(self._rows)
        bounded = stop is not None
        stop = total if stop is None else min(stop, total)
        if stop <= 0:
            return
        batch_size = max(int(batch_size), 1)
        data = self.columnar()
        # The range is the whole cache: no append landed after ``stop``
        # was read (or after the snapshot was taken).
        covering = stop <= batch_size and len(data[0]) == stop
        narrow = columns is not None
        if narrow:
            data = [data[i] for i in columns]
        if covering:
            # Full-width single chunks also share the heap's rows: a
            # downstream consumer that needs row tuples (a hash-join
            # spool) then gathers original rows instead of transposing.
            # A bounded (snapshot) scan gets a copy of the list, which
            # DELETE and TRUNCATE mutate in place.
            phys_rows = None
            if not narrow:
                phys_rows = self._rows[:stop] if bounded else self._rows
            yield Chunk(columns=data, nrows=stop, width=len(data), phys_rows=phys_rows)
            return
        for lower in range(0, stop, batch_size):
            upper = min(lower + batch_size, stop)
            yield Chunk(
                columns=[col[lower:upper] for col in data],
                nrows=upper - lower,
                width=len(data),
                phys_rows=None if narrow else self._rows[lower:upper],
            )

    def raw_rows(self) -> list[tuple]:
        """Direct access to the row list; used by scans for speed."""
        return self._rows

    def row_count(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def to_relation(self) -> Relation:
        return Relation.from_rows(self.column_names, self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self._rows)} rows)"
