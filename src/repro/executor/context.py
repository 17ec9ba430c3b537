"""Execution context shared by all plan nodes of one query execution."""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.errors import ExecutionError
from repro.storage.chunk import DEFAULT_BATCH_SIZE


class ExecContext:
    """Carries cross-node execution state.

    ``outer_rows`` is the stack of rows from enclosing queries, used by
    correlated sublinks: a Var with ``levelsup = k`` reads from
    ``outer_rows[-k]``.

    ``caches`` holds all per-*execution* memoization: uncorrelated
    sublink results and :class:`~repro.executor.nodes.MaterializeNode`
    spools, keyed by a per-closure sentinel or the node itself.  Keeping
    this state here (instead of inside plan objects) is what makes a
    plan re-runnable: a fresh context sees fresh data, while shared
    subplans still evaluate once *within* an execution.

    ``batch_size`` is the chunk row count.  Subplans (sublinks) run
    through the same batch protocol as the main pipeline, so float
    aggregates fold identically on both sides of a comparison (TPC-H
    Q15's ``total_revenue = (SELECT max(total_revenue) ...)``).

    ``snapshot`` (when set) maps ``Table.uid`` to the ``(epoch,
    row_count)`` visible to this execution: scans clamp to the recorded
    prefix (rows are append-only within an epoch) and raise when the
    epoch moved (TRUNCATE), giving the server its cheap MVCC read token.

    ``deadline`` is a ``time.monotonic()`` instant after which long
    loops abort with an :class:`ExecutionError` — cooperative
    cancellation for per-request timeouts, checked at chunk granularity
    so the cost stays off the per-row path.
    """

    __slots__ = (
        "outer_rows",
        "caches",
        "batch_size",
        "snapshot",
        "deadline",
    )

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        vectorized: bool = True,
        snapshot: Optional[dict[int, tuple[int, int]]] = None,
        deadline: Optional[float] = None,
    ) -> None:
        # ``vectorized`` is accepted and ignored: there is one protocol.
        self.outer_rows: list[tuple] = []
        self.caches: dict[Any, Any] = {}
        self.batch_size = batch_size
        self.snapshot = snapshot
        self.deadline = deadline

    def push_outer(self, row: tuple) -> None:
        self.outer_rows.append(row)

    def pop_outer(self) -> None:
        self.outer_rows.pop()

    # -- snapshot reads -----------------------------------------------------

    def snapshot_stop(self, table: Any) -> Optional[int]:
        """The number of rows of ``table`` visible to this execution, or
        None for all.  Raises when the snapshot no longer applies (the
        heap was truncated since it was taken).  Tables absent from the
        snapshot (created after it was taken) are fully visible — the
        catalog lookup already happened at plan time."""
        snapshot = self.snapshot
        if snapshot is None:
            return None
        entry = snapshot.get(table.uid)
        if entry is None:
            return None
        epoch, visible_rows = entry
        if epoch != table.epoch:
            raise ExecutionError(
                f"snapshot too old: table {table.name!r} was truncated or "
                "had rows deleted/updated since the snapshot was taken"
            )
        return visible_rows

    # -- cooperative cancellation -------------------------------------------

    def check_deadline(self) -> None:
        deadline = self.deadline
        if deadline is not None and time.monotonic() >= deadline:
            raise ExecutionError("query canceled: execution timeout exceeded")
