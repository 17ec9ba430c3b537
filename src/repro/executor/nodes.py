"""Physical plan nodes.

Every node executes batch-at-a-time: ``run_batches(ctx) ->
Iterator[Chunk]`` pulls columnar :class:`~repro.storage.chunk.Chunk`
inputs through the batch kernels the planner attached (``predicates``,
``kernels``, ``left_keys`` ...).  ``run(ctx)`` is a thin row adapter over
it for callers that want tuples; the engine itself never calls it.

Nodes carry ``output_names`` for EXPLAIN and result schema construction,
and an ``estimate`` used by the planner's greedy join ordering.

Join semantics notes:

* hash/nested-loop joins implement SQL semantics: NULL join keys never
  match, but unmatched rows still appear null-extended in outer joins;
* set operations implement bag semantics via counters (UNION/INTERSECT/
  EXCEPT ALL) and sets (DISTINCT variants), matching the Perm algebra
  definitions in paper Fig. 1b.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.executor.aggregates import AggState
from repro.executor.context import ExecContext
from repro.storage.chunk import Chunk, chunk_rows
from repro.storage.table import Table

Row = tuple
#: Row closure: one row in, one value out (ProjectNode's row emitter).
Scalar = Callable[[Row, ExecContext], Any]
#: Batch kernel: one Chunk in, one output column (list) out.
BatchExpr = Callable[[Chunk, ExecContext], list]


def run_plan_rows(plan: "PlanNode", ctx: ExecContext) -> list[Row]:
    """Execute a plan and return its rows.

    Top-level result assembly and every sublink subplan go through here
    (sublinks resolve the name at call time), so one function owns the
    drain from chunks to result tuples.
    """
    return [row for chunk in plan.run_batches(ctx) for row in chunk.rows()]


def apply_batch_predicates(
    chunk: Chunk, kernels: Sequence[BatchExpr], ctx: ExecContext
) -> Chunk:
    """Filter a chunk through predicate kernels via selection vectors.

    Kernels run in order on the *surviving* rows only (each pass narrows
    the selection), so a conjunct never evaluates on a row an earlier
    conjunct already rejected.  Column-backed chunks are never copied —
    only index lists; row-backed chunks gather the surviving row tuples
    directly.
    """
    for kernel in kernels:
        if len(chunk) == 0:
            return chunk
        verdicts = kernel(chunk, ctx)
        if chunk.is_row_backed():
            chunk = Chunk.from_rows(
                [row for row, v in zip(chunk.rows(), verdicts) if v is True],
                chunk.width,
            )
            continue
        sel = chunk.sel
        if sel is None:
            new_sel = [i for i, v in enumerate(verdicts) if v is True]
        else:
            new_sel = [i for i, v in zip(sel, verdicts) if v is True]
        chunk = chunk.with_sel(new_sel)
    return chunk


class PlanNode:
    """Base class for physical plan nodes.

    ``estimate`` is the planner's cardinality estimate for this node's
    output (statistics-driven); ``EXPLAIN`` renders it as ``est=`` next
    to actual rows.  ``batch_size_hint`` (set on plan roots by the
    planner) bounds the chunk size by the largest estimated
    intermediate.
    """

    output_names: list[str]
    estimate: float
    batch_size_hint: Optional[int] = None

    def run(self, ctx: ExecContext) -> Iterator[Row]:
        """The rows of :meth:`run_batches`, one tuple at a time."""
        for chunk in self.run_batches(ctx):
            yield from chunk.rows()

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:  # pragma: no cover
        raise NotImplementedError

    def children(self) -> list["PlanNode"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + f"-> {self.label()}"]
        lines += [child.explain(indent + 1) for child in self.children()]
        return "\n".join(lines)

    def width(self) -> int:
        return len(self.output_names)


class SeqScan(PlanNode):
    """Full scan of a heap table, optionally filtered and column-narrowed.

    ``columns`` (when set) lists the heap attribute numbers to emit, in
    output order — the physical realization of the optimizer's projection
    pruning.  ``predicates`` are filter kernels the planner pushed onto
    the scan, applied in order with selection vectors; they always
    evaluate against the emitted (narrow) row layout.
    """

    def __init__(
        self,
        table: Table,
        output_names: list[str],
        columns: Optional[list[int]] = None,
    ) -> None:
        self.table = table
        self.output_names = output_names
        self.columns = columns
        self.predicates: list[BatchExpr] = []
        self.estimate = float(max(table.row_count(), 1))

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        kernels = self.predicates
        stop = None
        if ctx.snapshot is not None:
            # A snapshot read sees the heap prefix visible when the
            # snapshot was taken (the server's MVCC token).
            stop = ctx.snapshot_stop(self.table)
            if stop is None:
                stop = self.table.row_count()
        deadline = ctx.deadline
        for chunk in self.table.scan_chunks(ctx.batch_size, self.columns, stop=stop):
            if deadline is not None:
                ctx.check_deadline()
            if kernels:
                chunk = apply_batch_predicates(chunk, kernels, ctx)
                if len(chunk) == 0:
                    continue
            yield chunk

    def label(self) -> str:
        suffix = " (filtered)" if self.predicates else ""
        if self.columns is not None:
            suffix += f" [{len(self.columns)} cols]"
        return f"SeqScan on {self.table.name}{suffix}"


class OneRow(PlanNode):
    """Produces a single empty row; basis for FROM-less selects."""

    def __init__(self) -> None:
        self.output_names = []
        self.estimate = 1.0

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        yield Chunk(nrows=1, width=0, rows=[()])


class ValuesNode(PlanNode):
    """A constant list of rows (INSERT ... VALUES and tests)."""

    def __init__(self, rows: list[Row], output_names: list[str]) -> None:
        self.rows = rows
        self.output_names = output_names
        self.estimate = max(len(rows), 1)

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        if self.rows:
            yield Chunk.from_rows(list(self.rows), self.width())


class FilterNode(PlanNode):
    """Keeps the rows for which every predicate kernel returns True."""

    def __init__(self, child: PlanNode, predicates: list[BatchExpr]) -> None:
        self.child = child
        self.predicates = predicates
        self.output_names = list(child.output_names)
        self.estimate = max(child.estimate * 0.25, 1.0)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        kernels = self.predicates
        for chunk in self.child.run_batches(ctx):
            chunk = apply_batch_predicates(chunk, kernels, ctx)
            if len(chunk):
                yield chunk


class ProjectNode(PlanNode):
    """Expression projection.

    ``slots`` (parallel to ``kernels``) marks positions that are plain
    input-slot reads: over column-backed input those columns pass
    through untouched and every other position runs its batch kernel.
    Row-backed input (join output) instead goes through one generated
    per-row emitter with the slot reads inlined and the row closures in
    ``exprs`` (None at slot positions) called for the rest — one call
    per row is cheaper than extracting every slot-read column.
    """

    def __init__(
        self,
        child: PlanNode,
        output_names: list[str],
        slots: list[Optional[int]],
        kernels: list[Optional[BatchExpr]],
        exprs: list[Optional[Scalar]],
    ) -> None:
        self.child = child
        self.output_names = output_names
        self.slots = slots
        self.kernels = kernels
        self.exprs = exprs
        self.estimate = child.estimate
        self._emit = self._build_emitter()

    def _build_emitter(self):
        parts: list[str] = []
        env: dict[str, Any] = {}
        for index, (fn, slot) in enumerate(zip(self.exprs, self.slots)):
            if slot is not None:
                parts.append(f"row[{int(slot)}]")
            else:
                env[f"_f{index}"] = fn
                parts.append(f"_f{index}(row, ctx)")
        if not parts:
            return lambda row, ctx: ()
        body = ", ".join(parts)
        return eval(f"lambda row, ctx: ({body},)", env)  # generated slots/calls only

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        pairs = list(zip(self.kernels, self.slots))
        width = len(pairs)
        emit = self._emit
        for chunk in self.child.run_batches(ctx):
            if chunk.is_row_backed():
                yield Chunk.from_rows([emit(row, ctx) for row in chunk.rows()], width)
                continue
            columns = [
                chunk.column(slot) if slot is not None else kernel(chunk, ctx)
                for kernel, slot in pairs
            ]
            yield Chunk(columns=columns, nrows=len(chunk), width=width)


class SliceNode(PlanNode):
    """Re-emits a positional selection of columns (any order, duplicates
    allowed): junk-column removal and Var-only projections.

    Unlike :class:`ProjectNode` this evaluates no expressions — a
    column-backed chunk is rearranged by reference, a row-backed one with
    a C-level ``itemgetter``, which is what makes the optimizer's
    pulled-up trees cheap (their projections are plain column
    references).
    """

    def __init__(self, child: PlanNode, keep: list[int], output_names: list[str]) -> None:
        self.child = child
        self.keep = keep
        self.output_names = output_names
        self.estimate = child.estimate

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        keep = self.keep
        for chunk in self.child.run_batches(ctx):
            yield chunk.project(keep)


class NestedLoopJoin(PlanNode):
    """General join for arbitrary conditions; right side is materialized."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        join_type: str,
        condition: Optional[BatchExpr],
    ) -> None:
        self.left = left
        self.right = right
        self.join_type = join_type
        self.condition = condition
        self.output_names = list(left.output_names) + list(right.output_names)
        selectivity = 0.1 if condition else 1.0
        self.estimate = max(left.estimate * right.estimate * selectivity, 1.0)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"NestedLoopJoin ({self.join_type})"

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        """Batch nested loop.

        The unconditional inner/left/cross shapes build output *columns*
        directly (repeat/tile gathers, zero row materialization — the
        provenance rewrite's scalar-aggregate joins are the single-right-
        row case).  Every other shape streams left rows in blocks sized
        so one block's candidate cross product fits a batch, evaluates
        the condition kernel once per block, and reconciles the verdicts
        into matched flags for outer-join null extension.
        """
        condition = self.condition
        join_type = self.join_type
        width = self.width()
        right_rows = [
            row for chunk in self.right.run_batches(ctx) for row in chunk.rows()
        ]

        if condition is None and join_type in ("inner", "left", "cross"):
            left_width = self.left.width()
            if not right_rows:
                if join_type == "left":
                    for chunk in self.left.run_batches(ctx):
                        n = len(chunk)
                        columns = [chunk.column(i) for i in range(left_width)]
                        columns += [[None] * n for _ in range(self.right.width())]
                        yield Chunk(columns=columns, nrows=n, width=width)
                return
            if len(right_rows) == 1:
                # The dominant provenance shape: one (scalar/grand-
                # aggregate) row glued onto every left row.
                single = right_rows[0]
                for chunk in self.left.run_batches(ctx):
                    n = len(chunk)
                    columns = [chunk.column(i) for i in range(left_width)]
                    columns += [[value] * n for value in single]
                    yield Chunk(columns=columns, nrows=n, width=width)
                return
            for chunk in self.left.run_batches(ctx):
                if ctx.deadline is not None:
                    ctx.check_deadline()
                # Wide cross product: one tuple concatenation per pair
                # beats building every output column element-wise.
                out = [
                    left_row + right_row
                    for left_row in chunk.rows()
                    for right_row in right_rows
                ]
                yield from chunk_rows(out, width, ctx.batch_size)
            return

        null_left = (None,) * self.left.width()
        null_right = (None,) * self.right.width()
        right_matched = (
            bytearray(len(right_rows)) if join_type in ("right", "full") else None
        )
        preserve_left = join_type in ("left", "full")
        count = len(right_rows)
        step = max(1, ctx.batch_size // max(count, 1))
        deadline = ctx.deadline
        for chunk in self.left.run_batches(ctx):
            left_rows = chunk.rows()
            out = []
            append = out.append
            for start in range(0, len(left_rows), step):
                if deadline is not None:
                    ctx.check_deadline()
                block = left_rows[start : start + step]
                pairs = [
                    left_row + right_row
                    for left_row in block
                    for right_row in right_rows
                ]
                if condition is not None and pairs:
                    verdicts = condition(Chunk.from_rows(pairs, width), ctx)
                else:
                    verdicts = [True] * len(pairs)
                for offset, left_row in enumerate(block):
                    base = offset * count
                    matched = False
                    for index in range(count):
                        if verdicts[base + index] is True:
                            matched = True
                            if right_matched is not None:
                                right_matched[index] = 1
                            append(pairs[base + index])
                    if not matched and preserve_left:
                        append(left_row + null_right)
            if out:
                yield from chunk_rows(out, width, ctx.batch_size)
        if right_matched is not None:
            leftovers = [
                null_left + right_row
                for index, right_row in enumerate(right_rows)
                if not right_matched[index]
            ]
            if leftovers:
                yield from chunk_rows(leftovers, width, ctx.batch_size)


class _PairChunk(Chunk):
    """Candidate join pairs viewed as one chunk, concatenation deferred.

    Residual kernels read a handful of columns of the combined row;
    gathering those straight from the probe- and build-side tuples
    avoids allocating a wide concatenated tuple for every candidate
    pair — only pairs that pass the residual are materialized.  Kernels
    touch ``column``/``rows``/``select``/``len`` only, all overridden
    (``rows`` serves per-row fallback kernels and does concatenate).
    """

    __slots__ = ("left_rows", "right_rows", "split")

    def __init__(
        self,
        left_rows: list[Row],
        right_rows: list[Row],
        split: int,
        width: int,
    ) -> None:
        super().__init__(nrows=len(left_rows), width=width)
        self.left_rows = left_rows
        self.right_rows = right_rows
        self.split = split

    def column(self, index: int) -> list:
        if index < self.split:
            return [row[index] for row in self.left_rows]
        index -= self.split
        return [row[index] for row in self.right_rows]

    def rows(self) -> list[tuple]:
        if self._rows is None:
            self._rows = [
                left + right
                for left, right in zip(self.left_rows, self.right_rows)
            ]
        return self._rows

    def select(self, logical: Sequence[int]) -> "Chunk":
        return _PairChunk(
            [self.left_rows[i] for i in logical],
            [self.right_rows[i] for i in logical],
            self.split,
            self.width,
        )


class _NullKey:
    """Hashable stand-in letting null-safe keys match NULL with NULL."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NULL>"


NULL_KEY = _NullKey()


class HashJoin(PlanNode):
    """Equi-join on hashed keys with optional residual condition.

    The build side is the right input.  For plain ``=`` keys, NULL never
    matches; keys flagged null-safe (the rewriter's ``<=>`` joins) match
    NULL with NULL.  Unmatched rows are preserved for outer-join null
    extension either way.

    ``left_keys`` / ``right_keys`` are key kernels over each input's
    chunks; ``residual`` (optional) is a kernel over the combined row.
    ``left_key_slots`` / ``right_key_slots`` (set by the planner when
    every key is a plain column reference) record which input slots the
    keys read, enabling slice pushdown to remap keys onto narrowed
    inputs.  ``columnar_output`` switches the inner-join fast path from
    row concatenation to per-column gathers — chosen by the cost-based
    planner for narrow outputs feeding columnar consumers.
    """

    left_key_slots: Optional[list[int]] = None
    right_key_slots: Optional[list[int]] = None
    columnar_output: bool = False

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        join_type: str,
        left_keys: list[BatchExpr],
        right_keys: list[BatchExpr],
        residual: Optional[BatchExpr] = None,
        null_safe: Optional[list[bool]] = None,
    ) -> None:
        if not left_keys or len(left_keys) != len(right_keys):
            raise ExecutionError("hash join requires matching key lists")
        self.left = left
        self.right = right
        self.join_type = join_type
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.null_safe = null_safe or [False] * len(left_keys)
        self.output_names = list(left.output_names) + list(right.output_names)
        self.estimate = max(left.estimate, right.estimate)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"HashJoin ({self.join_type}, {len(self.left_keys)} keys)"

    def _key_rows(self, kernels: list[BatchExpr], chunk: Chunk, ctx: ExecContext) -> list:
        """Per-row hash keys of a chunk (None = can never match).

        Single-column keys stay *raw values* (no tuple wrapping): NULL
        maps to None (never matches) or, for null-safe keys, to the
        NULL_KEY sentinel (NULL matches NULL).  Multi-column keys are
        tuples with the same per-column treatment.
        """
        key_columns = [kernel(chunk, ctx) for kernel in kernels]
        null_safe = self.null_safe
        if len(key_columns) == 1:
            column = key_columns[0]
            if null_safe[0]:
                return [NULL_KEY if v is None else v for v in column]
            return column
        keys: list = []
        append = keys.append
        for values in zip(*key_columns):
            if None in values:
                parts = []
                dead = False
                for value, safe in zip(values, null_safe):
                    if value is None:
                        if not safe:
                            dead = True
                            break
                        value = NULL_KEY
                    parts.append(value)
                append(None if dead else tuple(parts))
            else:
                append(values)
        return keys

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        """Batch hash join, hybrid row/column.

        Keys are computed *column-wise* (the key kernels) and the probe
        is a handful of C-level comprehensions over the key column;
        output rows are assembled with one tuple concatenation per match
        — for the wide rows of provenance joins, a single C memcpy beats
        per-column gathers.  The output chunk is row-backed; downstream
        kernels extract just the columns they touch.  A residual on an
        inner join is a plain filter over the candidate pairs; residual
        outer joins take :meth:`_run_batches_residual`.
        """
        if self.residual is not None and self.join_type != "inner":
            yield from self._run_batches_residual(ctx)
            return
        residual = self.residual
        join_type = self.join_type
        width = self.width()
        null_left = (None,) * self.left.width()
        null_right = (None,) * self.right.width()

        build, right_rows, right_matched = self._spool_build_side(ctx)
        build_get = build.get
        preserve_left = join_type in ("left", "full")

        right_columns: Optional[list[list]] = None
        if (
            self.columnar_output
            and residual is None
            and join_type == "inner"
            and right_rows
        ):
            right_columns = [list(column) for column in zip(*right_rows)]

        for chunk in self.left.run_batches(ctx):
            keys = self._key_rows(self.left_keys, chunk, ctx)
            if right_columns is not None and not chunk.is_row_backed():
                # Columnar output (narrow joins feeding columnar
                # consumers): gather each surviving column once instead
                # of concatenating row tuples per match.
                buckets = [build_get(key) for key in keys]
                probe_positions: list[int] = []
                build_positions: list[int] = []
                for position, bucket in enumerate(buckets):
                    if bucket is not None:
                        for index in bucket:
                            probe_positions.append(position)
                            build_positions.append(index)
                if not probe_positions:
                    continue
                columns = [
                    [column[p] for p in probe_positions]
                    for column in (
                        chunk.column(i) for i in range(self.left.width())
                    )
                ] + [
                    [column[i] for i in build_positions]
                    for column in right_columns
                ]
                yield Chunk(
                    columns=columns, nrows=len(probe_positions), width=width
                )
                continue
            left_rows = chunk.rows()
            if right_matched is None and not preserve_left:
                # Inner join fast path: two C-level comprehensions.
                # None keys look up None, which is never a dict key
                # (keys hash to values or tuples).
                buckets = [build_get(key) for key in keys]
                out = [
                    left_rows[position] + right_rows[index]
                    for position, bucket in enumerate(buckets)
                    if bucket is not None
                    for index in bucket
                ]
            else:
                out = []
                append = out.append
                for position, key in enumerate(keys):
                    bucket = build_get(key) if key is not None else None
                    if bucket is not None:
                        left_row = left_rows[position]
                        if right_matched is None:
                            for index in bucket:
                                append(left_row + right_rows[index])
                        else:
                            for index in bucket:
                                append(left_row + right_rows[index])
                                right_matched[index] = 1
                    elif preserve_left:
                        append(left_rows[position] + null_right)
            if not out:
                continue
            result = Chunk.from_rows(out, width)
            if residual is not None:
                result = apply_batch_predicates(result, (residual,), ctx)
                if len(result) == 0:
                    continue
            yield result
        if right_matched is not None:
            leftovers = [
                null_left + right_rows[index]
                for index in range(len(right_rows))
                if not right_matched[index]
            ]
            if leftovers:
                yield Chunk.from_rows(leftovers, width)

    def _spool_build_side(
        self, ctx: ExecContext
    ) -> tuple[dict, list[Row], Optional[bytearray]]:
        """Spool the right input as rows, hashing the key columns.

        Shared by the residual and no-residual paths: returns the
        ``key -> [row index]`` build table, the spooled rows, and the
        matched-flag array for right/full outer joins.
        """
        build: dict = {}
        build_setdefault = build.setdefault
        right_rows: list[Row] = []
        for chunk in self.right.run_batches(ctx):
            keys = self._key_rows(self.right_keys, chunk, ctx)
            base = len(right_rows)
            right_rows.extend(chunk.rows())
            for offset, key in enumerate(keys):
                if key is not None:
                    build_setdefault(key, []).append(base + offset)
        right_matched = (
            bytearray(len(right_rows))
            if self.join_type in ("right", "full")
            else None
        )
        return build, right_rows, right_matched

    def _run_batches_residual(self, ctx: ExecContext) -> Iterator[Chunk]:
        """Residual outer joins: two-phase filter-then-reconcile.

        Every candidate (probe row × bucket entry) pair of a chunk is
        gathered into ONE combined chunk, the residual kernel runs once
        over it, and the verdicts are reconciled back into per-probe
        matched flags (driving LEFT/FULL null extension) and build-side
        matched flags (RIGHT/FULL).  Candidate building and the
        surviving-pair gather are C-level comprehensions; only the flag
        updates loop in Python.
        """
        join_type = self.join_type
        residual = self.residual
        width = self.width()
        null_left = (None,) * self.left.width()
        null_right = (None,) * self.right.width()
        batch_size = ctx.batch_size

        build, right_rows, right_matched = self._spool_build_side(ctx)
        build_get = build.get
        preserve_left = join_type in ("left", "full")

        for chunk in self.left.run_batches(ctx):
            keys = self._key_rows(self.left_keys, chunk, ctx)
            left_rows = chunk.rows()
            buckets = [
                build_get(key) if key is not None else None for key in keys
            ]
            left_gather = [
                left_rows[position]
                for position, bucket in enumerate(buckets)
                if bucket is not None
                for _ in bucket
            ]
            right_gather = [
                right_rows[index]
                for bucket in buckets
                if bucket is not None
                for index in bucket
            ]
            verdicts = (
                residual(
                    _PairChunk(left_gather, right_gather, len(null_left), width),
                    ctx,
                )
                if left_gather
                else []
            )
            out = [
                left + right
                for left, right, verdict in zip(left_gather, right_gather, verdicts)
                if verdict is True
            ]
            if right_matched is not None:
                cursor = 0
                for bucket in buckets:
                    if bucket is not None:
                        for index in bucket:
                            if verdicts[cursor] is True:
                                right_matched[index] = 1
                            cursor += 1
            if preserve_left:
                # Candidates are probe-major, so each probe row owns one
                # contiguous verdict segment; ``True in seg`` is a
                # C-level scan.
                cursor = 0
                unmatched = []
                for position, bucket in enumerate(buckets):
                    if bucket is None:
                        unmatched.append(left_rows[position])
                        continue
                    step = cursor + len(bucket)
                    if True not in verdicts[cursor:step]:
                        unmatched.append(left_rows[position])
                    cursor = step
                out.extend(row + null_right for row in unmatched)
            if out:
                yield from chunk_rows(out, width, batch_size)
        if right_matched is not None:
            leftovers = [
                null_left + right_rows[index]
                for index in range(len(right_rows))
                if not right_matched[index]
            ]
            if leftovers:
                yield from chunk_rows(leftovers, width, batch_size)


class HashAggregate(PlanNode):
    """Grouped aggregation.

    Output rows are ``group_values + aggregate_results``.  With no grouping
    columns a single group exists even for empty input (SQL grand
    aggregate), producing count=0 / sum=NULL defaults — the behaviour the
    paper's Fig. 11 footnote 4 relies on.

    ``group_exprs`` are the group-key kernels.  Argument evaluation is
    shared (``sum(x)`` + ``avg(x)`` read one evaluation of ``x``):
    ``unique_args`` are the kernels of the distinct argument
    expressions, ``arg_slots[i]`` the index aggregate ``i`` reads (None
    = no argument, e.g. count(*)).
    """

    def __init__(
        self,
        child: PlanNode,
        group_exprs: list[BatchExpr],
        agg_factories: list[Callable[[], AggState]],
        arg_slots: list[Optional[int]],
        unique_args: list[BatchExpr],
        output_names: list[str],
    ) -> None:
        self.child = child
        self.group_exprs = group_exprs
        self.agg_factories = agg_factories
        self.arg_slots = arg_slots
        self.unique_args = unique_args
        self.output_names = output_names
        self.estimate = max(child.estimate * 0.1, 1.0)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"HashAggregate ({len(self.group_exprs)} keys, {len(self.agg_factories)} aggs)"

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        factories = self.agg_factories
        group_kernels = self.group_exprs
        arg_kernels = self.unique_args
        state_slots = list(zip(range(len(factories)), self.arg_slots))
        groups: dict[tuple, list[AggState]] = {}
        groups_get = groups.get
        order: list[tuple] = []

        grand_states: Optional[list[AggState]] = None
        for chunk in self.child.run_batches(ctx):
            n = len(chunk)
            if n == 0:
                continue
            arg_columns = [kernel(chunk, ctx) for kernel in arg_kernels]
            if not group_kernels:
                # Grand aggregate: every aggregate consumes whole column
                # slices (C-level folds in the hot accumulators).
                if grand_states is None:
                    grand_states = [factory() for factory in factories]
                for index, slot in state_slots:
                    if slot is None:
                        grand_states[index].add_count(n)
                    else:
                        grand_states[index].add_many(arg_columns[slot])
                continue
            group_columns = [kernel(chunk, ctx) for kernel in group_kernels]
            if len(group_columns) == 1:
                keys: Sequence[tuple] = [(v,) for v in group_columns[0]]
            else:
                keys = list(zip(*group_columns))
            # Two-pass: partition the chunk's row positions by key, then
            # feed each group's slice of every argument column at once.
            partitions: dict[tuple, list[int]] = {}
            partitions_get = partitions.get
            for position, key in enumerate(keys):
                bucket = partitions_get(key)
                if bucket is None:
                    partitions[key] = [position]
                else:
                    bucket.append(position)
            for key, positions in partitions.items():
                states = groups_get(key)
                if states is None:
                    states = [factory() for factory in factories]
                    groups[key] = states
                    order.append(key)
                count = len(positions)
                # Gather each unique argument slot once per group; every
                # aggregate reading that slot (sum(x) + avg(x)) shares
                # the slice.
                gathered: dict[int, list] = {}
                for index, slot in state_slots:
                    if slot is None:
                        states[index].add_count(count)
                        continue
                    values = gathered.get(slot)
                    if values is None:
                        column = arg_columns[slot]
                        values = [column[i] for i in positions]
                        gathered[slot] = values
                    states[index].add_many(values)

        width = self.width()
        if grand_states is not None:
            yield Chunk.from_rows(
                [tuple(state.result() for state in grand_states)], width
            )
            return
        if not groups and not self.group_exprs:
            states = [factory() for factory in factories]
            yield Chunk.from_rows(
                [tuple(state.result() for state in states)], width
            )
            return
        out = [
            key + tuple(state.result() for state in groups[key]) for key in order
        ]
        yield from chunk_rows(out, width, ctx.batch_size)


class SortNode(PlanNode):
    """Sort on output slots.  ``specs``: (slot, descending, nulls_first)."""

    def __init__(self, child: PlanNode, specs: list[tuple[int, bool, Optional[bool]]]) -> None:
        self.child = child
        self.specs = specs
        self.output_names = list(child.output_names)
        self.estimate = child.estimate

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        rows = [
            row for chunk in self.child.run_batches(ctx) for row in chunk.rows()
        ]
        yield from chunk_rows(self._sorted_rows(rows), self.width(), ctx.batch_size)

    def _sorted_rows(self, rows: list[Row]) -> list[Row]:
        # Stable sort from the last key to the first gives multi-key order.
        for slot, descending, nulls_first in reversed(self.specs):
            rows.sort(
                key=self._make_key(slot, descending, nulls_first),
                reverse=descending,
            )
        return rows

    @staticmethod
    def _make_key(slot: int, descending: bool, nulls_first: Optional[bool]):
        # SQL defaults: NULLS LAST for ASC, NULLS FIRST for DESC.  Ranking
        # nulls high (rank 1) realizes both defaults because reverse=True
        # flips the rank order.  Explicit NULLS FIRST/LAST picks the rank
        # that lands nulls on the requested side after the optional flip.
        if nulls_first is None:
            null_rank = 1
        else:
            null_rank = 1 if nulls_first == descending else 0
        non_null_rank = 1 - null_rank

        def key(row: Row):
            value = row[slot]
            if value is None:
                return (null_rank, 0)
            return (non_null_rank, value)

        return key


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, count: Optional[int], offset: int = 0) -> None:
        self.child = child
        self.count = count
        self.offset = offset
        self.output_names = list(child.output_names)
        self.estimate = min(child.estimate, count if count is not None else child.estimate)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        to_skip = self.offset
        remaining = self.count
        for chunk in self.child.run_batches(ctx):
            n = len(chunk)
            if to_skip:
                if n <= to_skip:
                    to_skip -= n
                    continue
                chunk = chunk.slice(to_skip, None)
                n = len(chunk)
                to_skip = 0
            if remaining is not None:
                if remaining <= 0:
                    return
                if n > remaining:
                    chunk = chunk.slice(0, remaining)
                    n = remaining
                remaining -= n
            if n:
                yield chunk


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.output_names = list(child.output_names)
        self.estimate = max(child.estimate * 0.5, 1.0)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        seen: set = set()
        add = seen.add
        width = self.width()
        for chunk in self.child.run_batches(ctx):
            fresh: list[Row] = []
            append = fresh.append
            for row in chunk.rows():
                if row not in seen:
                    add(row)
                    append(row)
            if fresh:
                yield Chunk.from_rows(fresh, width)


class SetOpPlanNode(PlanNode):
    """UNION / INTERSECT / EXCEPT with ALL and DISTINCT variants.

    Implements the bag-operator definitions of the Perm algebra
    (paper Fig. 1a/1b) directly with counters.
    """

    def __init__(self, op: str, all_flag: bool, left: PlanNode, right: PlanNode) -> None:
        if left.width() != right.width():
            raise ExecutionError("set operation inputs differ in width")
        self.op = op
        self.all = all_flag
        self.left = left
        self.right = right
        self.output_names = list(left.output_names)
        self.estimate = left.estimate + right.estimate

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"SetOp ({self.op}{' all' if self.all else ''})"

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        width = self.width()
        if self.op == "union":
            if self.all:
                yield from self.left.run_batches(ctx)
                yield from self.right.run_batches(ctx)
                return
            seen: set = set()
            add = seen.add
            for source in (self.left, self.right):
                for chunk in source.run_batches(ctx):
                    fresh: list[Row] = []
                    for row in chunk.rows():
                        if row not in seen:
                            add(row)
                            fresh.append(row)
                    if fresh:
                        yield Chunk.from_rows(fresh, width)
            return
        right_counts = Counter(
            row for chunk in self.right.run_batches(ctx) for row in chunk.rows()
        )
        if self.op == "intersect":
            if self.all:
                remaining = dict(right_counts)
                for chunk in self.left.run_batches(ctx):
                    out: list[Row] = []
                    for row in chunk.rows():
                        count = remaining.get(row, 0)
                        if count > 0:
                            remaining[row] = count - 1
                            out.append(row)
                    if out:
                        yield Chunk.from_rows(out, width)
                return
            emitted: set = set()
            for chunk in self.left.run_batches(ctx):
                out = []
                for row in chunk.rows():
                    if row in right_counts and row not in emitted:
                        emitted.add(row)
                        out.append(row)
                if out:
                    yield Chunk.from_rows(out, width)
            return
        if self.op == "except":
            if self.all:
                remaining = dict(right_counts)
                for chunk in self.left.run_batches(ctx):
                    out = []
                    for row in chunk.rows():
                        count = remaining.get(row, 0)
                        if count > 0:
                            remaining[row] = count - 1
                            continue
                        out.append(row)
                    if out:
                        yield Chunk.from_rows(out, width)
                return
            emitted = set()
            for chunk in self.left.run_batches(ctx):
                out = []
                for row in chunk.rows():
                    if row not in right_counts and row not in emitted:
                        emitted.add(row)
                        out.append(row)
                if out:
                    yield Chunk.from_rows(out, width)
            return
        raise ExecutionError(f"unknown set operation {self.op!r}")


class MaterializeNode(PlanNode):
    """Caches child output; used when a subplan is executed repeatedly.

    The chunk spool lives in ``ctx.caches`` (keyed by the node), not on
    the plan object: within one execution every consumer shares one
    materialization, while a prepared plan re-run on a fresh context
    re-reads live table data.
    """

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.output_names = list(child.output_names)
        self.estimate = child.estimate

    def children(self) -> list[PlanNode]:
        return [self.child]

    def run_batches(self, ctx: ExecContext) -> Iterator[Chunk]:
        chunks = ctx.caches.get(self)
        if chunks is None:
            chunks = [chunk.compact() for chunk in self.child.run_batches(ctx)]
            ctx.caches[self] = chunks
        return iter(chunks)
