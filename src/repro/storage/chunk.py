"""Columnar batches: the unit of vectorized execution.

A :class:`Chunk` is a horizontal slice of a relation in columnar form:
one Python list per attribute plus a row count.  Plan nodes exchange
chunks through ``run_batches`` rather than single tuples, which
amortizes the interpreter's per-row dispatch cost (generator frames,
closure calls) over :data:`DEFAULT_BATCH_SIZE` rows at a time.

Three design points keep chunks cheap in pure Python:

* **Dual backing.**  A chunk can be backed by columns, by row tuples, or
  both; each representation is materialized lazily with one C-level
  ``zip(*...)`` transpose and then cached.  Operators consume whichever
  form suits them (expression kernels read columns, hash joins read
  rows) without per-row Python loops at the boundary.

* **Selection vectors.**  Filters do not copy data: they attach a list
  of surviving physical row positions (``sel``).  Downstream readers
  gather lazily — :meth:`column` applies the selection per column on
  first use, so a projection after a filter touches only the columns it
  actually needs and no intermediate rows are ever materialized.

* **NULL stays in-band.**  SQL NULL is ``None`` inside the column lists
  (no separate validity mask): boolean columns are tri-valued
  ``True``/``False``/``None``, which is exactly the three-valued logic
  the expression kernels implement.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

#: Rows per chunk.  Python columns hold object *pointers*, so unlike a
#: native columnar engine there is no L1-blocking payoff to small
#: vectors — per-chunk interpreter overhead dominates instead.  A large
#: batch lets every table at benchmark scale stream as a single
#: zero-copy chunk straight out of the heap's columnar cache, while
#: still bounding memory on genuinely large scans.
DEFAULT_BATCH_SIZE = 65536


class Chunk:
    """A batch of rows, columnar-first, with an optional selection vector.

    ``nrows`` is the *physical* length of every column; the *logical*
    row count (``len(chunk)``) is ``len(sel)`` when a selection vector
    is present.  ``sel`` holds physical positions in output order and is
    only ever set on column-backed chunks.
    """

    __slots__ = ("_columns", "_rows", "_phys_rows", "nrows", "width", "sel")

    def __init__(
        self,
        columns: Optional[list[list]] = None,
        nrows: int = 0,
        width: Optional[int] = None,
        sel: Optional[list[int]] = None,
        rows: Optional[list[tuple]] = None,
        phys_rows: Optional[list[tuple]] = None,
    ) -> None:
        self._columns = columns
        self._rows = rows
        # Physical row tuples aligned with the columns (the heap's own
        # row list, shared by reference).  With a selection vector,
        # ``rows()`` then gathers original tuples instead of transposing
        # columns — a scan→filter→join chain never rebuilds rows.
        self._phys_rows = phys_rows
        self.nrows = nrows
        self.width = len(columns) if width is None and columns is not None else (width or 0)
        self.sel = sel

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_columns(cls, columns: list[list], nrows: int) -> "Chunk":
        return cls(columns=columns, nrows=nrows, width=len(columns))

    @classmethod
    def from_rows(cls, rows: list[tuple], width: int) -> "Chunk":
        return cls(nrows=len(rows), width=width, rows=rows)

    # -- shape --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sel) if self.sel is not None else self.nrows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = []
        if self._columns is not None:
            backing.append("cols")
        if self._rows is not None:
            backing.append("rows")
        suffix = f", sel={len(self.sel)}" if self.sel is not None else ""
        return f"Chunk({len(self)}x{self.width} [{'+'.join(backing)}]{suffix})"

    # -- representation access ----------------------------------------------

    def is_row_backed(self) -> bool:
        """True when only the row representation is materialized."""
        return self._columns is None and self._rows is not None

    def physical_columns(self) -> list[list]:
        """The backing columns (physical order, selection NOT applied)."""
        if self._columns is None:
            # Row-backed chunks never carry a selection vector, so the
            # transpose is the physical layout.
            if self.width == 0:
                self._columns = []
            elif not self._rows:
                self._columns = [[] for _ in range(self.width)]
            else:
                self._columns = [list(c) for c in zip(*self._rows)]
        return self._columns

    def column(self, index: int) -> list:
        """One logical column (selection vector applied, lazily).

        Row-backed chunks extract the one requested column directly
        instead of transposing the whole chunk — aggregate and join-key
        kernels typically touch a few columns of a wide row.
        """
        if self._columns is None and self._rows is not None:
            return [row[index] for row in self._rows]
        col = self.physical_columns()[index]
        sel = self.sel
        if sel is None:
            return col
        return [col[i] for i in sel]

    def rows(self) -> list[tuple]:
        """The logical rows as tuples (materialized once, then cached)."""
        if self._rows is None:
            sel = self.sel
            phys = self._phys_rows
            if phys is not None:
                self._rows = phys if sel is None else [phys[i] for i in sel]
                return self._rows
            columns = self.physical_columns()
            if not columns:
                self._rows = [()] * len(self)
            elif sel is None:
                self._rows = list(zip(*columns))
            elif len(sel) * 3 > self.nrows:
                # Dense selection: one C-level transpose of the whole
                # chunk plus a row gather beats per-column gathers.
                all_rows = list(zip(*columns))
                self._rows = [all_rows[i] for i in sel]
            else:
                self._rows = list(zip(*([col[i] for i in sel] for col in columns)))
                # The gather consumed the selection; cache as compact rows.
        return self._rows

    # -- derived chunks -----------------------------------------------------

    def with_sel(self, sel: list[int]) -> "Chunk":
        """This chunk's columns restricted to the given physical rows."""
        phys = self._phys_rows
        if phys is None and self.sel is None:
            # Without a selection the cached logical rows ARE physical.
            phys = self._rows
        return Chunk(
            columns=self.physical_columns(),
            nrows=self.nrows,
            width=self.width,
            sel=sel,
            phys_rows=phys,
        )

    def select(self, logical: Sequence[int]) -> "Chunk":
        """Restrict to a subset of *logical* positions (for progressive
        predicate evaluation: AND/OR/CASE evaluate later arms only on
        still-active rows)."""
        if self.sel is None:
            if self._columns is None and self._rows is not None:
                # Row-backed: gather rows directly, skip the transpose.
                rows = self._rows
                return Chunk.from_rows([rows[i] for i in logical], self.width)
            return self.with_sel(list(logical))
        sel = self.sel
        return self.with_sel([sel[i] for i in logical])

    def project(self, keep: list[int]) -> "Chunk":
        """Reorder/subset columns (zero-copy when column-backed)."""
        if self._columns is not None:
            columns = self._columns
            return Chunk(
                columns=[columns[i] for i in keep],
                nrows=self.nrows,
                width=len(keep),
                sel=self.sel,
            )
        rows = self.rows()
        if len(keep) == 1:
            index = keep[0]
            return Chunk.from_rows([(row[index],) for row in rows], 1)
        if not keep:
            return Chunk(nrows=len(rows), width=0, rows=[()] * len(rows))
        import operator

        getter = operator.itemgetter(*keep)
        return Chunk.from_rows([getter(row) for row in rows], len(keep))

    def slice(self, start: int, stop: Optional[int]) -> "Chunk":
        """A logical row range (LIMIT/OFFSET)."""
        if self.sel is not None:
            return self.with_sel(self.sel[start:stop])
        if self._rows is not None:
            rows = self._rows[start:stop]
            return Chunk.from_rows(rows, self.width)
        columns = [col[start:stop] for col in self.physical_columns()]
        upper = self.nrows if stop is None else min(stop, self.nrows)
        return Chunk(columns=columns, nrows=max(upper - start, 0), width=self.width)

    def compact(self) -> "Chunk":
        """Apply the selection vector; result has ``sel is None``."""
        if self.sel is None:
            return self
        if self._phys_rows is not None:
            # One row gather from the shared heap rows beats gathering
            # every column; consumers re-extract columns on demand.
            return Chunk.from_rows(self.rows(), self.width)
        return Chunk(
            columns=[self.column(i) for i in range(self.width)],
            nrows=len(self.sel),
            width=self.width,
        )


def chunk_rows(
    rows: list[tuple], width: int, batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[Chunk]:
    """Chunk a materialized row list by slicing (no row loop)."""
    count = len(rows)
    if count <= batch_size:
        if count:
            yield Chunk.from_rows(rows, width)
        return
    for start in range(0, count, batch_size):
        yield Chunk.from_rows(rows[start : start + batch_size], width)
