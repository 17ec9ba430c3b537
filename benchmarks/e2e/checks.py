"""Output checks that do not let the engine grade itself.

Per twin group (statements sharing one normal result):

(a) the deduplicated projection of a witness result onto the original
    columns equals the normal twin's row set — the paper's ``q+``
    contract; the same holds for a polynomial twin's visible columns;
(b) for bag-semantics (SPJ) polynomial twins, evaluating each
    polynomial in the counting semiring gives the row's multiplicity in
    the normal result;
(c) row count, an order-insensitive digest of the non-float values and
    the per-column float sums equal ``expected/<workload>.json``, which
    holds only statements on which the python executor and SQLite agreed
    when the file was written.

Floats are compared with a relative tolerance instead of being rounded
into the digest: a later change may legally re-associate a float sum.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from collections import Counter
from pathlib import Path
from typing import Any, Optional

from repro.semiring import Polynomial, get_semiring

REL_TOL = 1e-9
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def _rows_close(left: tuple, right: tuple) -> bool:
    return len(left) == len(right) and all(_close(a, b) for a, b in zip(left, right))


def same_row_bag(left: Counter, right: Counter) -> bool:
    """Bag equality with float tolerance.  Exact matches cancel first, so
    the pairwise tolerant comparison only sees rows that differ at all."""
    only_left = list((left - right).elements())
    only_right = list((right - left).elements())
    if len(only_left) != len(only_right):
        return False
    for row in only_left:
        for i, candidate in enumerate(only_right):
            if _rows_close(row, candidate):
                del only_right[i]
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# (c) summaries: count + digest of exact values + float column sums
# ---------------------------------------------------------------------------


def summarize(rows: list[tuple]) -> dict:
    """Order-insensitive summary of a result."""
    if not rows:
        return {"rows": 0, "digest": "0", "float_sums": []}
    columns = list(zip(*rows))
    exact = []
    float_sums = []
    for column in columns:
        if any(type(v) is float for v in column):
            present = [v for v in column if v is not None]
            float_sums.append([math.fsum(present), math.fsum(abs(v) for v in present)])
        elif any(isinstance(v, Polynomial) for v in column):
            exact.append([v.to_wire() if v is not None else None for v in column])
        else:
            exact.append(column)
    crc = zlib.crc32
    digest = sum(crc(repr(row).encode()) for row in zip(*exact)) if exact else 0
    return {"rows": len(rows), "digest": format(digest, "x"), "float_sums": float_sums}


def summaries_agree(got: dict, want: dict) -> bool:
    if got["rows"] != want["rows"] or got["digest"] != want["digest"]:
        return False
    if len(got["float_sums"]) != len(want["float_sums"]):
        return False
    return all(
        abs(g[0] - w[0]) <= REL_TOL * max(g[1], w[1]) + 1e-12
        for g, w in zip(got["float_sums"], want["float_sums"])
    )


# ---------------------------------------------------------------------------
# Drift guard
# ---------------------------------------------------------------------------


def drift_digest(statement_texts: list[str], tables: dict[str, list[tuple]]) -> str:
    """sha256 over the generated statement texts and, per table, the row
    count and a checksum of the rows — what the workload *is*."""
    sha = hashlib.sha256()
    for text in statement_texts:
        sha.update(text.encode())
        sha.update(b"\0")
    for name in sorted(tables):
        rows = tables[name]
        sha.update(f"{name}:{len(rows)}:{zlib.crc32(repr(rows).encode()):x};".encode())
    return sha.hexdigest()


def load_expected(workload: str) -> Optional[dict]:
    """``{"drift": sha256, "statements": {sid: summary}}``, or None when
    no reference was ever written for the workload."""
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


# ---------------------------------------------------------------------------
# The checker: fed (statement, result) pairs in execution order
# ---------------------------------------------------------------------------


class Checker:
    """Buffers one twin group at a time; ``failures`` lists every miss."""

    def __init__(self, expected: Optional[dict]) -> None:
        self.expected = (expected or {}).get("statements", {})
        self.failures: list[str] = []
        self.checked = Counter()
        #: summary of the first result seen per statement id — (c) applies
        #: to that occurrence only (a DML pass re-reads under new states)
        self.summaries: dict[str, dict] = {}
        self._group: Optional[str] = None
        self._results: list[tuple] = []

    def feed(self, stmt, result) -> None:
        if stmt.kind == "write":
            return
        if stmt.query != self._group:
            self.flush()
            self._group = stmt.query
        self._results.append((stmt, result))

    def flush(self) -> None:
        results, self._results = self._results, []
        normal = next((r for s, r in results if s.kind == "normal"), None)
        for stmt, result in results:
            if stmt.sid not in self.summaries:
                summary = self.summaries[stmt.sid] = summarize(result.rows)
                want = self.expected.get(stmt.sid)
                if want is not None:
                    self.checked["expected"] += 1
                    if not summaries_agree(summary, want):
                        self.failures.append(
                            f"{stmt.sid}: result differs from expected "
                            f"({summary['rows']} rows vs {want['rows']})"
                        )
            if normal is None or stmt.kind == "normal":
                continue
            self._check_twin(stmt, result, normal)

    def _check_twin(self, stmt, result, normal) -> None:
        width = len(normal.columns)
        if list(result.columns[:width]) != list(normal.columns):
            self.failures.append(f"{stmt.sid}: original columns are not a prefix of the result")
            return
        if not result.rows and len(normal.rows) == 1 and all(v in (None, 0) for v in normal.rows[0]):
            # Known deviation (README, findings): an ungrouped aggregate over
            # empty input yields one NULL/0 row, its provenance twins none.
            self.checked["empty_aggregate_exempt"] += 1
            return
        self.checked["projection"] += 1
        projected = Counter(set(row[:width] for row in result.rows))
        if not same_row_bag(projected, Counter(set(normal.rows))):
            self.failures.append(
                f"{stmt.sid}: projection onto the original columns "
                f"({len(projected)} distinct rows) is not the normal result's row set "
                f"({len(set(normal.rows))})"
            )
        if stmt.kind == "poly" and stmt.bag:
            self.checked["counting"] += 1
            counting = get_semiring("counting")
            index = result.columns.index(result.annotation_column)
            counted: Counter = Counter()
            for row in result.rows:
                counted[row[:width]] += row[index].evaluate(None, counting)
            if not same_row_bag(counted, Counter(normal.rows)):
                self.failures.append(
                    f"{stmt.sid}: counting-semiring evaluation is not the normal "
                    "result's bag multiplicity"
                )

    def finish(self) -> list[str]:
        self.flush()
        return self.failures
