"""Morsel-driven intra-query parallelism.

The batch engine already decomposes scans into columnar chunks;
this package turns those chunk ranges into *morsels* — independently
schedulable scan ranges — and fans a parallel-safe pipeline out over a
worker pool, merging per-worker state at an exchange operator:

* :mod:`repro.parallel.dispatch` — the worker-pool abstraction.  The
  default strategy runs morsels on a shared thread pool; the interface
  is a pure ``tasks -> ordered results`` map so a
  ``ProcessPoolExecutor`` strategy can slot in later without touching
  the exchange operator.
* :mod:`repro.parallel.exchange` —
  :class:`~repro.parallel.exchange.ExchangeNode`, the plan operator
  that owns morsel generation, dispatch, and the ordered merge of
  worker outputs.  Provenance merges are semiring-native: witness-list
  pipelines concatenate worker chunks in morsel order (bag union), and
  partial polynomial aggregation merges by polynomial addition.
* :mod:`repro.parallel.planning` — the cost-based planner's post-pass
  that inserts exchanges above parallel-safe
  scan→filter→project(→partial-aggregate) pipelines when the estimated
  scan cardinality justifies the fan-out.

``parallel_workers=1`` disables exchange insertion entirely; serial
execution stays available as the differential oracle for the parallel
paths.
"""

from __future__ import annotations

import os
from typing import Optional

#: Rows per morsel.  Small enough that a 4-worker pool load-balances
#: over benchmark-scale tables, large enough that per-morsel dispatch
#: overhead (future + context + partial-state merge) stays amortized.
DEFAULT_MORSEL_SIZE = 4096

#: Scans below this row count never fan out: the fixed dispatch cost
#: exceeds any per-worker saving on small inputs.
MIN_PARALLEL_ROWS = 8192


def resolve_worker_count(setting: Optional[int]) -> int:
    """Normalize a worker-count knob: ``None`` means one worker per
    available core, anything else is clamped to at least 1."""
    if setting is None:
        return max(os.cpu_count() or 1, 1)
    return max(int(setting), 1)


from repro.parallel.dispatch import (  # noqa: E402
    SerialStrategy,
    ThreadPoolStrategy,
    WorkerPoolStrategy,
    get_strategy,
)
from repro.parallel.exchange import ExchangeNode  # noqa: E402
from repro.parallel.planning import insert_exchanges  # noqa: E402

__all__ = [
    "DEFAULT_MORSEL_SIZE",
    "MIN_PARALLEL_ROWS",
    "ExchangeNode",
    "SerialStrategy",
    "ThreadPoolStrategy",
    "WorkerPoolStrategy",
    "get_strategy",
    "insert_exchanges",
    "resolve_worker_count",
]
