"""Statements run with CPython's cyclic garbage collector paused.

The collector re-walks a statement's live intermediates and frees almost
nothing; docs/executor.md has the counts and the reasoning.  It is paused
only while exactly one statement is in flight, nested same-thread
statements count as one, and the embedder's setting always comes back.
"""

from __future__ import annotations

import gc
import threading
from contextlib import ContextDecorator

_lock = threading.Lock()
_in_flight = 0  # statements in flight over all threads (guarded by _lock)
_embedder_enabled = False  # gc.isenabled() when _in_flight left zero
_thread = threading.local()


def _count(delta: int) -> None:
    """Count a statement in (+1) or out (-1) and apply the invariant."""
    global _in_flight, _embedder_enabled
    with _lock:
        if _in_flight == 0:
            _embedder_enabled = gc.isenabled()
        _in_flight += delta
        if _embedder_enabled:
            (gc.disable if _in_flight == 1 else gc.enable)()


class _CollectorPause(ContextDecorator):
    def __enter__(self) -> None:
        depth = getattr(_thread, "depth", 0)
        _thread.depth = depth + 1
        if not depth:
            _count(+1)

    def __exit__(self, *exc_info) -> None:
        _thread.depth -= 1
        if not _thread.depth:
            _count(-1)


#: ``with collector_paused: ...`` or ``@collector_paused`` on a method.
collector_paused = _CollectorPause()
