"""What is left of morsel parallelism: one name, kept for callers.

The engine has one execution path, serial.  Morsel parallelism (an
exchange operator fanning scan pipelines out over threads or forked
processes) was slower than one worker in every dispatch mode and gave
TPC-H Q15 a wrong answer, so it was deleted.  Callers that still
resolve a worker count get one worker.
"""

from __future__ import annotations

from typing import Optional


def resolve_worker_count(setting: Optional[int] = None) -> int:
    """Always 1: every statement runs on the calling thread."""
    return 1


__all__ = ["resolve_worker_count"]
