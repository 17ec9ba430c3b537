"""Global server observability counters.

Everything the ``stats`` wire op and the shell's ``\\server stats``
report: request totals by outcome, a sliding latency window for
p50/p99, and a timestamp window for queries-per-second.  Recording
happens on the asyncio thread; snapshots there and on the shell's
thread — one lock, held only for deque appends and snapshot copies.
"""

from __future__ import annotations

import threading
import time
from collections import deque

#: Latency samples kept for percentile estimates.
LATENCY_WINDOW = 4096

#: Seconds of completion timestamps the QPS estimate averages over.
QPS_WINDOW_SECONDS = 10.0


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    index = min(int(fraction * len(samples)), len(samples) - 1)
    return samples[index]


class ServerStats:
    """Monotonic counters + sliding windows for one server instance."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.total = 0
        self.ok = 0
        self.errors = 0
        self.timeouts = 0
        self.overloads = 0
        self.shutdown_refusals = 0
        self.frames_rejected = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._completions: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._lock = threading.Lock()

    def record(self, latency: float, outcome: str) -> None:
        """Count one finished request (outcome: ok/error/timeout/
        overloaded/shutting_down/frame_too_large)."""
        now = time.monotonic()
        with self._lock:
            self.total += 1
            if outcome == "ok":
                self.ok += 1
            elif outcome == "timeout":
                self.timeouts += 1
                self.errors += 1
            elif outcome == "overloaded":
                self.overloads += 1
                self.errors += 1
            elif outcome == "shutting_down":
                self.shutdown_refusals += 1
                self.errors += 1
            elif outcome == "frame_too_large":
                self.frames_rejected += 1
                self.errors += 1
            else:
                self.errors += 1
            self._latencies.append(latency)
            self._completions.append(now)

    def snapshot(self, active_sessions: int, pending: int) -> dict:
        now = time.monotonic()
        with self._lock:
            latencies = sorted(self._latencies)
            recent = [t for t in self._completions if now - t <= QPS_WINDOW_SECONDS]
            data = {
                "uptime_seconds": round(now - self.started, 3),
                "total_requests": self.total,
                "ok": self.ok,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "overloads": self.overloads,
                "shutdown_refusals": self.shutdown_refusals,
                "frames_rejected": self.frames_rejected,
            }
        data["qps"] = round(len(recent) / QPS_WINDOW_SECONDS, 3)
        if latencies:
            data["latency_ms"] = {
                "p50": round(percentile(latencies, 0.50) * 1000.0, 3),
                "p99": round(percentile(latencies, 0.99) * 1000.0, 3),
                "max": round(latencies[-1] * 1000.0, 3),
            }
        data["active_sessions"] = active_sessions
        data["pending_requests"] = pending
        return data
