"""The asyncio query server.

One :class:`PermServer` fronts one :class:`~repro.database.PermDatabase`
(which must run the in-process Python backend — the server relies on
its snapshot/timeout execution controls).  The asyncio loop owns all
protocol work: framing, admission control, session bookkeeping,
response encoding.  Statements — the CPU-heavy part — run on **one
engine thread**, in admission order, each to completion.  Two
CPU-bound Python statements that overlap only pass the GIL back and
forth, keep both sets of intermediates alive and switch the cyclic
collector back on (:mod:`repro.gc_pause` pauses it while exactly one
statement is in flight); one at a time, each runs at in-process speed.

Request lifecycle:

1. **Admission.** The engine deadline (per-request timeout) is armed.
   Requests beyond one executing plus ``queue_limit`` waiting are
   refused immediately with an ``overloaded`` error — bounded queueing,
   never unbounded buffering, so p99 under overload degrades to a fast
   refusal instead of a growing queue.
2. **Queue.** The request waits for the engine thread.  One still
   queued at its deadline is answered with a ``timeout`` and never
   runs.
3. **Execution.** The database's statement cache is probed once
   (:meth:`PermDatabase.lookup_or_compile`, the step ``execute`` and
   ``provenance`` use too, so every session and the embedding program
   share compiled statements); on a miss the statement is parsed once
   and a SELECT is compiled by the frontend pipeline.  SELECTs execute
   under a snapshot (:meth:`PermDatabase.snapshot`) taken on the engine
   thread as the statement starts, with the rest of the deadline; other
   statements (DDL/DML) hand their parse trees to
   ``PermDatabase.execute``, which logs durable ones to the WAL.
4. **Timeout.** The engine deadline fires inside execution; an
   ``asyncio.wait_for`` backstop (timeout + grace, also from
   admission) guards the await so a stuck statement can never wedge
   its connection.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from repro.database import PermDatabase, QueryResult
from repro.errors import ExecutionError, PermError
from repro.faultinject import InjectedFault, fault_point
from repro.server.protocol import (
    FrameTooLarge,
    ProtocolError,
    drain_payload,
    encode_row,
    read_frame,
    encode_frame,
)
from repro.server.session import Session, SessionManager
from repro.server.stats import ServerStats

#: Extra seconds the asyncio backstop waits beyond the engine deadline.
TIMEOUT_GRACE = 5.0


class PermServer:
    """Serve one database over the length-prefixed JSON protocol."""

    def __init__(
        self,
        db: PermDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_limit: int = 64,
        request_timeout: Optional[float] = 30.0,
    ) -> None:
        if not getattr(db.backend, "supports_execution_controls", False):
            raise PermError(
                "PermServer requires a backend with snapshot/timeout "
                f"execution controls (got {db.backend_name!r})"
            )
        self.db = db
        self.host = host
        self.port = port
        self.queue_limit = max(int(queue_limit), 0)
        self.request_timeout = request_timeout
        self.sessions = SessionManager()
        self.stats = ServerStats()
        self._pending = 0  # touched only on the asyncio thread
        self._draining = False  # graceful shutdown: refuse new queries
        # The one engine thread: a single-worker executor runs the
        # statements in submission (= admission) order.
        self._engine = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-engine")
        self._aio_server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` after :meth:`start`."""
        if self._aio_server is None:
            return (self.host, self.port)
        sock = self._aio_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return (host, port)

    async def start(self) -> None:
        self._aio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def serve_forever(self) -> None:
        if self._aio_server is None:
            await self.start()
        async with self._aio_server:
            await self._aio_server.serve_forever()

    async def stop(self) -> None:
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        self._engine.shutdown(wait=False, cancel_futures=True)

    async def shutdown(self, drain_timeout: float = 10.0) -> dict:
        """Graceful stop: drain in-flight queries, then :meth:`stop`.

        From the first moment new queries are refused with a typed
        ``shutting_down`` error (connections stay open so the refusal
        is *answered*, not a reset); queries already admitted get up to
        ``drain_timeout`` seconds to finish.  Returns
        ``{"drained": bool, "abandoned": <queries still running>}``.
        """
        self._draining = True
        deadline = time.monotonic() + max(drain_timeout, 0.0)
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        abandoned = self._pending
        await self.stop()
        return {"drained": abandoned == 0, "abandoned": abandoned}

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameTooLarge as exc:
                    # Drain the declared payload so the connection is
                    # back at a frame boundary, then answer with a typed
                    # error and close cleanly — the client reads the
                    # reason instead of eating a connection reset while
                    # its oversized send is still in flight.
                    await drain_payload(reader, exc.length)
                    self.stats.record(0.0, "frame_too_large")
                    await self._send(
                        writer,
                        _error(None, "frame_too_large", str(exc)),
                    )
                    break
                except ProtocolError as exc:
                    await self._send(
                        writer,
                        _error(None, "protocol_error", str(exc)),
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                await self._send(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Server shutdown cancels handler tasks mid-close; the
                # task is ending either way, so don't re-raise here.
                pass

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        request_id = request.get("id")
        if op == "query":
            return await self._dispatch_query(request)
        if op == "stats":
            response = {
                "id": request_id,
                "ok": True,
                "stats": self.stats.snapshot(
                    active_sessions=len(self.sessions), pending=self._pending
                ),
                "sessions": self.sessions.stats(),
                "statement_cache": self.db.cache_stats(),
            }
            scatter_stats = getattr(self.db.backend, "scatter_stats", None)
            if scatter_stats is not None:
                response["sharding"] = scatter_stats()
            return response
        if op == "close":
            closed = self.sessions.close(str(request.get("session") or "default"))
            return {"id": request_id, "ok": True, "closed": closed}
        return _error(request_id, "protocol_error", f"unknown op {op!r}")

    async def _dispatch_query(self, request: dict) -> dict:
        request_id = request.get("id")
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return _error(request_id, "protocol_error", "query without sql text")
        provenance = request.get("provenance")
        session = self.sessions.get(str(request.get("session") or "default"))
        timeout = self._effective_timeout(request.get("timeout"))

        start = time.monotonic()
        if self._draining:
            # Graceful shutdown: answer, don't admit.  Admitted queries
            # keep their place on the engine until the drain deadline.
            self.stats.record(time.monotonic() - start, "shutting_down")
            return _error(
                request_id,
                "shutting_down",
                "server is draining and refusing new queries",
            )
        try:
            fault_point("server.admission", session=session.session_id)
        except InjectedFault as exc:
            self.stats.record(time.monotonic() - start, exc.error_type)
            return _error(request_id, exc.error_type, str(exc))
        if self._pending >= 1 + self.queue_limit:
            # Refuse before buffering anything: bounded admission is the
            # overload contract — clients get a fast, typed error and
            # retry with backoff instead of stacking latency.
            self.stats.record(time.monotonic() - start, "overloaded")
            return _error(
                request_id,
                "overloaded",
                f"server at capacity ({self._pending} requests in flight)",
            )
        deadline = None if timeout is None else start + timeout
        self._pending += 1
        try:
            future = asyncio.get_running_loop().run_in_executor(
                self._engine, self._execute, session, sql, provenance, deadline
            )
            if timeout is not None:
                payload = await asyncio.wait_for(future, timeout + TIMEOUT_GRACE)
            else:
                payload = await future
        except asyncio.TimeoutError:
            session.record(ok=False)
            self.stats.record(time.monotonic() - start, "timeout")
            return _error(request_id, "timeout", "query timed out")
        except InjectedFault as exc:
            # Chaos harness: surface the injected failure as its typed
            # wire error so client retry logic is exercised end to end.
            session.record(ok=False)
            self.stats.record(time.monotonic() - start, exc.error_type)
            return _error(request_id, exc.error_type, str(exc))
        except ExecutionError as exc:
            outcome, kind = _classify_execution_error(exc)
            session.record(ok=False)
            self.stats.record(time.monotonic() - start, outcome)
            return _error(request_id, kind, str(exc))
        except PermError as exc:
            session.record(ok=False)
            self.stats.record(time.monotonic() - start, "error")
            return _error(request_id, "query_error", str(exc))
        finally:
            self._pending -= 1

        elapsed = time.monotonic() - start
        session.record(ok=True)
        self.stats.record(elapsed, "ok")
        payload["id"] = request_id
        payload["ok"] = True
        payload["elapsed_ms"] = round(elapsed * 1000.0, 3)
        return payload

    def _effective_timeout(self, requested: Any) -> Optional[float]:
        """Per-request timeout, capped by the server-wide deadline."""
        if requested is None:
            return self.request_timeout
        try:
            requested = float(requested)
        except (TypeError, ValueError):
            return self.request_timeout
        if requested <= 0:
            return self.request_timeout
        if self.request_timeout is None:
            return requested
        return min(requested, self.request_timeout)

    # -- engine-thread work --------------------------------------------------

    def _execute(
        self,
        session: Session,
        sql: str,
        provenance: Optional[str],
        deadline: Optional[float],
    ) -> dict:
        fault_point("server.query", session=session.session_id, sql=sql)
        if deadline is not None and time.monotonic() >= deadline:
            raise ExecutionError("query canceled: timed out while queued")
        query, cached, statements = self.db.lookup_or_compile(sql, provenance)
        if query is None:
            # DDL/DML (and multi-statement scripts) execute outside the
            # snapshot: they *create* the states snapshots name.
            return _result_payload(self.db.execute(statements), cached=False)
        if cached:
            session.cache_hits += 1
        else:
            session.cache_misses += 1
        timeout = None if deadline is None else deadline - time.monotonic()
        result = self.db.run_compiled(query, snapshot=self.db.snapshot(), timeout=timeout)
        return _result_payload(result, cached=cached)


def _result_payload(result: QueryResult, cached: bool) -> dict:
    return {
        "columns": list(result.columns),
        "rows": [encode_row(row) for row in result.rows],
        "command": result.command,
        "annotation_column": result.annotation_column,
        "cached": cached,
    }


def _error(request_id: Any, kind: str, message: str) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": kind, "message": message},
    }


def _classify_execution_error(exc: ExecutionError) -> tuple[str, str]:
    text = str(exc)
    if text.startswith("query canceled"):
        return "timeout", "timeout"
    if text.startswith("snapshot too old"):
        return "error", "snapshot_invalid"
    return "error", "query_error"


# ---------------------------------------------------------------------------
# Threaded embedding (CLI, tests, benchmarks)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on a daemon thread with its own event loop."""

    def __init__(self, db: PermDatabase, host: str, port: int, kwargs: dict) -> None:
        # Built on the caller's thread, so a bad keyword or backend
        # raises here rather than inside the loop thread.
        self.server = PermServer(db, host, port, **kwargs)
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )

    def start(self) -> "ServerHandle":
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise PermError("server failed to start within 10s")
        if self._failure is not None:
            raise PermError(f"server failed to start: {self._failure}")
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed: the thread is on its way out
        self._thread.join(timeout=10.0)

    def shutdown(self, drain_timeout: float = 10.0) -> Optional[dict]:
        """Graceful stop from any thread: drain, refuse, then join.

        Returns the server's drain report (see
        :meth:`PermServer.shutdown`), or None when the loop is already
        gone.
        """
        if self._loop is None or not self._thread.is_alive():
            return None
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain_timeout), self._loop
        )
        try:
            report = future.result(timeout=drain_timeout + 10.0)
        finally:
            self.stop()
        return report

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        async with self.server._aio_server:
            await self._stop_event.wait()
        await self.server.stop()


def start_in_thread(
    db: PermDatabase, host: str = "127.0.0.1", port: int = 0, **kwargs
) -> ServerHandle:
    """Start a :class:`PermServer` on a background thread.

    Returns a handle exposing ``address`` and ``stop()`` — the shape the
    shell's ``\\server start`` and the test/benchmark harnesses use.
    """
    return ServerHandle(db, host, port, kwargs).start()
