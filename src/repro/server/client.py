"""A blocking client for the wire protocol.

One :class:`PermClient` wraps one TCP connection.  Requests are
strictly request/response on a connection, so a client instance is for
one thread; concurrent load uses one client per thread (each sharing a
session id if they want shared counters).

Transient-error retry: ``max_retries > 0`` re-issues **read-only**
statements that fail with a retryable typed error (``overloaded``,
``snapshot_invalid``) after exponential backoff with full jitter.
Writes are never retried — a DML request whose response was lost may
have committed, and replaying it is not idempotent; read-only-ness is
decided by parsing the statement client-side (every statement must be
a SELECT without ``INTO``).  ``shutting_down`` is deliberately not
retryable on the same connection: the server is going away.  The
attempt count is surfaced on both the result
(:attr:`ClientResult.attempts`) and the raised
:class:`ServerError` (``.attempts``).

>>> with PermClient(host, port) as client:          # doctest: +SKIP
...     result = client.query("SELECT PROVENANCE a FROM t")
...     result.columns, result.rows
"""

from __future__ import annotations

import itertools
import random
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import PermError
from repro.server.protocol import decode_row, recv_frame, send_frame

#: Typed errors that are transient for reads: the server refused or
#: invalidated the request without executing it to completion, and a
#: later attempt can succeed.
RETRYABLE_ERRORS = frozenset({"overloaded", "snapshot_invalid"})


class ServerError(PermError):
    """A typed error response from the server.

    ``attempts`` counts request attempts made before giving up (1 when
    retry was off or the error was not retryable)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.attempts = 1


@dataclass
class ClientResult:
    """A decoded query response."""

    columns: list[str]
    rows: list[tuple]
    command: str = "SELECT"
    annotation_column: Optional[str] = None
    cached: bool = False
    elapsed_ms: float = 0.0
    #: Request attempts this result took (1 = first try succeeded).
    attempts: int = 1

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise PermError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


class PermClient:
    """Blocking socket client; usable as a context manager."""

    def __init__(
        self,
        host: str,
        port: int,
        session: Optional[str] = None,
        connect_timeout: float = 10.0,
        max_retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.session = session or f"client-{uuid.uuid4().hex[:12]}"
        self.max_retries = max(int(max_retries), 0)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Seedable for deterministic tests; defaults to fresh entropy so
        # a fleet of clients retrying the same overload decorrelates.
        self._rng = random.Random(retry_seed)
        self._ids = itertools.count(1)
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        # Individual requests may run long (the server enforces its own
        # deadline); don't let the connect timeout cut responses short.
        self._sock.settimeout(None)

    # -- context management --------------------------------------------------

    def __enter__(self) -> "PermClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- request/response ----------------------------------------------------

    def _roundtrip(self, request: dict) -> dict:
        request["id"] = next(self._ids)
        send_frame(self._sock, request)
        response = recv_frame(self._sock)
        if response is None:
            raise PermError("server closed the connection")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServerError(
                error.get("type", "unknown"), error.get("message", "unknown error")
            )
        return response

    def query(
        self,
        sql: str,
        provenance: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> ClientResult:
        """Execute one statement; ``provenance`` marks the SELECT like
        ``SELECT PROVENANCE [(semantics)]`` would.  Retryable failures
        of read-only statements are re-issued per the client's backoff
        configuration (see the module docstring)."""
        request = {
            "op": "query",
            "sql": sql,
            "provenance": provenance,
            "session": self.session,
            "timeout": timeout,
        }
        attempts = 0
        retryable_stmt: Optional[bool] = None  # parsed lazily, once
        while True:
            attempts += 1
            try:
                response = self._roundtrip(dict(request))
                break
            except ServerError as exc:
                exc.attempts = attempts
                if attempts > self.max_retries or exc.kind not in RETRYABLE_ERRORS:
                    raise
                if retryable_stmt is None:
                    retryable_stmt = self._is_read_only(sql)
                if not retryable_stmt:
                    # Never replay a write: a lost response may mean a
                    # committed statement, and INSERT twice is not once.
                    raise
                time.sleep(self._backoff_delay(attempts))
        result = ClientResult(
            columns=response.get("columns", []),
            rows=[decode_row(row) for row in response.get("rows", [])],
            command=response.get("command", "SELECT"),
            annotation_column=response.get("annotation_column"),
            cached=bool(response.get("cached")),
            elapsed_ms=float(response.get("elapsed_ms", 0.0)),
        )
        result.attempts = attempts
        return result

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with full jitter: uniform over
        ``[0, min(cap, base * 2^(attempt-1))]`` — retries from a fleet
        of clients spread out instead of re-stampeding in lockstep."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return self._rng.uniform(0.0, ceiling)

    @staticmethod
    def _is_read_only(sql: str) -> bool:
        """Whether every statement in ``sql`` is a plain SELECT (no
        ``INTO``) — the precondition for safe retry.  Unparseable text
        is conservatively treated as a write."""
        from repro.sql import ast
        from repro.sql.parser import parse_sql

        try:
            statements = parse_sql(sql)
        except PermError:
            return False
        for stmt in statements:
            if not isinstance(stmt, (ast.SelectStmt, ast.SetOpSelect)):
                return False
            if getattr(stmt, "into", None):
                return False
        return True

    def provenance(self, sql: str, semantics: Optional[str] = None) -> ClientResult:
        """Mirror of :meth:`PermDatabase.provenance` over the wire."""
        return self.query(sql, provenance=semantics or "witness")

    def stats(self) -> dict:
        """Global + per-session server observability counters."""
        response = self._roundtrip({"op": "stats"})
        stats = {
            "stats": response.get("stats", {}),
            "sessions": response.get("sessions", []),
            "statement_cache": response.get("statement_cache", {}),
        }
        if "sharding" in response:  # only present on sharded backends
            stats["sharding"] = response["sharding"]
        return stats

    def close_session(self) -> bool:
        """Drop this session's server-side counters (compiled statements
        stay in the database's statement cache)."""
        response = self._roundtrip({"op": "close", "session": self.session})
        return bool(response.get("closed"))
