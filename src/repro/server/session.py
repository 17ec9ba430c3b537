"""Server-side sessions: prepared-statement caches and counters.

A session is the unit of server-side client state.  Clients name their
session (any string id); all connections presenting the same id share
one session, so a client can reconnect and keep its warm
prepared-statement cache.  Sessions hold *compiled query trees* — the
output of :meth:`PermDatabase.compile_select`, i.e. the full frontend
pipeline (parse → analyze → provenance-rewrite → optimize) — keyed by
:meth:`PermDatabase.cache_key` with the provenance semantics as mode,
so DDL and fresh statistics age entries out naturally.

All structures here are mutated from executor threads and read from
the asyncio thread concurrently, hence the per-object locks.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.analyzer.query_tree import Query
    from repro.database import PermDatabase

#: Compiled statements kept per session.
SESSION_STATEMENT_CACHE_SIZE = 32

#: Sessions kept server-wide (least-recently-used beyond this bound).
MAX_SESSIONS = 256


class Session:
    """One client session: statement cache plus per-session counters."""

    def __init__(self, session_id: str, cache_size: int = SESSION_STATEMENT_CACHE_SIZE) -> None:
        self.session_id = session_id
        self.created = time.monotonic()
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_size = cache_size
        self._statements: "OrderedDict[tuple, Query]" = OrderedDict()
        self._lock = threading.Lock()

    def lookup(
        self, db: "PermDatabase", sql: str, provenance: Optional[str]
    ) -> Optional["Query"]:
        """Cache probe only — no compilation on a miss.

        The server uses this to learn *whether* a statement is a known
        SELECT before deciding between the compiled-snapshot path and
        the general ``execute`` path.
        """
        key = db.cache_key(sql, provenance)
        with self._lock:
            query = self._statements.get(key)
            if query is not None:
                self._statements.move_to_end(key)
                self.cache_hits += 1
            return query

    def compiled(
        self, db: "PermDatabase", sql: str, provenance: Optional[str]
    ) -> Tuple["Query", bool]:
        """The compiled tree for (sql, provenance): ``(query, was_hit)``.

        Compilation happens outside the lock — it can be milliseconds of
        work and must not serialize unrelated sessions' threads.  Two
        racing misses for the same statement both compile; last write
        wins, which is correct because compiled trees are equivalent.
        """
        key = db.cache_key(sql, provenance)
        with self._lock:
            query = self._statements.get(key)
            if query is not None:
                self._statements.move_to_end(key)
                self.cache_hits += 1
                return query, True
        compiled = db.compile_select(sql, provenance=provenance)
        with self._lock:
            self.cache_misses += 1
            self._statements[key] = compiled
            self._statements.move_to_end(key)
            while len(self._statements) > self._cache_size:
                self._statements.popitem(last=False)
        return compiled, False

    def record(self, ok: bool) -> None:
        with self._lock:
            self.queries += 1
            if not ok:
                self.errors += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "session": self.session_id,
                "queries": self.queries,
                "errors": self.errors,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cached_statements": len(self._statements),
            }


class SessionManager:
    """Session-id -> :class:`Session`, bounded least-recently-used."""

    def __init__(self, max_sessions: int = MAX_SESSIONS) -> None:
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                session = Session(session_id)
                self._sessions[session_id] = session
            self._sessions.move_to_end(session_id)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
            return session

    def close(self, session_id: str) -> bool:
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> list[dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [session.stats() for session in sessions]
