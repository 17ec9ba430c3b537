"""Server-side sessions: prepared-statement caches and counters.

A session is the unit of server-side client state.  Clients name their
session (any string id); all connections presenting the same id share
one session, so a client can reconnect and keep its warm
prepared-statement cache.  Sessions hold *compiled query trees* — the
output of :meth:`PermDatabase.compile_select`, i.e. the full frontend
pipeline (parse → analyze → provenance-rewrite → optimize) — keyed by
:meth:`PermDatabase.cache_key` with the provenance semantics as mode,
so DDL and fresh statistics age entries out naturally.

The statement caches are read and written only on the server's one
engine thread; the session map and the query/error counters only on
its asyncio thread.  Nothing here needs a lock.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.analyzer.query_tree import Query

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

    def lookup(self, key: tuple) -> Optional["Query"]:
        """The compiled tree cached under ``key`` (a
        :meth:`PermDatabase.cache_key`), or None."""
        query = self._statements.get(key)
        if query is not None:
            self._statements.move_to_end(key)
            self.cache_hits += 1
        return query

    def store(self, key: tuple, query: "Query") -> None:
        """Cache a freshly compiled tree (a miss), evicting the least
        recently used beyond the cache size."""
        self.cache_misses += 1
        self._statements[key] = query
        while len(self._statements) > self._cache_size:
            self._statements.popitem(last=False)

    def record(self, ok: bool) -> None:
        self.queries += 1
        if not ok:
            self.errors += 1

    def stats(self) -> dict:
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

    def get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            session = Session(session_id)
            self._sessions[session_id] = session
        self._sessions.move_to_end(session_id)
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
        return session

    def close(self, session_id: str) -> bool:
        return self._sessions.pop(session_id, None) is not None

    def __len__(self) -> int:
        return len(self._sessions)

    def stats(self) -> list[dict]:
        return [session.stats() for session in self._sessions.values()]
