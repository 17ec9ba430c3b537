"""Server-side sessions: per-client counters.

A session is the unit of server-side client state.  Clients name their
session (any string id); all connections presenting the same id share
one session, so a client can reconnect and keep its counters.  Compiled
statements are not session state: every session is served from the
database's own statement cache (:meth:`PermDatabase.lookup_or_compile`),
so a text one client compiled is a hit for every other client, and
closing a session keeps it.

The cache hit/miss counters are written only on the server's one engine
thread; the session map and the query/error counters only on its
asyncio thread.  Nothing here needs a lock.
"""

from __future__ import annotations

import time
from collections import OrderedDict

#: Sessions kept server-wide (least-recently-used beyond this bound).
MAX_SESSIONS = 256


class Session:
    """One client session: query, error and statement-cache counters."""

    def __init__(self, session_id: str) -> None:
        self.session_id = session_id
        self.created = time.monotonic()
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0

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
