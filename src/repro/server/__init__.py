"""Client/server front-end for the provenance engine.

The paper's deployment model makes provenance queries ordinary SQL a
DBMS serves to clients; this package gives the repro that serving
surface.  An asyncio server (:mod:`repro.server.server`) speaks a
length-prefixed JSON protocol (:mod:`repro.server.protocol`) carrying
the query text, the provenance semantics, and a session id.  Sessions
(:mod:`repro.server.session`) keep per-client counters; every session
is served from the database's statement cache, so a repeated statement
skips the frontend pipeline whichever client compiled it.  One engine
thread runs the statements in admission order, each to completion;
every read executes under a snapshot token built on the storage
layer's append-only heaps, so it gets a consistent answer while
in-process writers run.  Admission is bounded and overload is answered, not
buffered; per-query deadlines, armed at admission, cancel runaway
execution cooperatively inside the engine.
:mod:`repro.server.client` is the matching blocking client.
"""

from repro.server.client import (
    RETRYABLE_ERRORS,
    ClientResult,
    PermClient,
    ServerError,
)
from repro.server.protocol import MAX_FRAME, FrameTooLarge, ProtocolError
from repro.server.server import PermServer, ServerHandle, start_in_thread
from repro.server.session import Session, SessionManager
from repro.server.stats import ServerStats

__all__ = [
    "MAX_FRAME",
    "RETRYABLE_ERRORS",
    "ClientResult",
    "FrameTooLarge",
    "PermClient",
    "PermServer",
    "ProtocolError",
    "ServerError",
    "ServerHandle",
    "ServerStats",
    "Session",
    "SessionManager",
    "start_in_thread",
]
