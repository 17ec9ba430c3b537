"""Oversized-frame hardening: a frame beyond MAX_FRAME gets a typed
``frame_too_large`` error and a clean close, never a connection reset
mid-send or an 8 MiB allocation."""

from __future__ import annotations

import socket
import struct

import pytest

import repro
from repro.server import MAX_FRAME, PermClient, start_in_thread
from repro.server.protocol import MAX_DRAIN, recv_frame


@pytest.fixture()
def served_db():
    db = repro.connect()
    db.execute("CREATE TABLE t (a integer, b text)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    handle = start_in_thread(db, request_timeout=30.0)
    yield db, handle
    handle.stop()


def raw_connection(handle) -> socket.socket:
    host, port = handle.address
    return socket.create_connection((host, port), timeout=30.0)


def send_oversized(sock: socket.socket, declared: int, body: bytes) -> None:
    sock.sendall(struct.pack(">I", declared) + body)


class TestFrameTooLarge:
    def test_oversized_frame_gets_typed_error_and_clean_close(self, served_db):
        _, handle = served_db
        with raw_connection(handle) as sock:
            body = b"x" * (MAX_FRAME + 1)
            send_oversized(sock, len(body), body)
            reply = recv_frame(sock)
            assert reply is not None
            assert reply["ok"] is False
            assert reply["error"]["type"] == "frame_too_large"
            assert str(MAX_FRAME) in reply["error"]["message"]
            # Clean close: EOF at a frame boundary, not a reset.
            assert sock.recv(1) == b""

    def test_implausible_length_is_not_drained(self, served_db):
        _, handle = served_db
        with raw_connection(handle) as sock:
            # Only the header goes out; the server must not wait for
            # 64 MiB that will never arrive before answering.
            send_oversized(sock, MAX_DRAIN + 1, b"")
            reply = recv_frame(sock)
            assert reply is not None
            assert reply["error"]["type"] == "frame_too_large"
            assert sock.recv(1) == b""

    def test_rejection_is_counted_and_server_stays_up(self, served_db):
        _, handle = served_db
        with raw_connection(handle) as sock:
            body = b"y" * (MAX_FRAME + 1)
            send_oversized(sock, len(body), body)
            assert recv_frame(sock)["error"]["type"] == "frame_too_large"

        host, port = handle.address
        with PermClient(host, port) as client:
            assert client.query("SELECT a FROM t").rows
            stats = client.stats()["stats"]
            assert stats["frames_rejected"] >= 1

    def test_client_side_cap_refuses_before_sending(self, served_db):
        _, handle = served_db
        host, port = handle.address
        from repro.server import ProtocolError

        with PermClient(host, port) as client:
            with pytest.raises(ProtocolError):
                client.query("SELECT '" + "x" * (MAX_FRAME + 1) + "' FROM t")
            # The connection never carried the oversized frame and is
            # still usable.
            assert client.query("SELECT a FROM t").rows
