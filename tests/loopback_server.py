"""A scripted HTTP server on loopback for the HTTP backend's tests.

Each POST is answered with the next scripted ``Reply`` and recorded as a
``Received``. The server speaks HTTP/1.1 keep-alive, counts the
connections it accepts and the ones still open, and can hold every
request at a barrier so that calls are provably in flight together.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Reply:
    status: int = 200
    payload: Any = None
    # Raw body bytes; when None, the body is ``payload`` as JSON.
    body: Optional[bytes] = None
    headers: dict[str, str] = field(default_factory=dict)
    # Close the connection after replying without announcing it, as a
    # server that drops idle keep-alive connections does.
    close: bool = False


@dataclass(frozen=True)
class Received:
    path: str
    body: Any
    headers: dict[str, str]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "_Server"

    def setup(self) -> None:
        super().setup()
        # Headers and body go out in two writes; without this, Nagle's
        # algorithm holds the body until the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.owner._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.owner._closed(self.connection)

    def log_message(self, format: str, *args: Any) -> None:
        pass

    def do_POST(self) -> None:
        owner = self.server.owner
        raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        reply = owner._take(Received(self.path, json.loads(raw), dict(self.headers)))
        if owner.barrier is not None:
            owner.barrier.wait()
        if reply.body is not None:
            body = reply.body
        else:
            body = json.dumps(reply.payload if reply.payload is not None else {}).encode()
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        if reply.close:
            self.close_connection = True


class _Server(ThreadingHTTPServer):
    owner: "LoopbackServer"


class LoopbackServer:
    def __init__(self) -> None:
        self.requests: list[Received] = []
        self.connections_opened = 0
        self.barrier: Optional[threading.Barrier] = None
        # When set, answers every request in place of the script.
        self.answer: Optional[Callable[[Received], Reply]] = None
        self._replies: list[Reply] = []
        self._open: set[socket.socket] = set()
        self._cond = threading.Condition()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.owner = self
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def script(self, *replies: Reply) -> None:
        with self._cond:
            self._replies.extend(replies)

    def _take(self, received: Received) -> Reply:
        with self._cond:
            self.requests.append(received)
            if self.answer is not None:
                return self.answer(received)
            if not self._replies:
                return Reply(status=418, payload={"error": "no scripted reply left"})
            return self._replies.pop(0)

    def _opened(self, sock: socket.socket) -> None:
        with self._cond:
            self.connections_opened += 1
            self._open.add(sock)

    def _closed(self, sock: socket.socket) -> None:
        with self._cond:
            self._open.discard(sock)
            self._cond.notify_all()

    def open_connections(self, at_most: int, timeout: float = 5.0) -> int:
        """The number of open connections, once it is at most ``at_most``
        or ``timeout`` seconds have passed: a client's close reaches the
        server's handler thread a moment later."""
        with self._cond:
            self._cond.wait_for(lambda: len(self._open) <= at_most, timeout)
            return len(self._open)

    def close(self) -> None:
        self._server.shutdown()
        with self._cond:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._server.server_close()
        self._thread.join(timeout=5)


def unused_port_url() -> str:
    """A loopback URL on a port that nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def open_after_concurrent_calls(
    server: LoopbackServer, call: Callable[[], Any], n: int, at_most: int
) -> int:
    """Make ``n`` calls that the server holds until all are in flight,
    then return the connections still open once at most ``at_most``
    remain (or after a timeout)."""
    errors: list[Exception] = []

    def run() -> None:
        try:
            call()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    server.barrier = threading.Barrier(n, timeout=10)
    threads = [threading.Thread(target=run) for _ in range(n)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        server.barrier = None
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert server.connections_opened >= n
    return server.open_connections(at_most)
