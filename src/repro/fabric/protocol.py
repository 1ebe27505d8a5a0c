"""Line-delimited-JSON wire protocol shared by every fabric endpoint.

One message is one JSON object on one ``\\n``-terminated UTF-8 line;
every message carries a ``type`` drawn from :data:`MESSAGE_TYPES`.  The
same framing serves both fabric roles:

* **sweep plane** (worker ⇄ coordinator): ``hello``, ``lease`` /
  ``job`` / ``wait`` / ``shutdown``, ``heartbeat``, ``result``;
* **service plane** (client ⇄ study service): ``submit``, ``status``,
  ``fetch``, answered by ``ok`` / ``error``.

Scenarios travel as their ``to_dict()`` JSON (workers never need the
registry), and dwell-cache entries ride along as pickled-and-armoured
strings (:func:`repro.pipeline.cache.encode_entries`).  A ``result``
carries its ``StudyResult.to_dict()`` with the characterize artifact's
``curves`` set to ``null``: the coordinator already holds those curves
in its dwell cache and re-derives them when it keeps results.

``make_msg`` / ``send_msg`` validate the message kind against
:data:`MESSAGE_TYPES` at runtime, and ``repro lint`` (QA004) resolves
kind *literals* against the same tuple at lint time, so a typo'd
message type fails in CI rather than as a mid-sweep protocol error.

Failure taxonomy — three typed outcomes every reader must handle:

* ``recv_msg() is None`` — clean EOF, the peer hung up after a
  complete line;
* :class:`ChannelTimeout` — the read deadline passed before a full
  line arrived (a half-open or stalled peer; any bytes already
  buffered stay buffered, so a later call can still finish the line);
* :class:`ProtocolError` — a garbled line, an unknown message kind,
  or a peer that died mid-line (torn write on the wire).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Dict, Optional, Tuple

#: Every message kind either fabric plane may put on the wire.
MESSAGE_TYPES = (
    # sweep plane
    "hello",
    "lease",
    "job",
    "wait",
    "shutdown",
    "heartbeat",
    "result",
    # service plane
    "submit",
    "status",
    "fetch",
    # replies
    "ok",
    "error",
)

#: Bytes pulled from the socket per read while assembling a line.
_RECV_CHUNK = 65536

#: Seconds between a fabric server's shutdown checks
#: (``serve_forever(poll_interval=...)``); ``stop()`` waits up to one
#: tick, so the stdlib's 0.5 s default would end every sweep late.
ACCEPT_POLL_INTERVAL = 0.05


class ProtocolError(ValueError):
    """A malformed or unknown-kind message crossed the wire."""


class ChannelTimeout(TimeoutError):
    """A read deadline expired before a complete message arrived.

    Raised by :meth:`LineChannel.recv_msg` when ``timeout`` is given —
    the typed signal that a peer is stalled or half-open, distinct from
    a clean EOF (``None``) and from garbage (:class:`ProtocolError`).
    Partial data stays buffered: catching this and calling ``recv_msg``
    again resumes the same line.
    """


def make_msg(kind: str, **fields: Any) -> Dict[str, Any]:
    """A validated protocol message as a plain dict."""
    if kind not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unknown message type {kind!r}; expected one of {list(MESSAGE_TYPES)}"
        )
    if "type" in fields:
        raise ProtocolError("'type' is set from the kind argument")
    return {"type": kind, **fields}


def encode_msg(kind: str, **fields: Any) -> bytes:
    """One validated message as its wire form (one ``\\n``-ended line)."""
    payload = json.dumps(make_msg(kind, **fields), separators=(",", ":"))
    return (payload + "\n").encode("utf-8")


class LineChannel:
    """One socket wrapped for line-JSON messaging.

    Writes are serialised under a lock so a heartbeat thread can share
    the channel with the main job loop; reads are expected from a
    single thread.  ``recv_msg`` returns ``None`` on a clean EOF — the
    peer hung up — which the coordinator treats as worker death.

    The channel does its own line buffering (no ``makefile``) so read
    deadlines are sound: ``recv_msg(timeout=...)`` arms a socket
    timeout, raises :class:`ChannelTimeout` when no complete line
    lands in time, and keeps any partial line buffered for the next
    call.  A peer that dies mid-line (EOF with bytes still buffered)
    raises :class:`ProtocolError` — a torn write is corruption, not a
    clean hangup.

    TCP sockets get ``TCP_NODELAY``: every exchange is one small line
    answered by the peer, and Nagle's algorithm (holding a short write
    until the previous one is acknowledged) meeting the peer's delayed
    ACK would stall each round trip by tens of milliseconds.  Unix
    socket pairs have no such option and are left as they are.
    """

    def __init__(self, sock: socket.socket):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rbuf = bytearray()
        self._eof = False
        self._wlock = threading.Lock()

    def send_msg(self, kind: str, **fields: Any) -> None:
        self.send_raw(encode_msg(kind, **fields))

    def send_raw(self, data: bytes) -> None:
        """Put pre-encoded line bytes on the wire (one serialised write).

        The seam the fault injector uses: duplicated or garbled lines
        go through here so framing stays one-message-one-line.
        """
        with self._wlock:
            self._sock.sendall(data)

    def recv_msg(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next message, ``None`` on clean EOF.

        ``timeout`` (seconds) bounds the wait for one *complete* line;
        expiry raises :class:`ChannelTimeout` and leaves any partial
        line buffered.  ``None`` waits forever (legacy behaviour).
        """
        line = self._recv_line(timeout)
        if line is None:
            return None
        try:
            msg = json.loads(line)
        except ValueError as exc:
            # JSONDecodeError and UnicodeDecodeError both subclass
            # ValueError; garbage of any flavour is one typed error
            raise ProtocolError(f"undecodable message line: {exc}") from None
        if not isinstance(msg, dict) or msg.get("type") not in MESSAGE_TYPES:
            raise ProtocolError(f"message without a known type: {line!r}")
        return msg

    def _recv_line(self, timeout: Optional[float]) -> Optional[bytes]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            newline = self._rbuf.find(b"\n")
            if newline >= 0:
                line = bytes(self._rbuf[:newline])
                del self._rbuf[: newline + 1]
                return line
            if self._eof:
                return None
            if deadline is None:
                self._sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelTimeout(
                        f"no complete message within {timeout:g}s "
                        f"({len(self._rbuf)} byte(s) of a partial line buffered)"
                    )
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except socket.timeout:
                raise ChannelTimeout(
                    f"no complete message within {timeout:g}s "
                    f"({len(self._rbuf)} byte(s) of a partial line buffered)"
                ) from None
            if not chunk:
                self._eof = True
                if self._rbuf:
                    torn = len(self._rbuf)
                    del self._rbuf[:]
                    raise ProtocolError(
                        f"peer hung up mid-message ({torn} byte(s) of a torn line)"
                    )
                return None
            self._rbuf += chunk

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class _LineHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # one thread per connection
        self.server.owner._serve_connection(LineChannel(self.request))


class LineServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server that hands each accepted connection, as a
    :class:`LineChannel`, to ``owner._serve_connection``.

    The coordinator and the study service share this module-level
    class.  A handler class built inside ``start()`` would close over
    its owner, and classes always sit in reference cycles, so a stopped
    owner (with its results and leases) would stay alive until the
    cyclic garbage collector ran.  The owner drops its server on stop.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], owner: Any):
        self.owner = owner
        super().__init__(address, _LineHandler)


def connect(host: str, port: int, timeout: Optional[float] = None) -> LineChannel:
    """Dial a fabric endpoint and wrap the socket as a channel.

    ``timeout`` bounds the dial only; the socket is returned blocking
    and per-read deadlines belong to ``recv_msg(timeout=...)``.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return LineChannel(sock)


def parse_endpoint(text: str) -> tuple:
    """``"host:port"`` → ``(host, port)`` with a friendly error."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"bad endpoint {text!r}; expected HOST:PORT, e.g. 127.0.0.1:7465"
        )
    return host, int(port)


__all__ = [
    "ACCEPT_POLL_INTERVAL",
    "ChannelTimeout",
    "LineChannel",
    "LineServer",
    "MESSAGE_TYPES",
    "ProtocolError",
    "connect",
    "encode_msg",
    "make_msg",
    "parse_endpoint",
]
