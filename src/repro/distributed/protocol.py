"""Line-oriented JSON wire protocol for the campaign fabric.

One message is one JSON object, UTF-8 encoded, on one ``\\n``-terminated
line — the same self-describing framing the :class:`ResultStore` uses on
disk, so a protocol trace *is* a JSON-lines file and the standard tools
(``jq``, ``grep``) work on both.  ``doc/PROTOCOL.md`` is the message
reference; this module implements framing and the opening handshake:

* :class:`MessageStream` — a framed duplex channel over one socket, with a
  hard cap on message size in both directions (a peer cannot make the
  daemon buffer an unbounded line) and explicit, typed failures:
  :class:`ConnectionClosed` on clean EOF / half-close,
  :class:`MessageTooLarge` when either side exceeds the cap, and
  :class:`ProtocolError` when bytes on the wire are not one JSON object
  per line;
* :func:`connect` — client-side dial with retry and exponential backoff,
  the policy every worker/client link uses so a briefly absent coordinator
  (restart, not yet listening) is ridden out instead of fatal;
* :func:`handshake` — the ``hello``/``welcome`` exchange that opens every
  worker and client link and refuses a peer of any other
  :data:`PROTOCOL_VERSION`.

All sends are locked, so multiple threads (a worker's executor loop and
its heartbeat) can share one stream; receives are expected from a single
reader thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

#: Default cap on one framed message, in bytes (both directions).  Shard
#: descriptors and result records are a few hundred bytes; anything close
#: to this is a protocol violation, not a big workload.
MAX_MESSAGE_BYTES = 1 << 20

#: Protocol revision carried in every ``hello`` and ``welcome``.  The
#: coordinator, workers and clients ship in one package, so there is no
#: negotiation: a peer speaking any other version is refused.
PROTOCOL_VERSION = 6


class ProtocolError(Exception):
    """The peer sent bytes that are not one JSON object per line."""


class MessageTooLarge(ProtocolError):
    """A message exceeded the stream's size cap (either direction)."""


class ConnectionClosed(ProtocolError):
    """The peer closed (or half-closed) the connection."""


class MessageStream:
    """Framed JSON messages over one connected socket."""

    def __init__(
        self, sock: socket.socket, max_message_bytes: int = MAX_MESSAGE_BYTES
    ) -> None:
        self._sock = sock
        self._buffer = bytearray()
        self.max_message_bytes = max_message_bytes
        self._send_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, message: Dict[str, Any]) -> None:
        """Frame and send one message (thread-safe)."""
        data = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if len(data) > self.max_message_bytes:
            raise MessageTooLarge(
                f"outgoing message of {len(data)} bytes exceeds the "
                f"{self.max_message_bytes}-byte cap"
            )
        try:
            with self._send_lock:
                self._sock.sendall(data + b"\n")
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ConnectionClosed(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Receive one message; blocks until a full line arrives.

        Raises :class:`ConnectionClosed` on EOF (including a peer that
        ``shutdown(SHUT_WR)`` half-closed its side) and once this stream is
        closed, also by another thread mid-call; :class:`MessageTooLarge`
        when the unterminated line outgrows the cap — the stream is then
        poisoned and should be closed, since resynchronising mid-line is
        not possible — and :class:`socket.timeout` when *timeout* elapses.
        """
        if self._closed:
            raise ConnectionClosed("stream is closed")
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                raw = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                if not raw.strip():
                    continue  # blank keep-alive lines are legal padding
                if len(raw) > self.max_message_bytes:
                    # Also enforced while the line is still unterminated
                    # (below); this catches a complete oversized line that
                    # arrived in one chunk.
                    raise MessageTooLarge(
                        f"incoming message of {len(raw)} bytes exceeds the "
                        f"{self.max_message_bytes}-byte cap"
                    )
                return self._parse(raw)
            if len(self._buffer) > self.max_message_bytes:
                raise MessageTooLarge(
                    f"incoming line exceeds the {self.max_message_bytes}-byte cap"
                )
            try:
                self._sock.settimeout(timeout)
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise
            except OSError as exc:
                # A reset, or EBADF from a socket close() released.
                raise ConnectionClosed(f"recv failed: {exc}") from exc
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            self._buffer.extend(chunk)

    def _parse(self, raw: bytes) -> Dict[str, Any]:
        try:
            message = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"unparseable message line: {exc}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError(
                "every message must be a JSON object with a 'type' field"
            )
        return message

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "MessageStream":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def connect(
    address: Tuple[str, int],
    retries: int = 5,
    backoff: float = 0.05,
    backoff_cap: float = 2.0,
    max_message_bytes: int = MAX_MESSAGE_BYTES,
) -> MessageStream:
    """Dial *address* with retry and exponential backoff.

    Connection refusals and resets retry up to *retries* times with delays
    ``backoff * 2**attempt`` capped at *backoff_cap* — the ride-out window
    for a coordinator that is restarting.  The final failure re-raises the
    underlying ``OSError``.
    """
    attempt = 0
    while True:
        try:
            sock = socket.create_connection(address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return MessageStream(sock, max_message_bytes=max_message_bytes)
        except OSError:
            if attempt >= retries:
                raise
            time.sleep(min(backoff * (2 ** attempt), backoff_cap))
            attempt += 1


def handshake(stream: MessageStream, role: str, **fields: Any) -> Dict[str, Any]:
    """Open a link: send ``hello`` for *role* and return the ``welcome``.

    Closes *stream* and raises :class:`ProtocolError` when the coordinator
    answers anything but a ``welcome`` of this :data:`PROTOCOL_VERSION`
    (a coordinator refusing our version replies ``error`` and closes the
    connection).
    """
    try:
        stream.send(
            {"type": "hello", "role": role, "version": PROTOCOL_VERSION, **fields}
        )
        reply = stream.recv()
        if reply.get("type") != "welcome" or reply.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {PROTOCOL_VERSION} hello refused: {reply!r}"
            )
    except ProtocolError:
        stream.close()
        raise
    return reply


__all__ = [
    "ConnectionClosed",
    "MAX_MESSAGE_BYTES",
    "MessageStream",
    "MessageTooLarge",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "connect",
    "handshake",
]
