"""A datagram network connecting simulated nodes.

PBFT replicas and the client exchange messages over this substrate using
``sendto``/``recvfrom``; the paper's Figure 3 and the DoS study are produced
by injecting faults into exactly those two calls, so the network itself is
reliable — unreliability comes from the injector, as in the paper.

Delivery cost is accounted against a :class:`~repro.oslib.clock.SimClock`
through per-message latency, which is what makes the throughput experiments
deterministic and fast (they run on simulated time, not wall-clock time).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.oslib.errno_codes import Errno
from repro.oslib.errors import OSFault


@dataclass(frozen=True)
class Datagram:
    """One message in flight or queued at a destination."""

    source: int
    destination: int
    payload: bytes
    sent_at: float


class Socket:
    """A bound datagram socket belonging to one simulated node."""

    def __init__(self, fd: int, owner: str) -> None:
        self.fd = fd
        self.owner = owner
        self.address: Optional[int] = None
        self.queue: Deque[Datagram] = deque()
        self.closed = False


class SimNetwork:
    """Shared datagram fabric for all nodes of a distributed experiment."""

    MAX_DATAGRAM = 65536

    def __init__(self, latency: float = 0.0005) -> None:
        #: Per-message delivery latency in simulated seconds.
        self.latency = latency
        self._sockets: Dict[int, Socket] = {}
        self._bound: Dict[int, Socket] = {}
        self._next_fd = 1000
        self._delivery_hooks: List[Callable[[Datagram], bool]] = []
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # ------------------------------------------------------------------
    # socket lifecycle
    # ------------------------------------------------------------------
    def socket(self, owner: str = "?") -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._sockets[fd] = Socket(fd=fd, owner=owner)
        return fd

    def _socket(self, fd: int) -> Socket:
        sock = self._sockets.get(fd)
        if sock is None or sock.closed:
            raise OSFault(Errno.EBADF, f"socket fd {fd}")
        return sock

    def bind(self, fd: int, address: int) -> None:
        sock = self._socket(fd)
        if address in self._bound and self._bound[address] is not sock:
            raise OSFault(Errno.EADDRINUSE, f"address {address}")
        sock.address = address
        self._bound[address] = sock

    def close(self, fd: int) -> None:
        sock = self._socket(fd)
        sock.closed = True
        if sock.address is not None and self._bound.get(sock.address) is sock:
            del self._bound[sock.address]
        del self._sockets[fd]

    # ------------------------------------------------------------------
    # observation hooks (used by experiments to count traffic)
    # ------------------------------------------------------------------
    def add_delivery_hook(self, hook: Callable[[Datagram], bool]) -> None:
        """Register a hook; returning ``False`` drops the datagram."""
        self._delivery_hooks.append(hook)

    def clear_delivery_hooks(self) -> None:
        self._delivery_hooks.clear()

    def has_delivery_hook(self, hook: Callable[[Datagram], bool]) -> bool:
        """True when an equal hook is already installed (idempotent installs)."""
        return hook in self._delivery_hooks

    def delivery_hook_count(self) -> int:
        return len(self._delivery_hooks)

    def promote_last(self, destination: int) -> bool:
        """Move the newest queued datagram for *destination* to the front.

        Models a datagram overtaking the ones already in flight (the
        ``net_reorder`` fault class).  Queue state is part of
        :meth:`capture_state`, so reorderings ride snapshots like any other
        simulated state.  Returns False when there is nothing to overtake.
        """
        sock = self._bound.get(destination)
        if sock is None or len(sock.queue) < 2:
            return False
        sock.queue.appendleft(sock.queue.pop())
        return True

    # ------------------------------------------------------------------
    # datagram operations
    # ------------------------------------------------------------------
    def sendto(self, fd: int, payload: bytes, destination: int, now: float = 0.0) -> int:
        sock = self._socket(fd)
        if len(payload) > self.MAX_DATAGRAM:
            raise OSFault(Errno.EMSGSIZE, f"{len(payload)} bytes")
        self.sent_count += 1
        datagram = Datagram(
            source=sock.address if sock.address is not None else -1,
            destination=destination,
            payload=bytes(payload),
            sent_at=now,
        )
        for hook in self._delivery_hooks:
            if not hook(datagram):
                self.dropped_count += 1
                return len(payload)  # UDP semantics: sender cannot tell
        target = self._bound.get(destination)
        if target is None:
            # No listener: silently dropped, again matching UDP semantics.
            self.dropped_count += 1
            return len(payload)
        target.queue.append(datagram)
        self.delivered_count += 1
        return len(payload)

    def recvfrom(self, fd: int) -> Tuple[bytes, int]:
        sock = self._socket(fd)
        if not sock.queue:
            raise OSFault(Errno.EAGAIN, "no datagram available")
        datagram = sock.queue.popleft()
        return datagram.payload, datagram.source

    def pending(self, fd: int) -> int:
        return len(self._socket(fd).queue)

    # ------------------------------------------------------------------
    # snapshot support (repro.vm.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        """Structural copy of every socket, queue, and counter.

        Delivery hooks are observer callables owned by experiments; the hook
        *list* is snapshotted (so hooks registered after the capture are
        dropped on restore) but the callables themselves are shared.
        """
        return {
            "latency": self.latency,
            "next_fd": self._next_fd,
            "sent": self.sent_count,
            "delivered": self.delivered_count,
            "dropped": self.dropped_count,
            "hooks": list(self._delivery_hooks),
            "sockets": {
                fd: (sock.owner, sock.address, list(sock.queue), sock.closed)
                for fd, sock in self._sockets.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self.latency = state["latency"]
        self._next_fd = state["next_fd"]
        self.sent_count = state["sent"]
        self.delivered_count = state["delivered"]
        self.dropped_count = state["dropped"]
        self._delivery_hooks = list(state["hooks"])
        self._sockets = {}
        self._bound = {}
        for fd, (owner, address, queue, closed) in state["sockets"].items():
            sock = Socket(fd=fd, owner=owner)
            sock.address = address
            sock.queue = deque(queue)  # Datagram is frozen: entries shareable
            sock.closed = closed
            self._sockets[fd] = sock
            if address is not None and not closed:
                self._bound[address] = sock


__all__ = ["Datagram", "SimNetwork", "Socket"]
