"""Pythonic libc facade for the Python-level simulated servers.

The compiled (mini-C) targets call libc through the VM; the larger simulated
servers — MySQL, Apache, the PBFT replicas — are written directly in Python
for tractability, but they must still make **every** environment interaction
through the program/library boundary so LFI can intercept it.  This facade
is that boundary: each method packages the call name and arguments, hands a
thunk performing the real operation to the fault-injection gate, and then
translates the resulting :class:`~repro.oslib.libc.LibcResult` back into a
convenient Python value.

When no gate is installed the facade behaves like an ordinary libc binding,
which is the "baseline (no LFI)" configuration of Tables 5 and 6.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.oslib import fs as fsmod
from repro.oslib.errno_codes import Errno
from repro.oslib.errors import MemoryFault, OSFault
from repro.oslib.libc import F_GETFL, F_GETLK, F_SETFL, F_SETLK, LibcResult, spec_for
from repro.oslib.os_model import SimOS


class _DirectGate:
    """Fallback gate that simply executes the real call (no interception)."""

    def call(
        self,
        name: str,
        args: Tuple[Any, ...],
        invoke: Callable[[], LibcResult],
        context: Optional[Dict[str, Any]] = None,
    ) -> LibcResult:
        return invoke()


class LibcFacade:
    """Route Python-level library calls through the injection gate."""

    def __init__(self, os: SimOS, gate: Optional[Any] = None, node: str = "") -> None:
        self.os = os
        self.gate = gate if gate is not None else _DirectGate()
        self.node = node or os.name
        self.errno: int = 0
        self._next_handle = 0x1000
        self._file_handles: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _call(
        self,
        name: str,
        args: Tuple[Any, ...],
        operation: Callable[[], Tuple[int, Dict[str, Any]]],
        context: Optional[Dict[str, Any]] = None,
    ) -> LibcResult:
        """Invoke *name* through the gate.

        ``operation`` performs the real work and returns ``(value, payload)``;
        OS failures are converted to the C error convention here, mirroring
        what :class:`~repro.oslib.libc.SimLibc` does for compiled programs.
        """
        spec = spec_for(name)

        def invoke() -> LibcResult:
            try:
                value, payload = operation()
                return LibcResult(value=value, errno=None, payload=payload)
            except OSFault as fault:
                if spec.errno_via_return:
                    return LibcResult(value=int(fault.errno), errno=None)
                return LibcResult(value=spec.default_error_value, errno=int(fault.errno))

        call_context = {"node": self.node, "os": self.os}
        if context:
            call_context.update(context)
        result = self.gate.call(name, args, invoke, context=call_context)
        if result.errno is not None:
            self.errno = int(result.errno)
        return result

    # ------------------------------------------------------------------
    # file descriptors
    # ------------------------------------------------------------------
    def open(self, path: str, flags: int = fsmod.O_RDONLY) -> int:
        result = self._call("open", (path, flags), lambda: (self.os.fs.open(path, flags), {}))
        return result.value

    def close(self, fd: int) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            self.os.fs.close(fd)
            return 0, {}

        return self._call("close", (fd,), operation).value

    def read(self, fd: int, count: int) -> Optional[bytes]:
        def operation() -> Tuple[int, Dict[str, Any]]:
            data = self.os.fs.read(fd, count)
            return len(data), {"data": data}

        def partial(clamped: int) -> LibcResult:
            data = self.os.fs.read(fd, clamped)
            return LibcResult(value=len(data), payload={"data": data})

        result = self._call("read", (fd, count), operation, context={"partial_io": partial})
        if result.value < 0:
            return None
        return result.payload.get("data", b"")

    def write(self, fd: int, data: bytes) -> int:
        def partial(clamped: int) -> LibcResult:
            return LibcResult(value=self.os.fs.write(fd, data[:clamped]))

        return self._call(
            "write",
            (fd, len(data)),
            lambda: (self.os.fs.write(fd, data), {}),
            context={"partial_io": partial},
        ).value

    def unlink(self, path: str) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            self.os.fs.unlink(path)
            return 0, {}

        return self._call("unlink", (path,), operation).value

    def fcntl(self, fd: int, cmd: int, arg: int = 0) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            if cmd == F_GETFL:
                return self.os.fs.fd_flags(fd), {}
            if cmd == F_SETFL:
                self.os.fs.set_fd_flags(fd, arg)
                return 0, {}
            if cmd in (F_GETLK, F_SETLK):
                if not self.os.fs.descriptor_is_open(fd):
                    raise OSFault(Errno.EBADF, f"fcntl on fd {fd}")
                return 0, {}
            raise OSFault(Errno.EINVAL, f"fcntl cmd {cmd}")

        return self._call("fcntl", (fd, cmd, arg), operation).value

    # ------------------------------------------------------------------
    # stdio-style handles
    # ------------------------------------------------------------------
    def fopen(self, path: str, mode: str = "r") -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            flags = fsmod.O_RDONLY
            if "w" in mode:
                flags = fsmod.O_WRONLY | fsmod.O_CREAT | fsmod.O_TRUNC
            elif "a" in mode:
                flags = fsmod.O_WRONLY | fsmod.O_CREAT | fsmod.O_APPEND
            fd = self.os.fs.open(path, flags)
            handle = self._next_handle
            self._next_handle += 1
            self._file_handles[handle] = fd
            return handle, {}

        return self._call("fopen", (path, mode), operation).value

    def _handle_fd(self, handle: int) -> int:
        if handle == 0:
            # Passing a NULL FILE* to the stdio layer crashes in C; mirror
            # that so unchecked-fopen bugs (PBFT, Table 1) manifest the same
            # way for Python-level targets as for compiled ones.
            raise MemoryFault(0, "FILE* is NULL")
        if handle not in self._file_handles:
            raise OSFault(Errno.EBADF, f"FILE handle {handle}")
        return self._file_handles[handle]

    def fwrite(self, handle: int, data: bytes) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            return self.os.fs.write(self._handle_fd(handle), data), {}

        def partial(clamped: int) -> LibcResult:
            return LibcResult(value=self.os.fs.write(self._handle_fd(handle), data[:clamped]))

        return self._call(
            "fwrite", (0, 1, len(data), handle), operation,
            context={"partial_io": partial},
        ).value

    def fclose(self, handle: int) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            fd = self._handle_fd(handle)
            self.os.fs.close(fd)
            del self._file_handles[handle]
            return 0, {}

        return self._call("fclose", (handle,), operation).value

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------
    def socket(self) -> int:
        return self._call("socket", (2, 2, 0), lambda: (self.os.network.socket(owner=self.node), {})).value

    def bind(self, fd: int, address: int) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            self.os.network.bind(fd, address)
            return 0, {}

        return self._call("bind", (fd, address, 0), operation).value

    def sendto(self, fd: int, payload: bytes, destination: int) -> int:
        def operation() -> Tuple[int, Dict[str, Any]]:
            sent = self.os.network.sendto(fd, payload, destination, now=self.os.clock.now)
            return sent, {}

        return self._call(
            "sendto", (fd, len(payload), len(payload), 0, destination, 0), operation
        ).value

    def recvfrom(self, fd: int) -> Optional[Tuple[bytes, int]]:
        def operation() -> Tuple[int, Dict[str, Any]]:
            payload, source = self.os.network.recvfrom(fd)
            return len(payload), {"data": payload, "source": source}

        result = self._call("recvfrom", (fd, 0, 65536, 0, 0, 0), operation)
        if result.value < 0 or "data" not in result.payload:
            return None
        return result.payload["data"], result.payload["source"]

    # ------------------------------------------------------------------
    # threads / sync
    # ------------------------------------------------------------------
    def mutex_lock(self, mutex_id: int) -> int:
        return self._call(
            "pthread_mutex_lock", (mutex_id,), lambda: (self.os.mutexes.lock(mutex_id), {})
        ).value

    def mutex_unlock(self, mutex_id: int) -> int:
        return self._call(
            "pthread_mutex_unlock", (mutex_id,), lambda: (self.os.mutexes.unlock(mutex_id), {})
        ).value

    # ------------------------------------------------------------------
    # apr
    # ------------------------------------------------------------------
    def apr_file_read(self, fd: int, count: int) -> Tuple[int, bytes]:
        def operation() -> Tuple[int, Dict[str, Any]]:
            data = self.os.fs.read(fd, count)
            status = 0 if data or count == 0 else 70008
            return status, {"data": data}

        result = self._call("apr_file_read", (fd, 0, count), operation)
        return result.value, result.payload.get("data", b"")

    def apr_stat(self, path: str) -> Tuple[int, Optional[fsmod.Stat]]:
        def operation() -> Tuple[int, Dict[str, Any]]:
            return 0, {"stat": self.os.fs.stat(path)}

        result = self._call("apr_stat", (0, path, 0, 0), operation)
        return result.value, result.payload.get("stat")


__all__ = ["LibcFacade"]
