"""The simulated libc: function specifications and word-level semantics.

Two things live here:

* :data:`LIBC_FUNCTIONS` — the specification of every interceptable library
  function: its arity, which library exports it, which error return values
  it can produce and which ``errno`` values accompany them.  This is the
  ground truth that the synthetic ``libc.so`` binary is generated from and
  that the LFI profiler's inferences are validated against.
* :class:`SimLibc` — the runtime implementation used when compiled programs
  execute inside the VM.  Arguments are machine words; pointers are VM
  addresses and buffers are marshalled through a :class:`MemoryAccess`
  object provided by the VM.

Genuine failures of the simulated OS surface as
:class:`~repro.oslib.errors.OSFault` and are converted here into the
C conventions (``-1``/``NULL`` return plus ``errno``), exactly like a real
libc converts kernel errors.  *Injected* failures never reach this module —
the fault-injection gate short-circuits them at the boundary, which is the
whole point of library-level fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Sequence, Tuple

from repro.isa import layout
from repro.oslib import fs as fsmod
from repro.oslib.errno_codes import Errno
from repro.oslib.errors import MemoryFault, OSFault, SimExit
from repro.oslib.os_model import SimOS

# fcntl commands (subset).
F_GETFL = 3
F_SETFL = 4
F_GETLK = 5
F_SETLK = 6


# ----------------------------------------------------------------------
# specification model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorReturn:
    """One externalized error: a return value plus possible errno values."""

    value: int
    errnos: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LibcFunctionSpec:
    """Static description of one library function."""

    name: str
    argc: int
    library: str = "libc"
    error_returns: Tuple[ErrorReturn, ...] = ()
    #: Human description of the success return ("byte count", "pointer", ...).
    success: str = "value"
    #: True when the function reports errors through its return value rather
    #: than errno (pthread_* and apr_* conventions).
    errno_via_return: bool = False
    #: True for functions returning pointers (NULL signals failure).
    returns_pointer: bool = False

    @property
    def default_error_value(self) -> int:
        if self.error_returns:
            return self.error_returns[0].value
        return -1

    def error_values(self) -> Tuple[int, ...]:
        return tuple(er.value for er in self.error_returns)


def _spec(
    name: str,
    argc: int,
    error_returns: Sequence[Tuple[int, Sequence[str]]] = (),
    library: str = "libc",
    success: str = "value",
    errno_via_return: bool = False,
    returns_pointer: bool = False,
) -> LibcFunctionSpec:
    return LibcFunctionSpec(
        name=name,
        argc=argc,
        library=library,
        error_returns=tuple(ErrorReturn(value, tuple(errnos)) for value, errnos in error_returns),
        success=success,
        errno_via_return=errno_via_return,
        returns_pointer=returns_pointer,
    )


#: Every function the injector can intercept, keyed by name.
LIBC_FUNCTIONS: Dict[str, LibcFunctionSpec] = {
    spec.name: spec
    for spec in [
        # --- memory -----------------------------------------------------
        _spec("malloc", 1, [(0, ["ENOMEM"])], success="pointer", returns_pointer=True),
        _spec("calloc", 2, [(0, ["ENOMEM"])], success="pointer", returns_pointer=True),
        _spec("realloc", 2, [(0, ["ENOMEM"])], success="pointer", returns_pointer=True),
        _spec("free", 1, [], success="void"),
        # --- file descriptors --------------------------------------------
        _spec("open", 2, [(-1, ["ENOENT", "EACCES", "EMFILE", "EINTR"])], success="fd"),
        _spec("close", 1, [(-1, ["EBADF", "EIO", "EINTR"])], success="zero"),
        _spec("read", 3, [(-1, ["EAGAIN", "EBADF", "EINTR", "EIO"])], success="byte count"),
        _spec("write", 3, [(-1, ["EAGAIN", "EBADF", "EINTR", "EIO", "ENOSPC"])], success="byte count"),
        _spec("lseek", 3, [(-1, ["EBADF", "EINVAL", "ESPIPE"])], success="offset"),
        _spec("fstat", 2, [(-1, ["EBADF"])], success="zero"),
        _spec("stat", 2, [(-1, ["ENOENT", "EACCES"])], success="zero"),
        _spec("unlink", 1, [(-1, ["ENOENT", "EACCES", "EPERM"])], success="zero"),
        _spec("readlink", 3, [(-1, ["ENOENT", "EINVAL", "EACCES"])], success="length"),
        _spec("mkdir", 2, [(-1, ["EEXIST", "EACCES", "ENOENT"])], success="zero"),
        _spec("fcntl", 3, [(-1, ["EACCES", "EAGAIN", "EBADF", "EDEADLK", "EINTR"])], success="value"),
        # --- stdio --------------------------------------------------------
        _spec("fopen", 2, [(0, ["ENOENT", "EACCES", "EMFILE", "ENOMEM"])], success="FILE*", returns_pointer=True),
        _spec("fclose", 1, [(-1, ["EBADF", "EIO"])], success="zero"),
        _spec("fread", 4, [(0, ["EIO"])], success="item count"),
        _spec("fwrite", 4, [(0, ["EIO", "ENOSPC"])], success="item count"),
        _spec("fgets", 3, [(0, ["EIO"])], success="pointer", returns_pointer=True),
        _spec("fseek", 3, [(-1, ["EBADF", "EINVAL"])], success="zero"),
        _spec("puts", 1, [(-1, ["EIO"])], success="length"),
        # --- directories --------------------------------------------------
        _spec("opendir", 1, [(0, ["ENOENT", "EACCES", "ENOMEM", "EMFILE"])], success="DIR*", returns_pointer=True),
        _spec("readdir", 1, [(0, ["EBADF"])], success="dirent*", returns_pointer=True),
        _spec("closedir", 1, [(-1, ["EBADF"])], success="zero"),
        # --- sockets -------------------------------------------------------
        _spec("socket", 3, [(-1, ["EMFILE", "ENOMEM", "EACCES"])], success="fd"),
        _spec("bind", 3, [(-1, ["EADDRINUSE", "EACCES"])], success="zero"),
        _spec("sendto", 6, [(-1, ["EAGAIN", "EINTR", "ENETDOWN", "EMSGSIZE"])], success="byte count"),
        _spec("recvfrom", 6, [(-1, ["EAGAIN", "EINTR", "ENETDOWN", "ECONNREFUSED"])], success="byte count"),
        # --- environment ---------------------------------------------------
        _spec("setenv", 3, [(-1, ["ENOMEM", "EINVAL"])], success="zero"),
        _spec("getenv", 1, [(0, [])], success="pointer", returns_pointer=True),
        # --- threads / sync -------------------------------------------------
        _spec("pthread_mutex_init", 2, [(Errno.EAGAIN.value, []), (Errno.ENOMEM.value, [])],
              library="libpthread", success="zero", errno_via_return=True),
        _spec("pthread_mutex_lock", 1, [(Errno.EINVAL.value, []), (Errno.EDEADLK.value, [])],
              library="libpthread", success="zero", errno_via_return=True),
        _spec("pthread_mutex_unlock", 1, [(Errno.EINVAL.value, []), (Errno.EPERM.value, [])],
              library="libpthread", success="zero", errno_via_return=True),
        _spec("pthread_mutex_destroy", 1, [(Errno.EBUSY.value, []), (Errno.EINVAL.value, [])],
              library="libpthread", success="zero", errno_via_return=True),
        _spec("pthread_self", 0, [], library="libpthread", success="thread id"),
        # --- misc ------------------------------------------------------------
        _spec("time", 1, [(-1, [])], success="seconds"),
        _spec("getpid", 0, [], success="pid"),
        _spec("abort", 0, [], success="void"),
        _spec("exit", 1, [], success="void"),
        _spec("assert_fail", 1, [], success="void"),
        # --- string/memory helpers (no meaningful error returns) -------------
        _spec("strlen", 1, [], success="length"),
        _spec("strcmp", 2, [], success="ordering"),
        _spec("strcpy", 2, [], success="pointer", returns_pointer=True),
        _spec("memset", 3, [], success="pointer", returns_pointer=True),
        _spec("memcpy", 3, [], success="pointer", returns_pointer=True),
        _spec("atoi", 1, [], success="value"),
        # --- libxml2 (BIND statistics channel) --------------------------------
        _spec("xmlNewTextWriterDoc", 2, [(0, ["ENOMEM"])], library="libxml2",
              success="writer*", returns_pointer=True),
        _spec("xmlTextWriterStartDocument", 2, [(-1, [])], library="libxml2", success="bytes"),
        _spec("xmlTextWriterWriteString", 2, [(-1, [])], library="libxml2", success="bytes"),
        _spec("xmlTextWriterEndDocument", 1, [(-1, [])], library="libxml2", success="bytes"),
        _spec("xmlFreeTextWriter", 1, [], library="libxml2", success="void"),
        # --- libapr (Apache portable runtime) ----------------------------------
        _spec("apr_file_read", 3, [(70008, []), (70014, [])], library="libapr",
              success="status", errno_via_return=True),
        _spec("apr_stat", 4, [(70008, []), (2, [])], library="libapr",
              success="status", errno_via_return=True),
    ]
}


def spec_for(name: str) -> LibcFunctionSpec:
    try:
        return LIBC_FUNCTIONS[name]
    except KeyError as exc:
        raise KeyError(f"unknown library function {name!r}") from exc


# ----------------------------------------------------------------------
# runtime result / memory protocol
# ----------------------------------------------------------------------
@dataclass
class LibcResult:
    """Outcome of a library call as seen by the caller."""

    value: int
    errno: Optional[int] = None
    injected: bool = False
    #: Out-of-band payload for the Python facade (e.g. bytes read).
    payload: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.errno is not None


class MemoryAccess(Protocol):
    """What SimLibc needs from the VM memory to marshal buffers."""

    def load(self, address: int) -> int:  # pragma: no cover - protocol
        ...

    def store(self, address: int, value: int) -> None:  # pragma: no cover - protocol
        ...


_FILE_MAGIC = 0xF11E
_DIR_MAGIC = 0xD1D1


def read_c_string(mem: MemoryAccess, address: int, limit: int = 4096) -> str:
    """Read a NUL-terminated string (one character per word)."""
    if layout.is_null_page(address):
        raise MemoryFault(address, "string read through NULL pointer")
    chars = []
    for offset in range(limit):
        word = mem.load(address + offset)
        if word == 0:
            break
        chars.append(chr(word & 0x10FFFF))
    return "".join(chars)


def write_c_string(mem: MemoryAccess, address: int, text: str, terminate: bool = True) -> int:
    if layout.is_null_page(address):
        raise MemoryFault(address, "string write through NULL pointer")
    for index, char in enumerate(text):
        mem.store(address + index, ord(char))
    if terminate:
        mem.store(address + len(text), 0)
    return len(text)


def read_buffer(mem: MemoryAccess, address: int, count: int) -> bytes:
    if count > 0 and layout.is_null_page(address):
        raise MemoryFault(address, "buffer read through NULL pointer")
    return bytes((mem.load(address + index) & 0xFF) for index in range(count))


def write_buffer(mem: MemoryAccess, address: int, data: bytes) -> int:
    if data and layout.is_null_page(address):
        raise MemoryFault(address, "buffer write through NULL pointer")
    for index, byte in enumerate(data):
        mem.store(address + index, byte)
    return len(data)


# ----------------------------------------------------------------------
# the runtime libc used by the VM
# ----------------------------------------------------------------------
class SimLibc:
    """Word-level libc implementation bound to one :class:`SimOS`."""

    def __init__(self, os: SimOS) -> None:
        self.os = os
        self.errno: int = 0
        #: Program reads of the ``errno`` word (the VM engines bump this on
        #: loads from :data:`~repro.isa.layout.ERRNO_ADDRESS`).  The
        #: prefix-sharing scheduler uses the counter to prove a post-
        #: injection suffix never observed errno, making errno-only fault
        #: variants suffix replicas of one another.
        self.errno_reads: int = 0
        self._impls: Dict[str, Callable[[Tuple[int, ...], MemoryAccess], int]] = {}
        self._register_implementations()
        #: Data written by fwrite/puts keyed by path, for oracles and tests.
        self.assert_messages: list = []

    # ------------------------------------------------------------------
    def set_errno(self, value: int, mem: Optional[MemoryAccess] = None) -> None:
        self.errno = int(value)
        if mem is not None:
            mem.store(layout.ERRNO_ADDRESS, int(value))

    def call(self, name: str, args: Tuple[int, ...], mem: MemoryAccess) -> LibcResult:
        """Execute the real library function (no fault injected)."""
        spec = spec_for(name)
        impl = self._impls.get(name)
        if impl is None:
            raise NotImplementedError(f"SimLibc has no implementation for {name!r}")
        try:
            value = impl(args, mem)
            return LibcResult(value=int(value), errno=None, injected=False)
        except OSFault as fault:
            if spec.errno_via_return:
                return LibcResult(value=int(fault.errno), errno=None, injected=False)
            self.set_errno(fault.errno, mem)
            return LibcResult(value=spec.default_error_value, errno=int(fault.errno), injected=False)

    def apply_injected_fault(
        self, name: str, return_value: int, errno: Optional[int], mem: Optional[MemoryAccess]
    ) -> LibcResult:
        """Record the side effects of an injected fault (errno) and build the result."""
        spec = spec_for(name)
        if errno is not None and not spec.errno_via_return:
            self.set_errno(errno, mem)
        return LibcResult(value=int(return_value), errno=errno, injected=True)

    # ------------------------------------------------------------------
    # implementation registry
    # ------------------------------------------------------------------
    def _register_implementations(self) -> None:
        impls = {
            "malloc": self._malloc,
            "free": self._free,
            "open": self._open,
            "close": self._close,
            "read": self._read,
            "write": self._write,
            "unlink": self._unlink,
            "readlink": self._readlink,
            "fopen": self._fopen,
            "fclose": self._fclose,
            "fread": self._fread,
            "fwrite": self._fwrite,
            "puts": self._puts,
            "opendir": self._opendir,
            "readdir": self._readdir,
            "closedir": self._closedir,
            "setenv": self._setenv,
            "getenv": self._getenv,
            "pthread_mutex_lock": self._pthread_mutex_lock,
            "time": self._time,
            "getpid": self._getpid,
            "abort": self._abort,
            "exit": self._exit,
            "assert_fail": self._assert_fail,
            "strlen": self._strlen,
            "strcpy": self._strcpy,
            "memset": self._memset,
            "atoi": self._atoi,
            "xmlNewTextWriterDoc": self._xml_new_text_writer_doc,
            "xmlTextWriterStartDocument": self._xml_writer_touch,
            "xmlTextWriterWriteString": self._xml_writer_touch,
            "xmlTextWriterEndDocument": self._xml_writer_touch_single,
            "xmlFreeTextWriter": self._xml_free_text_writer,
        }
        self._impls.update(impls)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def _malloc(self, args, mem) -> int:
        return self.os.heap.malloc(args[0])

    def _free(self, args, mem) -> int:
        try:
            self.os.heap.free(args[0])
        except OSFault as fault:
            # glibc aborts on heap corruption rather than returning an error.
            raise SimExit(134, aborted=True, reason=f"free(): invalid pointer ({fault})")
        return 0

    # ------------------------------------------------------------------
    # file descriptors
    # ------------------------------------------------------------------
    def _open(self, args, mem) -> int:
        path = read_c_string(mem, args[0])
        return self.os.fs.open(path, args[1])

    def _close(self, args, mem) -> int:
        self.os.fs.close(args[0])
        return 0

    def _read(self, args, mem) -> int:
        fd, buf, count = args[0], args[1], args[2]
        data = self.os.fs.read(fd, count)
        write_buffer(mem, buf, data)
        return len(data)

    def _write(self, args, mem) -> int:
        fd, buf, count = args[0], args[1], args[2]
        data = read_buffer(mem, buf, count)
        return self.os.fs.write(fd, data)

    def _unlink(self, args, mem) -> int:
        self.os.fs.unlink(read_c_string(mem, args[0]))
        return 0

    def _readlink(self, args, mem) -> int:
        path = read_c_string(mem, args[0])
        target = self.os.fs.readlink(path)
        truncated = target[: args[2]]
        write_c_string(mem, args[1], truncated, terminate=False)
        return len(truncated)

    # ------------------------------------------------------------------
    # stdio
    # ------------------------------------------------------------------
    def _fopen(self, args, mem) -> int:
        path = read_c_string(mem, args[0])
        mode = read_c_string(mem, args[1])
        flags = fsmod.O_RDONLY
        if "w" in mode:
            flags = fsmod.O_WRONLY | fsmod.O_CREAT | fsmod.O_TRUNC
        elif "a" in mode:
            flags = fsmod.O_WRONLY | fsmod.O_CREAT | fsmod.O_APPEND
        elif "+" in mode:
            flags = fsmod.O_RDWR | fsmod.O_CREAT
        fd = self.os.fs.open(path, flags)
        handle = self.os.heap.malloc(2)
        mem.store(handle, fd)
        mem.store(handle + 1, _FILE_MAGIC)
        return handle

    def _file_fd(self, mem: MemoryAccess, handle: int) -> int:
        if layout.is_null_page(handle):
            raise MemoryFault(handle, "FILE* is NULL")
        return mem.load(handle)

    def _fclose(self, args, mem) -> int:
        fd = self._file_fd(mem, args[0])
        self.os.fs.close(fd)
        self.os.heap.free(args[0])
        return 0

    def _fread(self, args, mem) -> int:
        buf, size, count, handle = args
        fd = self._file_fd(mem, handle)
        data = self.os.fs.read(fd, size * count)
        write_buffer(mem, buf, data)
        return len(data) // max(size, 1)

    def _fwrite(self, args, mem) -> int:
        buf, size, count, handle = args
        fd = self._file_fd(mem, handle)
        data = read_buffer(mem, buf, size * count)
        written = self.os.fs.write(fd, data)
        return written // max(size, 1)

    def _puts(self, args, mem) -> int:
        text = read_c_string(mem, args[0])
        self.os.write_stdout(text + "\n")
        return len(text) + 1

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------
    def _opendir(self, args, mem) -> int:
        path = read_c_string(mem, args[0])
        handle = self.os.fs.opendir(path)
        dirp = self.os.heap.malloc(4)
        name_buffer = self.os.heap.malloc(128)
        mem.store(dirp, handle)
        mem.store(dirp + 1, _DIR_MAGIC)
        mem.store(dirp + 2, name_buffer)
        return dirp

    def _readdir(self, args, mem) -> int:
        dirp = args[0]
        # A NULL DIR* dereference faults here, inside the library, which is
        # exactly how the Git opendir/readdir bug from Table 1 crashes.
        handle = mem.load(dirp)
        name = self.os.fs.readdir(handle)
        if name is None:
            return 0
        name_buffer = mem.load(dirp + 2)
        write_c_string(mem, name_buffer, name)
        return name_buffer

    def _closedir(self, args, mem) -> int:
        dirp = args[0]
        handle = mem.load(dirp)
        self.os.fs.closedir(handle)
        return 0

    # ------------------------------------------------------------------
    # environment
    # ------------------------------------------------------------------
    def _setenv(self, args, mem) -> int:
        name = read_c_string(mem, args[0])
        value = read_c_string(mem, args[1])
        try:
            return self.os.env.setenv(name, value, overwrite=bool(args[2]))
        except OSFault:
            self.os.env.record_failed_update(name, value)
            raise

    def _getenv(self, args, mem) -> int:
        name = read_c_string(mem, args[0])
        value = self.os.env.getenv(name)
        if value is None:
            return 0
        buffer = self.os.heap.malloc(len(value) + 1)
        write_c_string(mem, buffer, value)
        return buffer

    # ------------------------------------------------------------------
    # threads / sync
    # ------------------------------------------------------------------
    def _pthread_mutex_lock(self, args, mem) -> int:
        return self.os.mutexes.lock(args[0])

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _time(self, args, mem) -> int:
        seconds = int(self.os.clock.now)
        if args and args[0] and not layout.is_null_page(args[0]):
            mem.store(args[0], seconds)
        return seconds

    def _getpid(self, args, mem) -> int:
        return 4242

    def _abort(self, args, mem) -> int:
        raise SimExit(134, aborted=True, reason="abort() called")

    def _exit(self, args, mem) -> int:
        raise SimExit(args[0] if args else 0)

    def _assert_fail(self, args, mem) -> int:
        message = read_c_string(mem, args[0]) if args and args[0] else "assertion failed"
        self.assert_messages.append(message)
        raise SimExit(134, aborted=True, reason=f"assertion failed: {message}")

    # ------------------------------------------------------------------
    # string helpers
    # ------------------------------------------------------------------
    def _strlen(self, args, mem) -> int:
        return len(read_c_string(mem, args[0]))

    def _strcpy(self, args, mem) -> int:
        text = read_c_string(mem, args[1])
        write_c_string(mem, args[0], text)
        return args[0]

    def _memset(self, args, mem) -> int:
        address, value, count = args
        for offset in range(count):
            mem.store(address + offset, value & 0xFF)
        return address

    def _atoi(self, args, mem) -> int:
        text = read_c_string(mem, args[0]).strip()
        sign = 1
        if text.startswith("-"):
            sign = -1
            text = text[1:]
        digits = ""
        for char in text:
            if not char.isdigit():
                break
            digits += char
        return sign * int(digits) if digits else 0

    # ------------------------------------------------------------------
    # libxml2 subset used by the BIND statistics channel
    # ------------------------------------------------------------------
    def _xml_new_text_writer_doc(self, args, mem) -> int:
        writer = self.os.heap.malloc(8)
        mem.store(writer, 0x3A31)  # marker
        mem.store(writer + 1, 0)   # bytes written
        if args and args[0] and not layout.is_null_page(args[0]):
            mem.store(args[0], writer)
        return writer

    def _xml_writer_touch(self, args, mem) -> int:
        writer = args[0]
        if layout.is_null_page(writer):
            raise MemoryFault(writer, "xml writer is NULL")
        written = mem.load(writer + 1) + 1
        mem.store(writer + 1, written)
        return written

    def _xml_writer_touch_single(self, args, mem) -> int:
        return self._xml_writer_touch(args, mem)

    def _xml_free_text_writer(self, args, mem) -> int:
        if args[0]:
            self.os.heap.free(args[0])
        return 0


__all__ = [
    "ErrorReturn",
    "F_GETFL",
    "F_GETLK",
    "F_SETFL",
    "F_SETLK",
    "LIBC_FUNCTIONS",
    "LibcFunctionSpec",
    "LibcResult",
    "MemoryAccess",
    "SimLibc",
    "read_buffer",
    "read_c_string",
    "spec_for",
    "write_buffer",
    "write_c_string",
]
