"""In-memory filesystem with POSIX-flavoured semantics.

This is the substrate behind ``open``/``read``/``write``/``close``,
``opendir``/``readdir``, ``unlink``, ``readlink``, ``stat`` and the stdio
layer (``fopen``/``fread``/``fwrite``).  Failures surface as
:class:`~repro.oslib.errors.OSFault` carrying an errno, which the libc layer
converts into error returns — the same externalized errors the LFI profiler
reports and the injector simulates.

:meth:`SimFileSystem.capture_state` / :meth:`SimFileSystem.restore_state`
are the filesystem's contribution to the forkserver-style snapshot engine
(:mod:`repro.vm.snapshot`): a structural copy of every file, symlink,
directory, open descriptor (pipe ends keep sharing one buffer after a
restore) and directory stream, detached from the live objects so a restored
run cannot observe mutations made by a later fork.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.oslib.errno_codes import Errno
from repro.oslib.errors import OSFault

# open(2) flag bits (subset).
O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_NONBLOCK = 0o4000

# File "mode" kinds reported by stat/fstat.
S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFIFO = 0o010000
S_IFLNK = 0o120000


def s_isfifo(mode: int) -> bool:
    return (mode & 0o170000) == S_IFIFO


def s_isreg(mode: int) -> bool:
    return (mode & 0o170000) == S_IFREG


@dataclass
class SimFile:
    """A regular file."""

    path: str
    data: bytearray = field(default_factory=bytearray)
    mode: int = S_IFREG | 0o644
    read_only: bool = False

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass
class SimSymlink:
    path: str
    target: str
    mode: int = S_IFLNK | 0o777


@dataclass
class Stat:
    """Result of ``stat``/``fstat``."""

    mode: int
    size: int
    inode: int

    def is_fifo(self) -> bool:
        return s_isfifo(self.mode)


@dataclass
class OpenFile:
    """An open file description (shared by dup'ed descriptors)."""

    file: Optional[SimFile]
    flags: int
    offset: int = 0
    is_pipe: bool = False
    pipe_buffer: Optional[bytearray] = None
    closed: bool = False

    @property
    def kind_mode(self) -> int:
        if self.is_pipe:
            return S_IFIFO | 0o600
        assert self.file is not None
        return self.file.mode


@dataclass
class DirStream:
    """State behind an ``opendir`` handle."""

    path: str
    entries: List[str]
    position: int = 0
    closed: bool = False


class SimFileSystem:
    """The in-memory filesystem shared by all code of one simulated process."""

    MAX_OPEN_FILES = 1024

    def __init__(self) -> None:
        self._files: Dict[str, SimFile] = {}
        self._symlinks: Dict[str, SimSymlink] = {}
        self._dirs: set = {"/"}
        self._descriptors: Dict[int, OpenFile] = {}
        self._dir_streams: Dict[int, DirStream] = {}
        self._next_fd = 3  # 0/1/2 reserved for std streams
        self._next_dir_handle = 1
        self._next_inode = 1
        self._inodes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # path helpers and direct population (used by target fixtures)
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(path: str) -> str:
        if not path:
            raise OSFault(Errno.ENOENT, "empty path")
        normalized = posixpath.normpath(path if path.startswith("/") else "/" + path)
        return normalized

    def add_file(self, path: str, data: bytes = b"", read_only: bool = False) -> SimFile:
        path = self._normalize(path)
        self.make_dirs(posixpath.dirname(path))
        sim_file = SimFile(path=path, data=bytearray(data), read_only=read_only)
        self._files[path] = sim_file
        self._inodes.setdefault(path, self._allocate_inode())
        return sim_file

    def add_symlink(self, path: str, target: str) -> None:
        path = self._normalize(path)
        self.make_dirs(posixpath.dirname(path))
        self._symlinks[path] = SimSymlink(path=path, target=target)
        self._inodes.setdefault(path, self._allocate_inode())

    def make_dirs(self, path: str) -> None:
        path = self._normalize(path)
        parts = [part for part in path.split("/") if part]
        current = "/"
        self._dirs.add(current)
        for part in parts:
            current = posixpath.join(current, part)
            self._dirs.add(current)
            self._inodes.setdefault(current, self._allocate_inode())

    def _allocate_inode(self) -> int:
        inode = self._next_inode
        self._next_inode += 1
        return inode

    def exists(self, path: str) -> bool:
        path = self._normalize(path)
        return path in self._files or path in self._dirs or path in self._symlinks

    def file_contents(self, path: str) -> bytes:
        path = self._normalize(path)
        if path not in self._files:
            raise OSFault(Errno.ENOENT, path)
        return bytes(self._files[path].data)

    def list_dir(self, path: str) -> List[str]:
        path = self._normalize(path)
        if path not in self._dirs:
            raise OSFault(Errno.ENOENT, path)
        entries = set()
        prefix = path.rstrip("/") + "/"
        if path == "/":
            prefix = "/"
        for candidate in list(self._files) + list(self._dirs) + list(self._symlinks):
            if candidate == path:
                continue
            if candidate.startswith(prefix):
                remainder = candidate[len(prefix):]
                if remainder and "/" not in remainder:
                    entries.add(remainder)
        return sorted(entries)

    # ------------------------------------------------------------------
    # descriptor-level API
    # ------------------------------------------------------------------
    def _allocate_fd(self, open_file: OpenFile) -> int:
        if len(self._descriptors) >= self.MAX_OPEN_FILES:
            raise OSFault(Errno.EMFILE, "too many open files")
        fd = self._next_fd
        self._next_fd += 1
        self._descriptors[fd] = open_file
        return fd

    def _descriptor(self, fd: int) -> OpenFile:
        open_file = self._descriptors.get(fd)
        if open_file is None or open_file.closed:
            raise OSFault(Errno.EBADF, f"fd {fd}")
        return open_file

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        path = self._normalize(path)
        if path in self._symlinks:
            path = self._normalize(self._symlinks[path].target)
        existing = self._files.get(path)
        if existing is None:
            if path in self._dirs:
                raise OSFault(Errno.EISDIR, path)
            if not flags & O_CREAT:
                raise OSFault(Errno.ENOENT, path)
            parent = posixpath.dirname(path)
            if parent not in self._dirs:
                raise OSFault(Errno.ENOENT, parent)
            existing = self.add_file(path)
        if existing.read_only and flags & (O_WRONLY | O_RDWR | O_TRUNC):
            raise OSFault(Errno.EACCES, path)
        if flags & O_TRUNC:
            existing.data = bytearray()
        open_file = OpenFile(file=existing, flags=flags)
        if flags & O_APPEND:
            open_file.offset = existing.size
        return self._allocate_fd(open_file)

    def close(self, fd: int) -> None:
        open_file = self._descriptor(fd)
        open_file.closed = True
        del self._descriptors[fd]

    def read(self, fd: int, count: int) -> bytes:
        open_file = self._descriptor(fd)
        if count < 0:
            raise OSFault(Errno.EINVAL, "negative count")
        if open_file.is_pipe:
            assert open_file.pipe_buffer is not None
            if not open_file.pipe_buffer:
                if open_file.flags & O_NONBLOCK:
                    raise OSFault(Errno.EAGAIN, "pipe empty")
                return b""
            data = bytes(open_file.pipe_buffer[:count])
            del open_file.pipe_buffer[:count]
            return data
        if open_file.file is None:
            raise OSFault(Errno.EBADF, f"fd {fd}")
        if open_file.flags & O_WRONLY:
            raise OSFault(Errno.EBADF, "write-only descriptor")
        data = bytes(open_file.file.data[open_file.offset:open_file.offset + count])
        open_file.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        open_file = self._descriptor(fd)
        if open_file.is_pipe:
            assert open_file.pipe_buffer is not None
            open_file.pipe_buffer.extend(data)
            return len(data)
        if open_file.file is None:
            raise OSFault(Errno.EBADF, f"fd {fd}")
        if open_file.file.read_only:
            raise OSFault(Errno.EACCES, open_file.file.path)
        if not open_file.flags & (O_WRONLY | O_RDWR):
            raise OSFault(Errno.EBADF, "read-only descriptor")
        end = open_file.offset + len(data)
        file_data = open_file.file.data
        if end > len(file_data):
            file_data.extend(b"\x00" * (end - len(file_data)))
        file_data[open_file.offset:end] = data
        open_file.offset = end
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        open_file = self._descriptor(fd)
        if open_file.is_pipe:
            raise OSFault(Errno.ESPIPE, "seek on pipe")
        assert open_file.file is not None
        if whence == 0:
            new_offset = offset
        elif whence == 1:
            new_offset = open_file.offset + offset
        elif whence == 2:
            new_offset = open_file.file.size + offset
        else:
            raise OSFault(Errno.EINVAL, f"whence {whence}")
        if new_offset < 0:
            raise OSFault(Errno.EINVAL, "negative offset")
        open_file.offset = new_offset
        return new_offset

    def fstat(self, fd: int) -> Stat:
        open_file = self._descriptor(fd)
        size = 0
        if open_file.is_pipe and open_file.pipe_buffer is not None:
            size = len(open_file.pipe_buffer)
        elif open_file.file is not None:
            size = open_file.file.size
        inode = 0
        if open_file.file is not None:
            inode = self._inodes.get(open_file.file.path, 0)
        return Stat(mode=open_file.kind_mode, size=size, inode=inode)

    def stat(self, path: str) -> Stat:
        path = self._normalize(path)
        if path in self._symlinks:
            path = self._normalize(self._symlinks[path].target)
        if path in self._files:
            f = self._files[path]
            return Stat(mode=f.mode, size=f.size, inode=self._inodes.get(path, 0))
        if path in self._dirs:
            return Stat(mode=S_IFDIR | 0o755, size=0, inode=self._inodes.get(path, 0))
        raise OSFault(Errno.ENOENT, path)

    def unlink(self, path: str) -> None:
        path = self._normalize(path)
        if path in self._symlinks:
            del self._symlinks[path]
            return
        if path not in self._files:
            if path in self._dirs:
                raise OSFault(Errno.EISDIR, path)
            raise OSFault(Errno.ENOENT, path)
        if self._files[path].read_only:
            raise OSFault(Errno.EACCES, path)
        del self._files[path]

    def readlink(self, path: str) -> str:
        path = self._normalize(path)
        link = self._symlinks.get(path)
        if link is None:
            if path in self._files or path in self._dirs:
                raise OSFault(Errno.EINVAL, f"{path} is not a symlink")
            raise OSFault(Errno.ENOENT, path)
        return link.target

    def mkdir(self, path: str) -> None:
        path = self._normalize(path)
        if self.exists(path):
            raise OSFault(Errno.EEXIST, path)
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise OSFault(Errno.ENOENT, parent)
        self._dirs.add(path)
        self._inodes.setdefault(path, self._allocate_inode())

    def fd_flags(self, fd: int) -> int:
        return self._descriptor(fd).flags

    def set_fd_flags(self, fd: int, flags: int) -> None:
        self._descriptor(fd).flags = flags

    def descriptor_is_open(self, fd: int) -> bool:
        open_file = self._descriptors.get(fd)
        return open_file is not None and not open_file.closed

    # ------------------------------------------------------------------
    # snapshot support (repro.vm.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        """Structural copy of the whole filesystem (files, fds, streams)."""
        pipe_buffers: Dict[int, bytes] = {}
        inline_files: Dict[int, tuple] = {}
        descriptors: Dict[int, tuple] = {}
        for fd, open_file in self._descriptors.items():
            file_path = None
            inline_key = None
            if open_file.file is not None:
                if self._files.get(open_file.file.path) is open_file.file:
                    file_path = open_file.file.path
                else:
                    # Open-but-unlinked file: its contents only live behind
                    # descriptors.  Keyed by object identity so several
                    # descriptors of one unlinked file keep sharing a
                    # single SimFile after a restore.
                    inline_key = id(open_file.file)
                    inline_files.setdefault(
                        inline_key,
                        (
                            open_file.file.path,
                            bytes(open_file.file.data),
                            open_file.file.mode,
                            open_file.file.read_only,
                        ),
                    )
            pipe_key = None
            if open_file.pipe_buffer is not None:
                pipe_key = id(open_file.pipe_buffer)
                pipe_buffers.setdefault(pipe_key, bytes(open_file.pipe_buffer))
            descriptors[fd] = (
                file_path,
                inline_key,
                open_file.flags,
                open_file.offset,
                open_file.is_pipe,
                pipe_key,
                open_file.closed,
            )
        return {
            "files": {
                path: (bytes(f.data), f.mode, f.read_only)
                for path, f in self._files.items()
            },
            "symlinks": {
                path: (link.target, link.mode) for path, link in self._symlinks.items()
            },
            "dirs": set(self._dirs),
            "inodes": dict(self._inodes),
            "descriptors": descriptors,
            "inline_files": inline_files,
            "pipe_buffers": pipe_buffers,
            "dir_streams": {
                handle: (stream.path, list(stream.entries), stream.position, stream.closed)
                for handle, stream in self._dir_streams.items()
            },
            "next_fd": self._next_fd,
            "next_dir_handle": self._next_dir_handle,
            "next_inode": self._next_inode,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the filesystem from a :meth:`capture_state` snapshot."""
        self._files = {
            path: SimFile(path=path, data=bytearray(data), mode=mode, read_only=read_only)
            for path, (data, mode, read_only) in state["files"].items()
        }
        self._symlinks = {
            path: SimSymlink(path=path, target=target, mode=mode)
            for path, (target, mode) in state["symlinks"].items()
        }
        self._dirs = set(state["dirs"])
        self._inodes = dict(state["inodes"])
        shared_buffers = {
            key: bytearray(data) for key, data in state["pipe_buffers"].items()
        }
        shared_inline = {
            key: SimFile(path=path, data=bytearray(data), mode=mode,
                         read_only=read_only)
            for key, (path, data, mode, read_only) in state["inline_files"].items()
        }
        self._descriptors = {}
        for fd, entry in state["descriptors"].items():
            (file_path, inline_key, flags, offset, is_pipe, pipe_key,
             closed) = entry
            sim_file = None
            if file_path is not None:
                sim_file = self._files[file_path]
            elif inline_key is not None:
                sim_file = shared_inline[inline_key]
            self._descriptors[fd] = OpenFile(
                file=sim_file,
                flags=flags,
                offset=offset,
                is_pipe=is_pipe,
                pipe_buffer=shared_buffers[pipe_key] if pipe_key is not None else None,
                closed=closed,
            )
        self._dir_streams = {
            handle: DirStream(path=path, entries=list(entries), position=position,
                              closed=closed)
            for handle, (path, entries, position, closed) in state["dir_streams"].items()
        }
        self._next_fd = state["next_fd"]
        self._next_dir_handle = state["next_dir_handle"]
        self._next_inode = state["next_inode"]

    # ------------------------------------------------------------------
    # pipes
    # ------------------------------------------------------------------
    def make_pipe(self, nonblocking: bool = False) -> Tuple[int, int]:
        """Create a pipe; returns (read_fd, write_fd) sharing one buffer."""
        buffer = bytearray()
        flags = O_NONBLOCK if nonblocking else 0
        read_end = OpenFile(file=None, flags=O_RDONLY | flags, is_pipe=True, pipe_buffer=buffer)
        write_end = OpenFile(file=None, flags=O_WRONLY | flags, is_pipe=True, pipe_buffer=buffer)
        return self._allocate_fd(read_end), self._allocate_fd(write_end)

    # ------------------------------------------------------------------
    # directory streams
    # ------------------------------------------------------------------
    def opendir(self, path: str) -> int:
        path = self._normalize(path)
        if path not in self._dirs:
            if path in self._files:
                raise OSFault(Errno.ENOTDIR, path)
            raise OSFault(Errno.ENOENT, path)
        handle = self._next_dir_handle
        self._next_dir_handle += 1
        self._dir_streams[handle] = DirStream(path=path, entries=self.list_dir(path))
        return handle

    def readdir(self, handle: int) -> Optional[str]:
        stream = self._dir_streams.get(handle)
        if stream is None or stream.closed:
            raise OSFault(Errno.EBADF, f"dir handle {handle}")
        if stream.position >= len(stream.entries):
            return None
        entry = stream.entries[stream.position]
        stream.position += 1
        return entry

    def closedir(self, handle: int) -> None:
        stream = self._dir_streams.get(handle)
        if stream is None or stream.closed:
            raise OSFault(Errno.EBADF, f"dir handle {handle}")
        stream.closed = True
        del self._dir_streams[handle]


__all__ = [
    "DirStream",
    "O_APPEND",
    "O_CREAT",
    "O_NONBLOCK",
    "O_RDONLY",
    "O_RDWR",
    "O_TRUNC",
    "O_WRONLY",
    "OpenFile",
    "S_IFDIR",
    "S_IFIFO",
    "S_IFREG",
    "SimFile",
    "SimFileSystem",
    "Stat",
    "s_isfifo",
    "s_isreg",
]
