"""Tests for the simulated OS: filesystem, heap, mutexes, env, network, libc."""

import pytest

from repro.isa import layout
from repro.oslib import fs as fsmod
from repro.oslib.clock import SimClock
from repro.oslib.errno_codes import Errno, errno_name, errno_value
from repro.oslib.errors import MemoryFault, MutexAbort, OSFault, SimExit
from repro.oslib.facade import LibcFacade
from repro.oslib.heap import SimHeap
from repro.oslib.libc import LIBC_FUNCTIONS, SimLibc, spec_for
from repro.oslib.libc_binary import build_all_library_binaries, build_library_binary
from repro.oslib.net import SimNetwork
from repro.oslib.os_model import SimOS
from repro.oslib.sync import MutexTable
from repro.vm.memory import Memory


class TestErrno:
    def test_roundtrip(self):
        assert errno_value("EINTR") == 4
        assert errno_name(4) == "EINTR"
        assert errno_value("22") == 22
        assert errno_name(99999).startswith("E?")
        with pytest.raises(KeyError):
            errno_value("ENOTAREALERRNO")

    def test_enum_values_match_linux(self):
        assert Errno.ENOENT == 2 and Errno.EIO == 5 and Errno.EAGAIN == 11


class TestFileSystem:
    def test_create_read_write(self):
        fs = fsmod.SimFileSystem()
        fs.add_file("/etc/conf", b"hello")
        fd = fs.open("/etc/conf", fsmod.O_RDWR)
        assert fs.read(fd, 5) == b"hello"
        assert fs.read(fd, 5) == b""
        fs.lseek(fd, 0)
        fs.write(fd, b"HELLO!")
        fs.close(fd)
        assert fs.file_contents("/etc/conf") == b"HELLO!"

    def test_open_errors(self):
        fs = fsmod.SimFileSystem()
        with pytest.raises(OSFault) as excinfo:
            fs.open("/missing", fsmod.O_RDONLY)
        assert excinfo.value.errno == Errno.ENOENT
        fs.make_dirs("/dir")
        with pytest.raises(OSFault):
            fs.open("/dir", fsmod.O_RDONLY)

    def test_create_and_truncate_flags(self):
        fs = fsmod.SimFileSystem()
        fs.make_dirs("/var")
        fd = fs.open("/var/new.log", fsmod.O_WRONLY | fsmod.O_CREAT)
        fs.write(fd, b"abc")
        fs.close(fd)
        fd = fs.open("/var/new.log", fsmod.O_WRONLY | fsmod.O_CREAT | fsmod.O_TRUNC)
        fs.close(fd)
        assert fs.file_contents("/var/new.log") == b""

    def test_bad_descriptor(self):
        fs = fsmod.SimFileSystem()
        with pytest.raises(OSFault) as excinfo:
            fs.read(99, 4)
        assert excinfo.value.errno == Errno.EBADF

    def test_unlink_and_stat(self):
        fs = fsmod.SimFileSystem()
        fs.add_file("/a/b.txt", b"x" * 10)
        stat = fs.stat("/a/b.txt")
        assert stat.size == 10 and fsmod.s_isreg(stat.mode)
        fs.unlink("/a/b.txt")
        assert not fs.exists("/a/b.txt")
        with pytest.raises(OSFault):
            fs.unlink("/a/b.txt")

    def test_read_only_files(self):
        fs = fsmod.SimFileSystem()
        fs.add_file("/ro.txt", b"data", read_only=True)
        with pytest.raises(OSFault) as excinfo:
            fs.open("/ro.txt", fsmod.O_WRONLY)
        assert excinfo.value.errno == Errno.EACCES
        with pytest.raises(OSFault):
            fs.unlink("/ro.txt")

    def test_directories_and_streams(self):
        fs = fsmod.SimFileSystem()
        fs.add_file("/repo/a", b"")
        fs.add_file("/repo/b", b"")
        fs.make_dirs("/repo/sub")
        assert fs.list_dir("/repo") == ["a", "b", "sub"]
        handle = fs.opendir("/repo")
        names = []
        while True:
            name = fs.readdir(handle)
            if name is None:
                break
            names.append(name)
        assert names == ["a", "b", "sub"]
        fs.closedir(handle)
        with pytest.raises(OSFault):
            fs.readdir(handle)
        with pytest.raises(OSFault):
            fs.opendir("/repo/a")

    def test_symlinks_and_readlink(self):
        fs = fsmod.SimFileSystem()
        fs.add_file("/target.txt", b"content")
        fs.add_symlink("/link", "/target.txt")
        assert fs.readlink("/link") == "/target.txt"
        fd = fs.open("/link", fsmod.O_RDONLY)
        assert fs.read(fd, 7) == b"content"
        with pytest.raises(OSFault):
            fs.readlink("/target.txt")

    def test_pipes_and_fstat(self):
        fs = fsmod.SimFileSystem()
        read_end, write_end = fs.make_pipe()
        fs.write(write_end, b"ping")
        assert fs.read(read_end, 4) == b"ping"
        assert fs.fstat(read_end).is_fifo()
        nb_read, _nb_write = fs.make_pipe(nonblocking=True)
        with pytest.raises(OSFault) as excinfo:
            fs.read(nb_read, 1)
        assert excinfo.value.errno == Errno.EAGAIN

    def test_mkdir(self):
        fs = fsmod.SimFileSystem()
        fs.make_dirs("/var")
        fs.mkdir("/var/cache")
        assert fs.exists("/var/cache")
        with pytest.raises(OSFault):
            fs.mkdir("/var/cache")
        with pytest.raises(OSFault):
            fs.mkdir("/nonexistent/child")


class TestHeap:
    def test_allocation_and_free(self):
        heap = SimHeap(base=1000, capacity=100)
        a = heap.malloc(10)
        b = heap.malloc(10)
        assert a != b and heap.owns(a)
        assert heap.bytes_in_use == 20
        heap.free(a)
        assert heap.bytes_in_use == 10
        with pytest.raises(OSFault):
            heap.free(a)  # double free
        heap.free(0)  # free(NULL) is a no-op

    def test_exhaustion(self):
        heap = SimHeap(base=0x1000, capacity=16)
        heap.malloc(10)
        with pytest.raises(OSFault) as excinfo:
            heap.malloc(10)
        assert excinfo.value.errno == Errno.ENOMEM

    def test_realloc(self):
        heap = SimHeap(base=0x1000, capacity=100)
        a = heap.malloc(4)
        assert heap.realloc(a, 2) == a
        bigger = heap.realloc(a, 16)
        assert bigger != a
        fresh = heap.realloc(0, 8)
        assert heap.owns(fresh)


class TestMutexes:
    def test_lock_unlock(self):
        table = MutexTable()
        table.lock(1)
        assert table.is_locked(1) and table.held_count() == 1
        table.unlock(1)
        assert not table.is_locked(1)

    def test_double_unlock_aborts(self):
        table = MutexTable()
        table.lock(5)
        table.unlock(5)
        with pytest.raises(MutexAbort):
            table.unlock(5)

    def test_relock_deadlock_and_destroy(self):
        table = MutexTable()
        table.lock(7)
        with pytest.raises(OSFault):
            table.lock(7)
        with pytest.raises(OSFault):
            table.destroy(7)
        table.unlock(7)
        table.init(8)
        assert table.destroy(8) == 0

    def test_non_strict_mode(self):
        table = MutexTable(strict=False)
        with pytest.raises(OSFault):
            table.unlock(3)


class TestEnvironmentAndNetwork:
    def test_environment(self):
        os = SimOS("p", environment={"HOME": "/root"})
        assert os.env.getenv("HOME") == "/root"
        os.env.setenv("PATH", "/bin")
        assert "PATH" in os.env and len(os.env) == 2
        os.env.setenv("PATH", "/usr/bin", overwrite=False)
        assert os.env.getenv("PATH") == "/bin"
        os.env.unsetenv("PATH")
        assert os.env.getenv("PATH") is None
        with pytest.raises(OSFault):
            os.env.setenv("BAD=NAME", "x")

    def test_network_datagrams(self):
        network = SimNetwork()
        a = network.socket("a")
        b = network.socket("b")
        network.bind(a, 1)
        network.bind(b, 2)
        network.sendto(a, b"hello", 2)
        payload, source = network.recvfrom(b)
        assert payload == b"hello" and source == 1
        with pytest.raises(OSFault) as excinfo:
            network.recvfrom(b)
        assert excinfo.value.errno == Errno.EAGAIN

    def test_network_drop_hook_and_unbound_destination(self):
        network = SimNetwork()
        a = network.socket("a")
        network.bind(a, 1)
        network.add_delivery_hook(lambda datagram: False)
        network.sendto(a, b"x", 1)
        assert network.dropped_count == 1
        network.clear_delivery_hooks()
        network.sendto(a, b"x", 99)  # nobody bound there
        assert network.dropped_count == 2

    def test_address_in_use(self):
        network = SimNetwork()
        a = network.socket("a")
        b = network.socket("b")
        network.bind(a, 7)
        with pytest.raises(OSFault):
            network.bind(b, 7)

    def test_clock(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance_to(1.0)  # never goes backwards
        assert clock.now == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestSimLibc:
    def make(self):
        os = SimOS("libc-test")
        return os, SimLibc(os), Memory()

    def test_spec_table_consistency(self):
        for name, spec in LIBC_FUNCTIONS.items():
            assert spec.name == name
            assert spec.argc >= 0
            for error in spec.error_returns:
                for errno in error.errnos:
                    assert errno_value(errno) > 0
        assert spec_for("read").argc == 3
        with pytest.raises(KeyError):
            spec_for("not_a_function")

    def test_genuine_failure_sets_errno(self):
        os, libc, memory = self.make()
        path = layout.DATA_BASE
        memory.write_string(path, "/missing")
        result = libc.call("open", (path, 0), memory)
        assert result.value == -1
        assert result.errno == Errno.ENOENT
        assert memory.peek(layout.ERRNO_ADDRESS) == Errno.ENOENT

    def test_malloc_and_free(self):
        os, libc, memory = self.make()
        result = libc.call("malloc", (16,), memory)
        assert result.value >= layout.HEAP_BASE
        assert libc.call("free", (result.value,), memory).value == 0

    def test_invalid_free_aborts(self):
        os, libc, memory = self.make()
        with pytest.raises(SimExit):
            libc.call("free", (layout.HEAP_BASE + 5,), memory)

    def test_fwrite_null_file_crashes(self):
        os, libc, memory = self.make()
        with pytest.raises(MemoryFault):
            libc.call("fwrite", (layout.DATA_BASE, 1, 4, 0), memory)

    def test_pthread_errors_via_return(self):
        os, libc, memory = self.make()
        assert libc.call("pthread_mutex_lock", (0x10,), memory).value == 0
        result = libc.call("pthread_mutex_lock", (0x10,), memory)
        assert result.value == Errno.EDEADLK
        assert result.errno is None

    def test_string_helpers(self):
        os, libc, memory = self.make()
        src = layout.DATA_BASE
        dst = layout.DATA_BASE + 100
        memory.write_string(src, "-42abc")
        assert libc.call("strlen", (src,), memory).value == 6
        assert libc.call("atoi", (src,), memory).value == -42
        libc.call("strcpy", (dst, src), memory)
        assert memory.read_string(dst) == "-42abc"

    def test_injected_fault_application(self):
        os, libc, memory = self.make()
        result = libc.apply_injected_fault("read", -1, int(Errno.EINTR), memory)
        assert result.injected and result.value == -1
        assert memory.peek(layout.ERRNO_ADDRESS) == Errno.EINTR


class TestFacade:
    def test_file_roundtrip_and_errno(self):
        os = SimOS("f")
        os.fs.add_file("/data.txt", b"abcdef")
        libc = LibcFacade(os)
        fd = libc.open("/data.txt")
        assert libc.read(fd, 3) == b"abc"
        assert libc.close(fd) == 0
        assert libc.open("/missing") == -1
        assert libc.errno == Errno.ENOENT

    def test_stdio_handles(self):
        os = SimOS("f")
        os.fs.make_dirs("/out")
        libc = LibcFacade(os)
        handle = libc.fopen("/out/x.txt", "w")
        assert handle > 0
        assert libc.fwrite(handle, b"hello") == 5
        assert libc.fclose(handle) == 0
        assert os.fs.file_contents("/out/x.txt") == b"hello"
        with pytest.raises(MemoryFault):
            libc.fwrite(0, b"boom")

    def test_mutexes(self):
        libc = LibcFacade(SimOS("f"))
        assert libc.mutex_lock(1) == 0
        assert libc.mutex_unlock(1) == 0
        with pytest.raises(MutexAbort):
            libc.mutex_unlock(1)

    def test_sockets(self):
        network = SimNetwork()
        os_a = SimOS("a", network=network)
        os_b = SimOS("b", network=network)
        libc_a, libc_b = LibcFacade(os_a), LibcFacade(os_b)
        fd_a, fd_b = libc_a.socket(), libc_b.socket()
        libc_a.bind(fd_a, 10)
        libc_b.bind(fd_b, 20)
        assert libc_a.sendto(fd_a, b"msg", 20) == 3
        assert libc_b.recvfrom(fd_b) == (b"msg", 10)
        assert libc_b.recvfrom(fd_b) is None


class TestLibcBinaries:
    def test_all_libraries_built(self):
        images = build_all_library_binaries()
        assert {"libc.so", "libpthread.so", "libxml2.so", "libapr.so"} == set(images)
        libc = images["libc.so"]
        assert "read" in libc.symbols and "malloc" in libc.symbols

    def test_unknown_library_rejected(self):
        with pytest.raises(ValueError):
            build_library_binary("libnotreal")

    def test_restricted_function_set(self):
        image = build_library_binary("libc", functions=["read", "close"])
        assert set(image.symbols) == {"close", "read"}
