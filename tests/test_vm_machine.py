"""Tests for the virtual machine: outcomes, traps, stacks, library calls."""

import pytest

from repro.isa import layout
from repro.isa.assembler import assemble_text
from repro.minicc import compile_source
from repro.oslib.os_model import SimOS
from repro.vm import ExitKind, Machine, Memory
from repro.vm.machine import VMError


class TestMemory:
    def test_null_page_guard(self):
        memory = Memory()
        from repro.oslib.errors import MemoryFault

        with pytest.raises(MemoryFault):
            memory.load(0)
        with pytest.raises(MemoryFault):
            memory.store(5, 1)

    def test_default_zero_and_roundtrip(self):
        memory = Memory()
        address = layout.DATA_BASE
        assert memory.load(address) == 0
        memory.store(address, 7)
        assert memory.load(address) == 7
        assert memory.peek(address) == 7

    def test_string_helpers(self):
        memory = Memory()
        memory.write_string(layout.DATA_BASE, "abc")
        assert memory.read_string(layout.DATA_BASE) == "abc"


class TestOutcomes:
    def test_normal_and_error_exit(self):
        ok, _ = self._run("int main() { return 0; }")
        assert ok.kind is ExitKind.NORMAL and not ok.failed
        bad, _ = self._run("int main() { return 3; }")
        assert bad.kind is ExitKind.ERROR_EXIT and bad.code == 3

    def test_segfault_from_null_dereference(self):
        status, _ = self._run("int main() { int p; p = 0; *p = 1; return 0; }")
        assert status.kind is ExitKind.SEGFAULT and status.crashed

    def test_division_by_zero(self):
        status, _ = self._run("int main() { int z; z = 0; return 4 / z; }")
        assert status.kind is ExitKind.SEGFAULT

    def test_abort_via_libc(self):
        status, _ = self._run("int main() { abort(); return 0; }")
        assert status.kind is ExitKind.ABORT and status.code == 134

    def test_assert_fail(self):
        status, machine = self._run('int main() { assert_fail("invariant"); return 0; }')
        assert status.kind is ExitKind.ABORT
        assert "invariant" in status.reason

    def test_exit_call(self):
        status, _ = self._run("int main() { exit(7); return 0; }")
        assert status.kind is ExitKind.ERROR_EXIT and status.code == 7

    def test_max_steps(self):
        binary = compile_source("int main() { while (1) { } return 0; }", name="loop")
        machine = Machine(binary, max_steps=500)
        status = machine.run()
        assert status.kind is ExitKind.MAX_STEPS
        assert status.steps == 500

    def test_halt_via_text_assembly(self):
        binary = assemble_text(".func main\n    mov r0, 5\n    halt\n.endfunc")
        status = Machine(binary).run()
        assert status.kind is ExitKind.ERROR_EXIT and status.code == 5

    @staticmethod
    def _run(source):
        binary = compile_source(source, name="vmtest")
        machine = Machine(binary)
        return machine.run(), machine


class TestLibraryCalls:
    def test_call_counts_and_unknown_function(self):
        binary = compile_source(
            'int main() { puts("a"); puts("b"); getpid(); return 0; }', name="counts"
        )
        machine = Machine(binary)
        status = machine.run()
        assert status.kind is ExitKind.NORMAL
        assert machine.library_call_counts["puts"] == 2
        assert machine.library_call_counts["getpid"] == 1

        bad = assemble_text(".func main\n    call @no_such_function\n    halt\n.endfunc")
        with pytest.raises(VMError):
            Machine(bad).run()

    def test_errno_mirrored_into_memory(self):
        source = """
        int main() {
            int fd;
            fd = open("/missing", 0);
            return errno;
        }
        """
        binary = compile_source(source, name="errno")
        machine = Machine(binary)
        status = machine.run()
        assert status.code == 2  # ENOENT
        assert machine.memory.peek(layout.ERRNO_ADDRESS) == 2

    def test_backtrace_and_state_reader(self):
        source = """
        int pending = 9;
        int inner() { return getpid(); }
        int outer() { return inner(); }
        int main() { return outer() - outer(); }
        """
        binary = compile_source(source, name="stack")
        captured = {}

        class RecordingGate:
            def call(self, name, args, invoke, apply_fault=None, context=None):
                captured["stack"] = context["stack"]()
                captured["state"] = context["state"]("pending")
                captured["module"] = context["module"]
                return invoke()

        machine = Machine(binary, gate=RecordingGate())
        status = machine.run()
        assert status.kind is ExitKind.NORMAL
        functions = [frame.function for frame in captured["stack"]]
        assert functions[:3] == ["inner", "outer", "main"]
        assert captured["state"] == 9
        assert captured["module"] == "stack"

    def test_coverage_hook_and_trace(self):
        binary = compile_source("int main() { return 0; }", name="cov")

        class Recorder:
            def __init__(self):
                self.addresses = []

            def record(self, address):
                self.addresses.append(address)

            def record_block(self, start, length):
                self.addresses.extend(range(start, start + length))

        recorder = Recorder()
        machine = Machine(binary, coverage=recorder)
        machine.enable_trace()
        machine.run()
        assert recorder.addresses == machine.trace
        assert recorder.addresses[0] == binary.entry_address()

    def test_entry_argument_and_missing_entry(self):
        binary = compile_source("int main(int code) { return code; }", name="args")
        assert Machine(binary).run(args=(4,)).code == 4
        with pytest.raises(VMError):
            Machine(binary).run(entry="missing")

    def test_read_writes_into_program_buffer(self):
        os = SimOS("io")
        os.fs.add_file("/input.txt", b"xyz")
        source = """
        int main() {
            int fd;
            int n;
            int buffer[8];
            fd = open("/input.txt", 0);
            n = read(fd, buffer, 3);
            if (n != 3) { return 1; }
            if (buffer[0] != 120) { return 2; }
            close(fd);
            return 0;
        }
        """
        binary = compile_source(source, name="io")
        status = Machine(binary, os=os).run()
        assert status.kind is ExitKind.NORMAL
