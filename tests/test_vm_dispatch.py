"""Differential tests: compiled closure-threaded engine vs reference interpreter.

The compiled engine (``repro.vm.dispatch``) must be observably identical to
the reference interpreter: same exit status (kind, code, reason, step count,
pc, source, stdout/stderr), same trace, same coverage, same library call
counts, and the same injection log — with and without an armed fault plan.
These tests enforce that on hand-written programs, on every compiled mini
target's smoke workload, and on randomly generated mini-C programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.injection.gate import LibraryCallGate
from repro.core.scenario.builder import ScenarioBuilder
from repro.coverage.tracker import CoverageTracker
from repro.isa import layout
from repro.isa.assembler import assemble_text
from repro.minicc import compile_source
from repro.oslib.os_model import SimOS
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
from repro.targets.pbft import PBFTCheckpointTarget
from repro.vm import ExitKind, Machine, Memory, compiled_program
from repro.vm.machine import VMError

ENGINES = ("reference", "compiled")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _status_tuple(status):
    return (
        status.kind,
        status.code,
        status.reason,
        status.steps,
        status.pc,
        status.source,
        status.stdout,
        status.stderr,
    )


def _log_dicts(gate):
    return [record.to_dict() for record in gate.log.records]


def _observe(binary, engine, scenario=None, os_factory=None, args=(),
             entry=None, max_steps=200_000, run_seed=None):
    """Run *binary* under one engine and capture every observable output."""
    os = os_factory() if os_factory is not None else SimOS("diff")
    gate = make_gate(scenario, run_seed=run_seed) if scenario is not None else None
    tracker = CoverageTracker()
    machine = Machine(binary, os=os, gate=gate, coverage=tracker,
                      engine=engine, max_steps=max_steps)
    machine.enable_trace()
    status = machine.run(entry=entry, args=args)
    return {
        "status": _status_tuple(status),
        "trace": list(machine.trace),
        "coverage": {a: tracker.hit_count(a) for a in tracker.covered_addresses},
        "calls": dict(machine.library_call_counts),
        "log": _log_dicts(gate) if gate is not None else None,
        "injected": gate.injected_calls if gate is not None else 0,
        "intercepted": gate.intercepted_calls if gate is not None else 0,
    }


def assert_engines_agree(binary, **kwargs):
    reference = _observe(binary, "reference", **kwargs)
    compiled = _observe(binary, "compiled", **kwargs)
    assert compiled == reference
    return reference


def _fault_scenario():
    """A generic plan arming faults on functions the programs actually call."""
    return (
        ScenarioBuilder("differential")
        .trigger("first_malloc", "CallCountTrigger", nth=1)
        .inject("malloc", ["first_malloc"], return_value=0, errno="ENOMEM")
        .trigger("early_open", "SingletonTrigger", max=2)
        .inject("open", ["early_open"], return_value=-1, errno="EMFILE")
        .trigger("second_read", "CallCountTrigger", nth=2)
        .inject("read", ["second_read"], return_value=-1, errno="EIO")
        .build()
    )


# ----------------------------------------------------------------------
# hand-written program differentials
# ----------------------------------------------------------------------
class TestHandWrittenDifferentials:
    def test_arithmetic_control_flow_and_recursion(self):
        source = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            int total;
            int i;
            total = 0;
            for (i = 0; i < 8; i = i + 1) { total = total + fib(i) * 3 - i / 2; }
            return total % 97;
        }
        """
        result = assert_engines_agree(compile_source(source, name="diff"))
        assert result["status"][0] is ExitKind.ERROR_EXIT

    def test_null_dereference_segfault(self):
        source = "int main() { int p; p = 0; *p = 1; return 0; }"
        result = assert_engines_agree(compile_source(source, name="diff"))
        assert result["status"][0] is ExitKind.SEGFAULT

    def test_division_by_zero(self):
        source = "int main() { int z; z = 0; return 7 / z; }"
        result = assert_engines_agree(compile_source(source, name="diff"))
        assert result["status"][:2] == (ExitKind.SEGFAULT, 136)

    def test_max_steps_timeout(self):
        binary = compile_source("int main() { while (1) { } return 0; }", name="diff")
        result = assert_engines_agree(binary, max_steps=777)
        assert result["status"][0] is ExitKind.MAX_STEPS
        assert result["status"][3] == 777

    def test_entry_and_arguments(self):
        source = "int helper(int a, int b) { return a * 10 + b; } int main() { return 0; }"
        result = assert_engines_agree(
            compile_source(source, name="diff"), entry="helper", args=(4, 2)
        )
        assert result["status"][1] == 42

    def test_library_calls_without_gate(self):
        source = """
        int main() {
            int fd;
            int buffer[8];
            puts("hello");
            fd = open("/input.txt", 0);
            if (fd < 0) { return 1; }
            if (read(fd, buffer, 3) != 3) { return 2; }
            close(fd);
            return buffer[0];
        }
        """

        def os_factory():
            os = SimOS("diff")
            os.fs.add_file("/input.txt", b"xyz")
            return os

        result = assert_engines_agree(
            compile_source(source, name="diff"), os_factory=os_factory
        )
        assert result["calls"] == {"puts": 1, "open": 1, "read": 1, "close": 1}

    def test_injection_log_parity_under_armed_plan(self):
        source = """
        int main() {
            int p;
            int fd;
            p = malloc(16);
            if (p == 0) { return 3; }
            fd = open("/var/data", 0);
            return 0;
        }
        """
        result = assert_engines_agree(
            compile_source(source, name="diff"),
            scenario=_fault_scenario(),
            run_seed=7,
        )
        assert result["injected"] == 1
        assert result["status"][1] == 3
        assert len(result["log"]) == 1 and result["log"][0]["function"] == "malloc"

    def test_crash_from_injected_allocation_failure(self):
        source = """
        int main() {
            int p;
            p = malloc(16);
            *p = 1;
            return 0;
        }
        """
        result = assert_engines_agree(
            compile_source(source, name="diff"),
            scenario=_fault_scenario(),
            run_seed=7,
        )
        assert result["status"][0] is ExitKind.SEGFAULT


# ----------------------------------------------------------------------
# random mini-C programs (hypothesis)
# ----------------------------------------------------------------------
_VARS = ("a", "b", "c", "d")

_expr_leaf = st.one_of(
    st.integers(min_value=-9, max_value=99).map(str),
    st.sampled_from(_VARS),
)


@st.composite
def _expr(draw, depth=2):
    if depth > 0 and draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        return f"({draw(_expr(depth - 1))} {op} {draw(_expr(depth - 1))})"
    return draw(_expr_leaf)


@st.composite
def _condition(draw):
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return f"({draw(_expr(1))} {op} {draw(_expr(1))})"


_LIB_STATEMENTS = (
    "getpid();",
    'puts("m");',
    "b = malloc(4);",
    'c = open("/input.txt", 0);',
    "d = read(c, 0, 0);",
    "close(c);",
)


@st.composite
def _statement(draw, counters, depth):
    choices = ["assign", "assign", "lib", "if"]
    if counters and depth > 0:
        choices.append("while")
    kind = draw(st.sampled_from(choices))
    if kind == "assign":
        return f"{draw(st.sampled_from(_VARS))} = {draw(_expr())};"
    if kind == "lib":
        return draw(st.sampled_from(_LIB_STATEMENTS))
    if kind == "if":
        body = draw(_block(counters, depth - 1))
        if draw(st.booleans()):
            alternative = draw(_block(counters, depth - 1))
            return f"if {draw(_condition())} {{ {body} }} else {{ {alternative} }}"
        return f"if {draw(_condition())} {{ {body} }}"
    counter, rest = counters[0], counters[1:]
    bound = draw(st.integers(min_value=1, max_value=6))
    body = draw(_block(rest, depth - 1))
    return (
        f"{counter} = 0; "
        f"while ({counter} < {bound}) {{ {counter} = {counter} + 1; {body} }}"
    )


@st.composite
def _block(draw, counters, depth):
    count = draw(st.integers(min_value=1, max_value=3))
    return " ".join(draw(_statement(counters, depth)) for _ in range(count))


@st.composite
def mini_c_programs(draw):
    body = draw(_block(("i0", "i1"), 2))
    return (
        "int main() { int a; int b; int c; int d; int i0; int i1; "
        "a = 1; b = 2; c = 3; d = 4; i0 = 0; i1 = 0; "
        f"{body} return (a + b + c + d) % 100; }}"
    )


def _random_program_os():
    os = SimOS("diff")
    os.fs.add_file("/input.txt", b"hypothesis")
    return os


class TestRandomProgramDifferentials:
    @given(mini_c_programs())
    @settings(max_examples=30, deadline=None)
    def test_engines_agree_on_random_programs(self, source):
        binary = compile_source(source, name="rand")
        assert_engines_agree(binary, os_factory=_random_program_os, max_steps=50_000)

    @given(mini_c_programs())
    @settings(max_examples=20, deadline=None)
    def test_engines_agree_under_armed_fault_plan(self, source):
        binary = compile_source(source, name="rand")
        assert_engines_agree(
            binary,
            os_factory=_random_program_os,
            scenario=_fault_scenario(),
            run_seed=11,
            max_steps=50_000,
        )


# ----------------------------------------------------------------------
# compiled target smoke differentials
# ----------------------------------------------------------------------
class TestTargetSmokeDifferentials:
    @pytest.mark.parametrize(
        "target_class", [MiniBindTarget, MiniGitTarget, PBFTCheckpointTarget]
    )
    @pytest.mark.parametrize("armed", [False, True])
    def test_smoke_workload_engine_parity(self, target_class, armed):
        scenario = _fault_scenario() if armed else None
        outputs = []
        for engine in ENGINES:
            target = target_class()
            request = WorkloadRequest(
                workload=target.workloads()[0],
                scenario=scenario,
                collect_coverage=True,
                options={"engine": engine, "run_seed": 3},
            )
            result = target.run(request)
            tracker = result.stats["coverage"]
            outputs.append(
                {
                    "outcome": result.outcome,
                    "steps_run": result.stats["steps_run"],
                    "library_calls": result.stats["library_calls"],
                    "coverage": {
                        address: tracker.hit_count(address)
                        for address in tracker.covered_addresses
                    },
                    "log": [record.to_dict() for record in result.log.records],
                }
            )
        reference, compiled = outputs
        assert compiled == reference


# ----------------------------------------------------------------------
# engine selection + bookkeeping units
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        binary = compile_source("int main() { return 0; }", name="sel")
        for engine in ("jit", "compiled-steps"):
            with pytest.raises(VMError):
                Machine(binary, engine=engine)

    def test_default_engine_is_compiled(self, monkeypatch):
        # The built-in default, with the env override out of the picture
        # (the CI oracle leg sets REPRO_ENGINE=reference suite-wide).
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        binary = compile_source("int main() { return 0; }", name="sel")
        assert Machine(binary).engine == "compiled"
        assert Machine(binary, engine="reference")._program is None

    def test_compiled_program_shared_across_machines(self):
        binary = compile_source("int main() { return 0; }", name="sel")
        first = Machine(binary, engine="compiled")
        second = Machine(binary, engine="compiled")
        assert first._program is second._program
        assert compiled_program(binary) is first._program

    def test_image_stays_picklable_after_compiled_run(self):
        # Images cross process boundaries under ProcessPoolBackend; the
        # cached closure array must be dropped on pickling, not break it.
        import pickle

        binary = compile_source('int main() { puts("x"); return 0; }', name="pick")
        assert Machine(binary).run().kind is ExitKind.NORMAL
        assert binary.function_containing(0) is not None  # build range table
        clone = pickle.loads(pickle.dumps(binary))
        assert clone.function_containing(0).name == "main"
        status = Machine(clone).run()
        assert status.kind is ExitKind.NORMAL and status.stdout == "x\n"

    def test_unknown_import_raises_in_both_engines(self):
        bad = assemble_text(".func main\n    call @no_such_function\n    halt\n.endfunc")
        for engine in ENGINES:
            with pytest.raises(VMError):
                Machine(bad, engine=engine).run()

    def test_dead_malformed_instruction_is_harmless(self):
        # A malformed hand-built instruction (missing operand) must only
        # fail when executed, in both engines — never at Machine() time.
        from repro.isa.binary import BinaryImage
        from repro.isa.instructions import Opcode, Reg, make

        instructions = [
            make(Opcode.MOV, Reg("r0"), address=0),  # malformed: one operand
            make(Opcode.HALT, address=1),
        ]
        binary = BinaryImage("broken", instructions, {"main": 1}, [])
        for engine in ENGINES:
            status = Machine(binary, engine=engine).run()
            assert status.kind is ExitKind.NORMAL
        live = BinaryImage("broken2", instructions, {"main": 0}, [])
        for engine in ENGINES:
            with pytest.raises(IndexError):
                Machine(live, engine=engine).run()

    def test_dead_unknown_import_is_harmless(self):
        # The reference engine only reports unknown callees when the call
        # executes; compiled raising-closures must preserve that for dead code.
        source = (
            ".func main\n    mov r0, 0\n    halt\n    call @no_such_function\n.endfunc"
        )
        binary = assemble_text(source)
        for engine in ENGINES:
            status = Machine(binary, engine=engine).run()
            assert status.kind is ExitKind.NORMAL


class TestCallCountReadThrough:
    SOURCE = 'int main() { puts("a"); puts("b"); getpid(); return 0; }'

    def test_counts_read_through_to_standard_gate(self):
        binary = compile_source(self.SOURCE, name="counts")
        for engine in ENGINES:
            gate = LibraryCallGate()
            machine = Machine(binary, gate=gate, engine=engine)
            machine.run()
            assert dict(machine.library_call_counts) == gate.call_counts
            assert gate.call_counts == {"puts": 2, "getpid": 1}
            assert gate.total_calls == 3
            # No duplicate bookkeeping on the VM side, and the view is
            # read-only so callers cannot corrupt the gate's accounting.
            assert machine._local_call_counts == {}
            with pytest.raises(TypeError):
                machine.library_call_counts["puts"] = 0

    def test_counts_kept_locally_for_counterless_custom_gate(self):
        binary = compile_source(self.SOURCE, name="counts")

        class PassthroughGate:
            def __init__(self):
                self.seen = []

            def call(self, name, args, invoke, apply_fault=None, context=None):
                self.seen.append(name)
                return invoke()

        for engine in ENGINES:
            gate = PassthroughGate()
            machine = Machine(binary, gate=gate, engine=engine)
            machine.run()
            assert machine.library_call_counts == {"puts": 2, "getpid": 1}
            assert gate.seen == ["puts", "puts", "getpid"]

    def test_duck_typed_runtime_without_intercepted_functions(self):
        # A stub runtime satisfying only the gate's handles()/decide()
        # contract must route calls through the gate in both engines.
        from repro.core.injection.runtime import InjectionDecision

        class StubRuntime:
            def __init__(self):
                self.decided = []

            def handles(self, name):
                return True

            def decide(self, ctx):
                self.decided.append(ctx.function)
                return InjectionDecision.no_injection()

        binary = compile_source('int main() { puts("s"); return 0; }', name="stub")
        for engine in ENGINES:
            gate = LibraryCallGate()
            gate.install_runtime(StubRuntime())
            status = Machine(binary, gate=gate, engine=engine).run()
            assert status.kind is ExitKind.NORMAL
            assert gate.runtime.decided == ["puts"]
            assert gate.intercepted_calls == 1

    def test_handled_mask_tracks_runtime_swaps(self):
        binary = compile_source(
            "int main() { int p; p = malloc(8); free(p); return 0; }", name="mask"
        )
        scenario = (
            ScenarioBuilder("mask")
            .trigger("never", "CallCountTrigger", nth=10_000)
            .inject("malloc", ["never"], return_value=0, errno="ENOMEM")
            .build()
        )
        gate = make_gate(scenario)
        # The mask is interception-fast-path state of the compiled engines;
        # pin the engine so the REPRO_ENGINE=reference leg still sees it.
        machine = Machine(binary, gate=gate, engine="compiled")
        machine.run()
        assert machine._handled_mask == frozenset({"malloc"})
        # Swapping the runtime out must invalidate the mask on the next run.
        gate.install_runtime(None)
        machine = Machine(binary, gate=gate, engine="compiled")
        machine.run()
        assert machine._handled_mask == frozenset()


class TestRegisterFileView:
    def test_view_reads_and_writes_slots(self):
        binary = compile_source("int main() { return 0; }", name="regs")
        machine = Machine(binary)
        machine.registers["r3"] = 7
        assert machine.regs[3] == 7
        machine.regs[3] = 9
        assert machine.registers["r3"] == 9
        assert len(machine.registers) == 10
        assert set(machine.registers) == {
            "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "sp", "bp",
        }
        assert dict(machine.registers.items())["r3"] == 9


class TestMemoryStackWindow:
    def test_stack_window_roundtrip_and_snapshot(self):
        memory = Memory()
        top = layout.STACK_TOP - 1
        memory.store(top, 1234)
        assert memory.load(top) == 1234
        assert memory.peek(top) == 1234
        assert memory.snapshot()[top] == 1234
        assert len(memory) == 1

    def test_deep_stack_falls_back_to_sparse_store(self):
        memory = Memory()
        deep = layout.STACK_LIMIT + 1  # far below the array window
        memory.store(deep, 77)
        assert memory.load(deep) == 77
        assert memory.snapshot()[deep] == 77

    def test_poke_and_peek_agree_with_store(self):
        memory = Memory()
        address = layout.STACK_TOP - 5
        memory.poke(address, 42)
        assert memory.load(address) == 42


class TestCoverageTrackerArray:
    def test_record_reserve_merge_and_hit_counts(self):
        first = CoverageTracker()
        first.reserve(16)
        first.record(3)
        first.record(3)
        first.record(12)
        second = CoverageTracker()
        second.record(3)
        second.record(-5)  # out-of-segment addresses still tracked
        second.finish_run()
        first.merge(second)
        assert first.covered_addresses == {3, 12, -5}
        assert first.hit_count(3) == 3
        assert first.hit_count(-5) == 1
        assert first.runs == 1
        first.clear()
        assert not first.covered_addresses
        assert first.hit_count(3) == 0

    def test_far_addresses_stay_sparse_until_reserved(self):
        tracker = CoverageTracker()
        far = 0x40_0000  # way past any code segment
        tracker.record(far)
        assert len(tracker._counts) == 0  # no megabyte zero-fill
        assert tracker.hit_count(far) == 1
        tracker.reserve(far + 1)  # explicit sizing migrates the sparse entry
        assert tracker.hit_count(far) == 1
        tracker.record(far)
        assert tracker.hit_count(far) == 2
        assert tracker.covered_addresses == {far}
