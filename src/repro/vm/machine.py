"""The virtual machine executing synthetic binaries.

Calling convention (matching what the mini-C code generator emits):

* arguments are pushed right-to-left, so at the moment of ``call`` the first
  argument sits at ``[sp]``, the second at ``[sp+1]`` and so on;
* the caller removes the arguments after the call (``add sp, argc``);
* the return value is delivered in ``r0``;
* local calls push a return address; library calls (``call @name``) never
  enter synthetic code — the VM reads the arguments straight off the stack,
  routes the call through the fault-injection gate (when installed) and the
  simulated libc, and writes the result into ``r0``, mirroring how the LFI
  stub either injects an error or tail-jumps to the original function.

Two execution engines share this machine state:

* ``engine="compiled"`` (the default) drives an array of per-instruction
  closures predecoded once per image by :mod:`repro.vm.dispatch` — operands
  resolved to register slots, immediates, and precomputed addresses at load
  time — with straight-line basic blocks fused into superclosures that run
  a whole block per dispatch.  This is the fast path every campaign and
  experiment runs on; a coverage tracker must provide ``record_block``.
* ``engine="reference"`` is the original decode-as-you-go interpreter,
  kept as the behavioural oracle: the differential suite asserts both
  engines produce identical exit status, traces, coverage, and injection
  logs on every program.

A machine is also a reusable *resident*: :mod:`repro.vm.snapshot` captures
and restores its full state (registers, pc/flags, copy-on-write memory,
OS, coverage, gate counters), :meth:`Machine.rebind` re-arms it with a new
gate and coverage tracker for the next fork, and :meth:`Machine.resume`
continues execution from a restored mid-run capture — the substrate of the
forkserver-style campaign execution.
"""

from __future__ import annotations

import os as _os_module
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.frames import StackFrame
from repro.isa import layout
from repro.isa.binary import BinaryImage
from repro.isa.instructions import (
    DataRef,
    Imm,
    ImportRef,
    Instruction,
    Label,
    Mem,
    Opcode,
    Reg,
)
from repro.oslib.errors import MemoryFault, MutexAbort, OSFault, SimExit, WorldCrash
from repro.oslib.libc import LIBC_FUNCTIONS, LibcResult, SimLibc
from repro.oslib.os_model import SimOS
from repro.vm.dispatch import (
    ARITHMETIC as _ARITHMETIC,
    Frame,
    R0_SLOT,
    REG_SLOT,
    RETURN_SENTINEL as _RETURN_SENTINEL,
    RegisterFile,
    SP_SLOT,
    VMError,
    compiled_blocks,
    compiled_program,
)
from repro.vm.memory import Memory
from repro.vm.outcome import ExitKind, ExitStatus

#: Sentinel marking "no runtime seen yet" for the handled-import mask cache
#: (the runtime itself may legitimately be ``None``).
_NO_RUNTIME = object()

_ENGINES = ("compiled", "reference")


def resolve_engine(engine: Optional[str]) -> str:
    """Resolve an engine request to a concrete engine name.

    ``None`` falls back to the ``REPRO_ENGINE`` environment variable — the
    CI oracle leg runs the whole suite under ``REPRO_ENGINE=reference`` to
    keep the slow path exercised — and then to the block-batched compiled
    engine.  :class:`Machine` rejects any name outside ``_ENGINES``.
    """
    return engine or _os_module.environ.get("REPRO_ENGINE") or "compiled"


class Machine:
    """Executes one program image against one simulated OS."""

    def __init__(
        self,
        binary: BinaryImage,
        os: Optional[SimOS] = None,
        libc: Optional[SimLibc] = None,
        gate: Optional[Any] = None,
        coverage: Optional[Any] = None,
        max_steps: int = 5_000_000,
        engine: Optional[str] = None,
    ) -> None:
        self.binary = binary
        self.os = os if os is not None else SimOS(binary.name)
        self.libc = libc if libc is not None else SimLibc(self.os)
        self.max_steps = max_steps
        self.engine = resolve_engine(engine)
        if self.engine not in _ENGINES:
            raise VMError(
                f"unknown engine {self.engine!r} (expected one of {_ENGINES})"
            )

        self.memory = Memory(binary.data_words)
        #: Fixed-slot register file (see dispatch.REG_SLOT for the layout);
        #: ``registers`` is a name-keyed view over the same slots.
        self.regs: List[int] = [0] * len(REG_SLOT)
        self.registers = RegisterFile(self.regs)
        self.zero_flag = False
        self.sign_flag = False
        self.pc = 0
        self.steps = 0
        self.frames: List[Frame] = []
        self.trace: Optional[List[int]] = None

        # Bound-method caches for the compiled engine's hot path.
        self._mem_load = self.memory.load
        self._mem_store = self.memory.store
        if self.engine == "compiled":
            self._program = compiled_program(binary)
            self._fused, self._lengths = compiled_blocks(binary)
        else:
            self._program = self._fused = self._lengths = None
        #: Published by a trapping superclosure: how many of its instructions
        #: executed (including the trapping one) before the exception.
        self._block_executed = 0

        # Library-call bookkeeping.  When a gate with its own per-function
        # counters is installed the VM reads through to it instead of
        # double-counting; only the gate-less (and counter-less custom gate)
        # path counts locally.
        self._local_call_counts: Dict[str, int] = {}
        self.rebind(gate=gate, coverage=coverage)

    def rebind(self, gate: Optional[Any], coverage: Optional[Any]) -> None:
        """Attach a (possibly different) gate and coverage tracker.

        Used by the snapshot engine to reuse one resident machine across
        requests: each restored fork gets its own gate and tracker, and the
        gate-dependent caches (counting mode, fast-path eligibility, the
        handled-import mask) are recomputed here so they can never leak from
        one fork into the next.
        """
        self.gate = gate
        self.coverage = coverage
        gate_counts = getattr(gate, "call_counts", None) if gate is not None else None
        self._count_locally = not isinstance(gate_counts, dict)
        # The interception fast path only applies to the stock gate class:
        # a subclass (or duck-typed stand-in) may override ``call`` and must
        # therefore see every library call.
        self._gate_is_standard = (
            gate is not None and type(gate).__name__ == "LibraryCallGate"
            and type(gate).__module__ == "repro.core.injection.gate"
        )
        #: Handled-import mask: which of this image's imports the currently
        #: installed injection runtime intercepts.  Recomputed only when the
        #: runtime object changes (e.g. ``install_runtime`` between runs).
        self._mask_runtime: Any = _NO_RUNTIME
        self._handled_mask: frozenset = frozenset()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def library_call_counts(self) -> Mapping[str, int]:
        """Per-function library call counts (read-only view).

        Reads through to the gate's counters when a counting gate is
        installed (the gate is the single source of truth for interception
        accounting); falls back to the VM's own counts otherwise.  The view
        is read-only so callers cannot corrupt gate accounting shared
        across the runs of a campaign.
        """
        gate = self.gate
        if gate is not None:
            counts = getattr(gate, "call_counts", None)
            if isinstance(counts, dict):
                return MappingProxyType(counts)
        return MappingProxyType(self._local_call_counts)

    def enable_trace(self) -> None:
        self.trace = []

    def run(self, entry: Optional[str] = None, args: Sequence[int] = ()) -> ExitStatus:
        """Run the program from *entry* until it exits, crashes, or times out."""
        entry_name = entry or self.binary.entry
        try:
            start = self.binary.entry_address(entry_name)
        except KeyError as exc:
            raise VMError(str(exc)) from exc

        self.regs[SP_SLOT] = layout.STACK_TOP
        self.regs[REG_SLOT["bp"]] = layout.STACK_TOP
        for value in reversed(list(args)):
            self._push(int(value))
        self._push(_RETURN_SENTINEL)
        self.pc = start
        self.frames = [Frame(function=entry_name, call_address=None, return_address=_RETURN_SENTINEL)]
        return self._run_to_exit()

    def resume(self) -> ExitStatus:
        """Continue executing from the current machine state until exit.

        The snapshot engine's mid-run resume path: after restoring a
        :class:`~repro.vm.snapshot.MidRunCapture` (registers, pc, frames,
        memory delta) the run picks up exactly where the capture was taken
        — no entry setup, no argument pushing.
        """
        return self._run_to_exit()

    def _run_to_exit(self) -> ExitStatus:
        try:
            if self._fused is None:
                return self._loop()
            if self.coverage is None and self.trace is None:
                # Coverage-off hot loop: no tracker, no trace — the
                # whole record/append machinery compiles out.
                return self._loop_blocks_plain()
            return self._loop_blocks_instrumented()
        except SimExit as exit_request:
            kind = ExitKind.ABORT if exit_request.aborted else (
                ExitKind.NORMAL if exit_request.code == 0 else ExitKind.ERROR_EXIT
            )
            return self._status(kind, code=exit_request.code, reason=exit_request.reason)
        except MutexAbort as abort:
            return self._status(ExitKind.ABORT, code=134, reason=str(abort))
        except MemoryFault as fault:
            return self._status(ExitKind.SEGFAULT, code=139, reason=str(fault))
        except ZeroDivisionError:
            return self._status(ExitKind.SEGFAULT, code=136, reason="division by zero (SIGFPE)")
        except WorldCrash as crash:
            # Crash-consistency injection: the world was killed mid-call.
            # 137 = SIGKILL; the simulated fs keeps whatever (possibly torn)
            # state it had, ready for a recovery replay.
            return self._status(ExitKind.WORLD_CRASH, code=137, reason=str(crash))
        except OSFault as fault:
            # An OS fault escaping the libc layer is a VM-level problem.
            return self._status(ExitKind.VM_ERROR, code=70, reason=f"unhandled OS fault: {fault}")

    # ------------------------------------------------------------------
    # block-batched main loops (superclosure dispatch)
    # ------------------------------------------------------------------
    def _loop_blocks_plain(self) -> ExitStatus:
        """Coverage-off hot loop: whole basic blocks per dispatch, no
        record/trace branches anywhere.  This is what campaign runs without
        a tracker — including every prefix replica — execute on."""
        program = self._program
        fused = self._fused
        lengths = self._lengths
        size = len(program)
        max_steps = self.max_steps
        pc = self.pc
        steps = self.steps
        try:
            while True:
                if steps >= max_steps:
                    self.pc = pc
                    self.steps = steps
                    return self._status(
                        ExitKind.MAX_STEPS, code=124, reason=f"exceeded {max_steps} steps"
                    )
                if pc < 0 or pc >= size:
                    self.pc = pc
                    self.steps = steps
                    return self._status(
                        ExitKind.SEGFAULT, code=139,
                        reason=f"jump outside code segment ({pc:#x})",
                    )
                fn = fused[pc]
                if fn is not None:
                    length = lengths[pc]
                    if steps + length <= max_steps:
                        self.pc = pc
                        try:
                            pc = fn(self)
                        except BaseException:
                            # The superclosure published pc/_block_executed
                            # for the instructions that actually ran.
                            steps += self._block_executed
                            raise
                        steps += length
                        continue
                    # Budget expires inside this block: drain it on the
                    # per-instruction path so MAX_STEPS lands exactly where
                    # the oracle would put it.
                self.pc = pc
                steps += 1
                self.steps = steps
                result = program[pc](self)
                if type(result) is int:
                    pc = result
                    continue
                kind, code, reason = result
                return self._status(kind, code=code, reason=reason)
        finally:
            self.steps = steps

    def _loop_blocks_instrumented(self) -> ExitStatus:
        """Block-batched loop with coverage/trace: one ``record_block`` (and
        one trace extend) per superclosure instead of per instruction."""
        program = self._program
        fused = self._fused
        lengths = self._lengths
        size = len(program)
        max_steps = self.max_steps
        coverage = self.coverage
        record = coverage.record if coverage is not None else None
        record_block = coverage.record_block if coverage is not None else None
        if coverage is not None:
            reserve = getattr(coverage, "reserve", None)
            if reserve is not None:
                reserve(size)
        trace = self.trace
        append = trace.append if trace is not None else None
        pc = self.pc
        steps = self.steps
        try:
            while True:
                if steps >= max_steps:
                    self.pc = pc
                    self.steps = steps
                    return self._status(
                        ExitKind.MAX_STEPS, code=124, reason=f"exceeded {max_steps} steps"
                    )
                if pc < 0 or pc >= size:
                    self.pc = pc
                    self.steps = steps
                    return self._status(
                        ExitKind.SEGFAULT, code=139,
                        reason=f"jump outside code segment ({pc:#x})",
                    )
                fn = fused[pc]
                if fn is not None:
                    length = lengths[pc]
                    if steps + length <= max_steps:
                        self.pc = pc
                        try:
                            next_pc = fn(self)
                        except BaseException:
                            executed = self._block_executed
                            steps += executed
                            if record_block is not None:
                                record_block(pc, executed)
                            if append is not None:
                                trace.extend(range(pc, pc + executed))
                            raise
                        steps += length
                        if record_block is not None:
                            record_block(pc, length)
                        if append is not None:
                            trace.extend(range(pc, pc + length))
                        pc = next_pc
                        continue
                self.pc = pc
                steps += 1
                self.steps = steps
                if record is not None:
                    record(pc)
                if append is not None:
                    append(pc)
                result = program[pc](self)
                if type(result) is int:
                    pc = result
                    continue
                kind, code, reason = result
                return self._status(kind, code=code, reason=reason)
        finally:
            self.steps = steps

    # ------------------------------------------------------------------
    # reference main loop (decode-as-you-go oracle)
    # ------------------------------------------------------------------
    def _loop(self) -> ExitStatus:
        while True:
            if self.steps >= self.max_steps:
                return self._status(
                    ExitKind.MAX_STEPS, code=124, reason=f"exceeded {self.max_steps} steps"
                )
            if not self.binary.has_address(self.pc):
                return self._status(
                    ExitKind.SEGFAULT, code=139, reason=f"jump outside code segment ({self.pc:#x})"
                )
            instruction = self.binary.instructions[self.pc]
            self.steps += 1
            if self.coverage is not None:
                self.coverage.record(self.pc)
            if self.trace is not None:
                self.trace.append(self.pc)
            finished = self._execute(instruction)
            if finished is not None:
                return finished

    # ------------------------------------------------------------------
    # instruction execution (reference engine)
    # ------------------------------------------------------------------
    def _execute(self, instruction: Instruction) -> Optional[ExitStatus]:
        opcode = instruction.opcode
        operands = instruction.operands

        if opcode is Opcode.NOP:
            self.pc += 1
        elif opcode is Opcode.MOV:
            self._write(operands[0], self._value(operands[1]))
            self.pc += 1
        elif opcode is Opcode.LEA:
            self._write(operands[0], self._address_of(operands[1]))
            self.pc += 1
        elif opcode is Opcode.PUSH:
            self._push(self._value(operands[0]))
            self.pc += 1
        elif opcode is Opcode.POP:
            self._write(operands[0], self._pop())
            self.pc += 1
        elif opcode in _ARITHMETIC:
            self._write(operands[0], _ARITHMETIC[opcode](self._value(operands[0]), self._value(operands[1])))
            self.pc += 1
        elif opcode is Opcode.NEG:
            self._write(operands[0], -self._value(operands[0]))
            self.pc += 1
        elif opcode is Opcode.NOT:
            self._write(operands[0], 0 if self._value(operands[0]) else 1)
            self.pc += 1
        elif opcode is Opcode.CMP:
            difference = self._value(operands[0]) - self._value(operands[1])
            self.zero_flag = difference == 0
            self.sign_flag = difference < 0
            self.pc += 1
        elif opcode is Opcode.TEST:
            value = self._value(operands[0]) & self._value(operands[1])
            self.zero_flag = value == 0
            self.sign_flag = value < 0
            self.pc += 1
        elif opcode is Opcode.JMP:
            self.pc = self._branch_target(operands[0])
        elif opcode.is_conditional_jump:
            if self._condition(opcode):
                self.pc = self._branch_target(operands[0])
            else:
                self.pc += 1
        elif opcode is Opcode.CALL:
            self._call(instruction)
        elif opcode is Opcode.RET:
            return self._ret()
        elif opcode is Opcode.HALT:
            code = self.regs[R0_SLOT]
            kind = ExitKind.NORMAL if code == 0 else ExitKind.ERROR_EXIT
            return self._status(kind, code=code)
        else:  # pragma: no cover - defensive
            raise VMError(f"unhandled opcode {opcode}")
        return None

    def _condition(self, opcode: Opcode) -> bool:
        if opcode is Opcode.JE:
            return self.zero_flag
        if opcode is Opcode.JNE:
            return not self.zero_flag
        if opcode is Opcode.JL:
            return self.sign_flag
        if opcode is Opcode.JLE:
            return self.sign_flag or self.zero_flag
        if opcode is Opcode.JG:
            return not self.sign_flag and not self.zero_flag
        if opcode is Opcode.JGE:
            return not self.sign_flag
        raise VMError(f"not a conditional jump: {opcode}")

    # ------------------------------------------------------------------
    # operand helpers (reference engine)
    # ------------------------------------------------------------------
    def _value(self, operand) -> int:
        if isinstance(operand, Reg):
            return self.regs[REG_SLOT[operand.name]]
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Mem):
            address = self._address_of(operand)
            if address == layout.ERRNO_ADDRESS:
                self.libc.errno_reads += 1
            return self.memory.load(address)
        if isinstance(operand, Label):
            if operand.address is None:
                raise VMError(f"unresolved label {operand.name!r}")
            return operand.address
        if isinstance(operand, DataRef):
            if operand.address is None:
                raise VMError(f"unresolved data symbol {operand.name!r}")
            return operand.address
        raise VMError(f"cannot read operand {operand!r}")

    def _address_of(self, operand) -> int:
        if isinstance(operand, Mem):
            base = self.regs[REG_SLOT[operand.base]] if operand.base is not None else 0
            return base + operand.offset
        if isinstance(operand, DataRef):
            if operand.address is None:
                raise VMError(f"unresolved data symbol {operand.name!r}")
            return operand.address
        raise VMError(f"operand {operand!r} has no address")

    def _write(self, operand, value: int) -> None:
        if isinstance(operand, Reg):
            self.regs[REG_SLOT[operand.name]] = int(value)
            return
        if isinstance(operand, Mem):
            self.memory.store(self._address_of(operand), int(value))
            return
        raise VMError(f"cannot write to operand {operand!r}")

    def _branch_target(self, operand) -> int:
        if isinstance(operand, Label) and operand.address is not None:
            return operand.address
        return self._value(operand)

    def _push(self, value: int) -> None:
        sp = self.regs[SP_SLOT] - 1
        self.regs[SP_SLOT] = sp
        if sp < layout.STACK_LIMIT:
            raise MemoryFault(sp, "stack overflow")
        self.memory.store(sp, int(value))

    def _pop(self) -> int:
        sp = self.regs[SP_SLOT]
        value = self.memory.load(sp)
        self.regs[SP_SLOT] = sp + 1
        return value

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _call(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        if isinstance(target, ImportRef):
            self._library_call(target.name)
            self.pc += 1
            return
        if isinstance(target, Label):
            if target.address is None:
                raise VMError(f"unresolved call target {target.name!r}")
            self._push(self.pc + 1)
            self.frames.append(
                Frame(function=target.name, call_address=self.pc, return_address=self.pc + 1)
            )
            self.pc = target.address
            return
        raise VMError(f"unsupported call target {target!r}")

    def _ret(self) -> Optional[ExitStatus]:
        return_address = self._pop()
        if return_address == _RETURN_SENTINEL:
            code = self.regs[R0_SLOT]
            kind = ExitKind.NORMAL if code == 0 else ExitKind.ERROR_EXIT
            return self._status(kind, code=code)
        if self.frames:
            self.frames.pop()
        self.pc = return_address
        return None

    def _library_call(self, name: str) -> None:
        spec = LIBC_FUNCTIONS.get(name)
        if spec is None:
            raise VMError(f"call to unknown library function {name!r}")
        sp = self.regs[SP_SLOT]
        args: Tuple[int, ...] = tuple(
            self.memory.load(sp + index) for index in range(spec.argc)
        )
        if self.gate is None:
            counts = self._local_call_counts
            counts[name] = counts.get(name, 0) + 1
            result = self.libc.call(name, args, self.memory)
        else:
            result = self._gated_library_call(name, args, self.pc)
        self.regs[R0_SLOT] = int(result.value)

    def _refresh_handled_mask(self, runtime: Any) -> frozenset:
        """Recompute which of this image's imports *runtime* intercepts."""
        self._mask_runtime = runtime
        if runtime is None:
            self._handled_mask = frozenset()
        else:
            called = getattr(self.binary, "_import_call_names", None)
            if called is None:
                called = frozenset(self.binary.imports)
            intercepted = getattr(runtime, "intercepted_functions", None)
            if intercepted is None:
                # Duck-typed runtime exposing only handles()/decide(): treat
                # every import as handled so each call takes the full gate
                # path, exactly as the reference engine would route it.
                self._handled_mask = called
            else:
                self._handled_mask = frozenset(intercepted()) & called
        return self._handled_mask

    def _gated_library_call(self, name: str, args: Tuple[int, ...], call_address: int) -> LibcResult:
        """Route one library call through the installed gate (slow path)."""
        if self._count_locally:
            counts = self._local_call_counts
            counts[name] = counts.get(name, 0) + 1
        libc = self.libc
        memory = self.memory
        invoke = lambda: libc.call(name, args, memory)
        apply_fault = lambda return_value, errno: libc.apply_injected_fault(
            name, return_value, errno, memory
        )
        context = {
            "node": self.os.name,
            "module": self.binary.name,
            "machine": self,
            "call_address": call_address,
            "source": self.binary.source_of(call_address),
            "stack": lambda: self.backtrace(call_address),
            "state": self.read_program_state,
            "os": self.os,
        }
        return self.gate.call(name, args, invoke, apply_fault=apply_fault, context=context)

    # ------------------------------------------------------------------
    # introspection used by triggers and reports
    # ------------------------------------------------------------------
    def backtrace(self, call_address: Optional[int] = None) -> List[StackFrame]:
        """Return the current call stack, innermost frame first."""
        frames: List[StackFrame] = []
        address = call_address
        for frame in reversed(self.frames):
            source = self.binary.source_of(address) if address is not None else None
            frames.append(
                StackFrame(
                    module=self.binary.name,
                    function=frame.function,
                    offset=address,
                    file=source.file if source else "",
                    line=source.line if source else None,
                )
            )
            address = frame.call_address
        return frames

    def read_program_state(self, name: str) -> Optional[int]:
        """Read a global variable by symbol name (program state triggers)."""
        address = self.binary.data_symbols.get(name)
        if address is None:
            return None
        return self.memory.peek(address)

    # ------------------------------------------------------------------
    def _status(self, kind: ExitKind, code: int = 0, reason: str = "") -> ExitStatus:
        source = self.binary.source_of(self.pc)
        if kind in (ExitKind.NORMAL, ExitKind.ERROR_EXIT) and self.os.exit_code is None:
            self.os.exit_code = code
        if kind in (ExitKind.SEGFAULT, ExitKind.ABORT):
            self.os.aborted = True
        return ExitStatus(
            kind=kind,
            code=code,
            reason=reason,
            steps=self.steps,
            pc=self.pc,
            source=str(source) if source else "",
            stdout=self.os.stdout_text(),
            stderr=self.os.stderr_text(),
        )


__all__ = ["Frame", "Machine", "VMError", "resolve_engine"]
