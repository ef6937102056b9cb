"""Predecoded, closure-threaded execution engine for the VM.

The reference interpreter in :mod:`repro.vm.machine` re-decodes every
instruction on every step: an ``isinstance`` chain per operand and an
opcode if/elif ladder per instruction.  That decode cost is pure overhead —
the instruction stream never changes after the assembler lays it out — and
it is the throughput ceiling for everything built on top of the VM: the
parallel campaign executor, the fault-space exploration engine, and the
overhead experiments all schedule thousands of runs through :class:`Machine`.

This module removes the per-step decode by compiling each
:class:`~repro.isa.instructions.Instruction` **once, at load time**, into a
specialized Python closure:

* register operands become list-slot indices (``m.regs[3]``),
* immediates, resolved labels, and data symbols become captured constants,
* the fall-through program counter is folded in as ``addr + 1``,
* arithmetic is bound to a concrete operator at compile time, and
* library calls capture their callee name and arity, so the interception
  fast path can skip context/lambda construction entirely when no
  injection runtime handles the function.

A compiled step closure receives the machine and returns either the next
program counter (an ``int``) or an **exit triple** ``(ExitKind, code,
reason)``; traps (memory faults, division by zero, ``SimExit``) still
propagate as exceptions, exactly as in the reference engine.

On top of the per-instruction closures, straight-line **basic blocks are
fused into superclosures**: one generated function per block, with

* common instruction shapes (MOV/arithmetic/PUSH/POP/LEA/jumps) inlined as
  statements over hoisted locals (``regs``, ``load``, ``store``) — no
  per-instruction call, no per-instruction pc/steps bookkeeping;
* CMP/Jcc pairs collapsed into a single conditional branch, with the flag
  materialization **elided entirely** when a bounded liveness scan proves
  no other instruction reads the flags (disabled globally if the program
  has computed jumps, which could land on a Jcc whose CMP was fused away);
* uninlinable shapes (library calls are never fused; errno loads,
  unresolved symbols, Mem-destination arithmetic) falling back to the
  per-instruction closure inside the block;
* trap attribution recovered *only when a trap propagates*: the generated
  handler maps the traceback line number of the failing statement back to
  its instruction offset, so the happy path carries zero bookkeeping.

Block boundaries come from :meth:`BinaryImage.block_leaders` (symbols,
function starts, and every resolved label target), so no fused block spans
a jump target; computed jumps that land mid-block simply take the
single-step path.

Superclosure compilation has two halves:

* **generation** (:func:`generate_blocks`) — source codegen plus the
  built-in ``compile()``, tens of milliseconds per target image.  It reads
  only the instruction stream and yields plain marshal-able data per block:
  start, length, code object, line map, and which per-instruction or
  CMP/Jcc closure each call slot binds;
* **binding** (:func:`bind_blocks`) — one function object per block over
  the image's per-instruction closures, about a millisecond per image.

A process that fans work out to a process pool generates each image's
code once and keeps it marshalled, keyed by
:meth:`~repro.isa.binary.BinaryImage.content_digest` (never ``id()``;
:func:`marshalled_block_code`).  The pool's children inherit the bytes at
fork or receive them with a batch (:func:`install_block_code`; see
:class:`~repro.core.controller.executor.ProcessPoolBackend`), so they only
bind.  A process that never fans out keeps no marshalled copy.
``clear_artifact_cache()`` drops the marshalled code
(:func:`clear_block_code`).

The per-instruction closures and the bound blocks cannot be marshalled.
They are cached on the :class:`~repro.isa.binary.BinaryImage` itself with
the generated blocks they were bound from (:func:`compiled_program`,
:func:`compiled_blocks`), so images shared through the process-wide
artifact cache or :class:`~repro.targets.base.CompiledTarget`'s binary
cache are built once per process no matter how many runs a campaign
schedules.

Behavioural contract: a compiled program must be **observably identical** to
the reference interpreter — same :class:`~repro.vm.outcome.ExitStatus`
(including step counts and fault reasons), same trace, coverage, library
call counts, and injection log.  ``tests/test_vm_dispatch.py`` and
``tests/test_dataplane.py`` enforce this differentially, including on
randomly generated mini-C programs.
"""

from __future__ import annotations

import builtins
import marshal
import operator
import sys
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

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
from repro.oslib.errors import MemoryFault
from repro.oslib.libc import LIBC_FUNCTIONS
from repro.vm.outcome import ExitKind

#: Register file layout: a fixed list of slots replaces the name-keyed dict.
REGISTER_NAMES: Tuple[str, ...] = (
    "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "sp", "bp",
)
REG_SLOT = {name: slot for slot, name in enumerate(REGISTER_NAMES)}
R0_SLOT = REG_SLOT["r0"]
SP_SLOT = REG_SLOT["sp"]
BP_SLOT = REG_SLOT["bp"]

#: Sentinel return address marking the bottom of the call stack.
RETURN_SENTINEL = -1

_STACK_LIMIT = layout.STACK_LIMIT

#: What a compiled step returns: the next pc, or an (kind, code, reason)
#: exit triple the main loop turns into an ExitStatus.
ExitTriple = Tuple[ExitKind, int, str]
StepFn = Callable[[Any], Union[int, ExitTriple]]


class VMError(Exception):
    """An execution error that is the VM's fault rather than the program's."""


@dataclass
class Frame:
    """One activation record, kept for backtraces (call-stack triggers)."""

    function: str
    call_address: Optional[int]
    return_address: int


class RegisterFile:
    """Dict-like view over a machine's slot-indexed register list.

    Kept for API compatibility with the old ``Dict[str, int]`` register
    file: reads and writes go straight through to the underlying slots.
    """

    __slots__ = ("_slots",)

    def __init__(self, slots: List[int]) -> None:
        self._slots = slots

    def __getitem__(self, name: str) -> int:
        return self._slots[REG_SLOT[name]]

    def __setitem__(self, name: str, value: int) -> None:
        self._slots[REG_SLOT[name]] = int(value)

    def __contains__(self, name: object) -> bool:
        return name in REG_SLOT

    def __iter__(self):
        return iter(REGISTER_NAMES)

    def __len__(self) -> int:
        return len(REGISTER_NAMES)

    def keys(self) -> Tuple[str, ...]:
        return REGISTER_NAMES

    def values(self) -> List[int]:
        return list(self._slots)

    def items(self) -> List[Tuple[str, int]]:
        slots = self._slots
        return [(name, slots[REG_SLOT[name]]) for name in REGISTER_NAMES]

    def as_dict(self) -> dict:
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisterFile({self.as_dict()})"


def _signed_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("integer division by zero")
    # C-style truncation towards zero, in exact integer arithmetic:
    # ``int(a / b)`` goes through a float, which rounds wrongly past 2**53
    # and overflows outright past float range (values a mini-C loop of
    # repeated squarings reaches easily).
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _signed_mod(a: int, b: int) -> int:
    return a - _signed_div(a, b) * b


ARITHMETIC = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: _signed_div,
    Opcode.MOD: _signed_mod,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
}


# ----------------------------------------------------------------------
# operand compilation
# ----------------------------------------------------------------------
def _raiser(message: str) -> StepFn:
    """A step/reader that defers an error to execution time.

    The reference interpreter only reports unresolved operands or unknown
    callees when the instruction actually executes; compiling them into
    raising closures preserves that behaviour for dead code.
    """

    def raise_error(m, *_ignored):
        raise VMError(message)

    return raise_error


def _compile_reader(op) -> Callable[[Any], int]:
    """Compile an operand into a value reader (the `_value` analog)."""
    if isinstance(op, Reg):
        slot = REG_SLOT[op.name]
        return lambda m: m.regs[slot]
    if isinstance(op, Imm):
        value = op.value
        return lambda m: value
    if isinstance(op, Mem):
        if op.base is None:
            address = op.offset
            if address == layout.ERRNO_ADDRESS:
                # Specialized at predecode time, so the errno-read counter
                # (see SimLibc.errno_reads) costs nothing on any other load.
                def read_errno(m):
                    m.libc.errno_reads += 1
                    return m._mem_load(address)

                return read_errno
            return lambda m: m._mem_load(address)
        base = REG_SLOT[op.base]
        offset = op.offset
        if offset:
            return lambda m: m._mem_load(m.regs[base] + offset)
        return lambda m: m._mem_load(m.regs[base])
    if isinstance(op, Label):
        if op.address is None:
            return _raiser(f"unresolved label {op.name!r}")
        address = op.address
        return lambda m: address
    if isinstance(op, DataRef):
        if op.address is None:
            return _raiser(f"unresolved data symbol {op.name!r}")
        address = op.address
        return lambda m: address
    return _raiser(f"cannot read operand {op!r}")


def _compile_address(op) -> Callable[[Any], int]:
    """Compile an operand into an address reader (the `_address_of` analog)."""
    if isinstance(op, Mem):
        if op.base is None:
            offset = op.offset
            return lambda m: offset
        base = REG_SLOT[op.base]
        offset = op.offset
        if offset:
            return lambda m: m.regs[base] + offset
        return lambda m: m.regs[base]
    if isinstance(op, DataRef):
        if op.address is None:
            return _raiser(f"unresolved data symbol {op.name!r}")
        address = op.address
        return lambda m: address
    return _raiser(f"operand {op!r} has no address")


def _compile_writer(op) -> Callable[[Any, int], None]:
    """Compile an operand into a value writer (the `_write` analog)."""
    if isinstance(op, Reg):
        slot = REG_SLOT[op.name]

        def write_reg(m, value):
            m.regs[slot] = value

        return write_reg
    if isinstance(op, Mem):
        address_of = _compile_address(op)

        def write_mem(m, value):
            m._mem_store(address_of(m), value)

        return write_mem
    return _raiser(f"cannot write to operand {op!r}")


def _branch_reader(op) -> Callable[[Any], int]:
    """Compile a branch-target operand (resolved labels fold to constants)."""
    if isinstance(op, Label) and op.address is not None:
        address = op.address
        return lambda m: address
    return _compile_reader(op)


# ----------------------------------------------------------------------
# per-opcode compilation
# ----------------------------------------------------------------------
def _compile_mov(ins: Instruction, next_pc: int) -> StepFn:
    dst, src = ins.operands[0], ins.operands[1]
    if isinstance(dst, Reg):
        d = REG_SLOT[dst.name]
        if isinstance(src, Imm):
            value = src.value

            def mov_ri(m):
                m.regs[d] = value
                return next_pc

            return mov_ri
        if isinstance(src, Reg):
            s = REG_SLOT[src.name]

            def mov_rr(m):
                regs = m.regs
                regs[d] = regs[s]
                return next_pc

            return mov_rr
        if isinstance(src, Mem) and src.base is not None:
            base = REG_SLOT[src.base]
            offset = src.offset

            def mov_rm(m):
                regs = m.regs
                regs[d] = m._mem_load(regs[base] + offset)
                return next_pc

            return mov_rm
        read = _compile_reader(src)

        def mov_rx(m):
            m.regs[d] = read(m)
            return next_pc

        return mov_rx
    if isinstance(dst, Mem):
        read = _compile_reader(src)
        if dst.base is not None:
            base = REG_SLOT[dst.base]
            offset = dst.offset

            def mov_mx(m):
                value = read(m)
                m._mem_store(m.regs[base] + offset, value)
                return next_pc

            return mov_mx
        address = dst.offset

        def mov_ax(m):
            m._mem_store(address, read(m))
            return next_pc

        return mov_ax
    return _raiser(f"cannot write to operand {dst!r}")


def _compile_lea(ins: Instruction, next_pc: int) -> StepFn:
    dst, src = ins.operands[0], ins.operands[1]
    address_of = _compile_address(src)
    if isinstance(dst, Reg):
        d = REG_SLOT[dst.name]

        def lea_r(m):
            m.regs[d] = address_of(m)
            return next_pc

        return lea_r
    write = _compile_writer(dst)

    def lea_x(m):
        write(m, address_of(m))
        return next_pc

    return lea_x


def _compile_push(ins: Instruction, next_pc: int) -> StepFn:
    src = ins.operands[0]
    if isinstance(src, Imm):
        value = src.value

        def push_imm(m):
            regs = m.regs
            sp = regs[SP_SLOT] - 1
            regs[SP_SLOT] = sp
            if sp < _STACK_LIMIT:
                raise MemoryFault(sp, "stack overflow")
            m._mem_store(sp, value)
            return next_pc

        return push_imm
    if isinstance(src, Reg):
        s = REG_SLOT[src.name]

        def push_reg(m):
            regs = m.regs
            value = regs[s]
            sp = regs[SP_SLOT] - 1
            regs[SP_SLOT] = sp
            if sp < _STACK_LIMIT:
                raise MemoryFault(sp, "stack overflow")
            m._mem_store(sp, value)
            return next_pc

        return push_reg
    read = _compile_reader(src)

    def push_x(m):
        value = read(m)
        regs = m.regs
        sp = regs[SP_SLOT] - 1
        regs[SP_SLOT] = sp
        if sp < _STACK_LIMIT:
            raise MemoryFault(sp, "stack overflow")
        m._mem_store(sp, value)
        return next_pc

    return push_x


def _compile_pop(ins: Instruction, next_pc: int) -> StepFn:
    dst = ins.operands[0]
    if isinstance(dst, Reg):
        d = REG_SLOT[dst.name]

        def pop_reg(m):
            regs = m.regs
            sp = regs[SP_SLOT]
            value = m._mem_load(sp)
            regs[SP_SLOT] = sp + 1
            regs[d] = value
            return next_pc

        return pop_reg
    write = _compile_writer(dst)

    def pop_x(m):
        regs = m.regs
        sp = regs[SP_SLOT]
        value = m._mem_load(sp)
        regs[SP_SLOT] = sp + 1
        write(m, value)
        return next_pc

    return pop_x


def _compile_arithmetic(ins: Instruction, next_pc: int) -> StepFn:
    opcode = ins.opcode
    dst, src = ins.operands[0], ins.operands[1]
    if isinstance(dst, Reg):
        d = REG_SLOT[dst.name]
        if opcode is Opcode.ADD and isinstance(src, Imm):
            value = src.value

            def add_ri(m):
                m.regs[d] += value
                return next_pc

            return add_ri
        if opcode is Opcode.SUB and isinstance(src, Imm):
            value = src.value

            def sub_ri(m):
                m.regs[d] -= value
                return next_pc

            return sub_ri
        apply = ARITHMETIC[opcode]
        if isinstance(src, Reg):
            s = REG_SLOT[src.name]

            def arith_rr(m):
                regs = m.regs
                regs[d] = apply(regs[d], regs[s])
                return next_pc

            return arith_rr
        read = _compile_reader(src)

        def arith_rx(m):
            regs = m.regs
            regs[d] = apply(regs[d], read(m))
            return next_pc

        return arith_rx
    apply = ARITHMETIC[opcode]
    read_dst = _compile_reader(dst)
    read_src = _compile_reader(src)
    write = _compile_writer(dst)

    def arith_xx(m):
        write(m, apply(read_dst(m), read_src(m)))
        return next_pc

    return arith_xx


def _compile_compare(ins: Instruction, next_pc: int) -> StepFn:
    a, b = ins.operands[0], ins.operands[1]
    if ins.opcode is Opcode.CMP:
        if isinstance(a, Reg) and isinstance(b, Imm):
            sa = REG_SLOT[a.name]
            value = b.value

            def cmp_ri(m):
                difference = m.regs[sa] - value
                m.zero_flag = difference == 0
                m.sign_flag = difference < 0
                return next_pc

            return cmp_ri
        if isinstance(a, Reg) and isinstance(b, Reg):
            sa = REG_SLOT[a.name]
            sb = REG_SLOT[b.name]

            def cmp_rr(m):
                regs = m.regs
                difference = regs[sa] - regs[sb]
                m.zero_flag = difference == 0
                m.sign_flag = difference < 0
                return next_pc

            return cmp_rr
        read_a = _compile_reader(a)
        read_b = _compile_reader(b)

        def cmp_xx(m):
            difference = read_a(m) - read_b(m)
            m.zero_flag = difference == 0
            m.sign_flag = difference < 0
            return next_pc

        return cmp_xx
    read_a = _compile_reader(a)
    read_b = _compile_reader(b)

    def test_xx(m):
        value = read_a(m) & read_b(m)
        m.zero_flag = value == 0
        m.sign_flag = value < 0
        return next_pc

    return test_xx


def _compile_jump(ins: Instruction, next_pc: int) -> StepFn:
    opcode = ins.opcode
    target_op = ins.operands[0]
    if opcode is Opcode.JMP:
        if isinstance(target_op, Label) and target_op.address is not None:
            target = target_op.address
            return lambda m: target
        read_target = _branch_reader(target_op)
        return lambda m: read_target(m)
    if isinstance(target_op, Label) and target_op.address is not None:
        target = target_op.address
        if opcode is Opcode.JE:
            return lambda m: target if m.zero_flag else next_pc
        if opcode is Opcode.JNE:
            return lambda m: next_pc if m.zero_flag else target
        if opcode is Opcode.JL:
            return lambda m: target if m.sign_flag else next_pc
        if opcode is Opcode.JLE:
            return lambda m: target if (m.sign_flag or m.zero_flag) else next_pc
        if opcode is Opcode.JG:
            return lambda m: next_pc if (m.sign_flag or m.zero_flag) else target
        if opcode is Opcode.JGE:
            return lambda m: next_pc if m.sign_flag else target
    read_target = _branch_reader(target_op)
    condition = _CONDITIONS[opcode]

    def jcc_dynamic(m):
        if condition(m):
            return read_target(m)
        return next_pc

    return jcc_dynamic


_CONDITIONS = {
    Opcode.JE: lambda m: m.zero_flag,
    Opcode.JNE: lambda m: not m.zero_flag,
    Opcode.JL: lambda m: m.sign_flag,
    Opcode.JLE: lambda m: m.sign_flag or m.zero_flag,
    Opcode.JG: lambda m: not m.sign_flag and not m.zero_flag,
    Opcode.JGE: lambda m: not m.sign_flag,
}


def _compile_local_call(target: Label, addr: int) -> StepFn:
    if target.address is None:
        return _raiser(f"unresolved call target {target.name!r}")
    function = target.name
    target_pc = target.address
    return_address = addr + 1

    def call_local(m):
        regs = m.regs
        sp = regs[SP_SLOT] - 1
        regs[SP_SLOT] = sp
        if sp < _STACK_LIMIT:
            raise MemoryFault(sp, "stack overflow")
        m._mem_store(sp, return_address)
        m.frames.append(
            Frame(function=function, call_address=addr, return_address=return_address)
        )
        return target_pc

    return call_local


def _compile_import_call(name: str, addr: int) -> StepFn:
    next_pc = addr + 1
    spec = LIBC_FUNCTIONS.get(name)
    if spec is None:
        return _raiser(f"call to unknown library function {name!r}")
    argc = spec.argc

    def call_import(m):
        regs = m.regs
        if argc:
            load = m._mem_load
            sp = regs[SP_SLOT]
            if argc == 1:
                args = (load(sp),)
            elif argc == 2:
                args = (load(sp), load(sp + 1))
            elif argc == 3:
                args = (load(sp), load(sp + 1), load(sp + 2))
            else:
                args = tuple(load(sp + index) for index in range(argc))
        else:
            args = ()
        gate = m.gate
        if gate is None:
            counts = m._local_call_counts
            counts[name] = counts.get(name, 0) + 1
            result = m.libc.call(name, args, m.memory)
        elif m._gate_is_standard:
            runtime = gate.runtime
            if runtime is not None and name in (
                m._handled_mask
                if runtime is m._mask_runtime
                else m._refresh_handled_mask(runtime)
            ):
                result = m._gated_library_call(name, args, addr)
            else:
                # Interception fast path: the runtime will not inject into
                # this function, so skip context/lambda construction — only
                # the gate's own count-then-pass-through bookkeeping runs.
                gate.count_call(name)
                result = m.libc.call(name, args, m.memory)
        else:
            result = m._gated_library_call(name, args, addr)
        regs[R0_SLOT] = int(result.value)
        return next_pc

    return call_import


def _compile_instruction(ins: Instruction, addr: int) -> StepFn:
    opcode = ins.opcode
    next_pc = addr + 1

    if opcode is Opcode.NOP:
        return lambda m: next_pc
    if opcode is Opcode.MOV:
        return _compile_mov(ins, next_pc)
    if opcode is Opcode.LEA:
        return _compile_lea(ins, next_pc)
    if opcode is Opcode.PUSH:
        return _compile_push(ins, next_pc)
    if opcode is Opcode.POP:
        return _compile_pop(ins, next_pc)
    if opcode in ARITHMETIC:
        return _compile_arithmetic(ins, next_pc)
    if opcode is Opcode.NEG:
        dst = ins.operands[0]
        if isinstance(dst, Reg):
            d = REG_SLOT[dst.name]

            def neg_r(m):
                regs = m.regs
                regs[d] = -regs[d]
                return next_pc

            return neg_r
        read = _compile_reader(dst)
        write = _compile_writer(dst)

        def neg_x(m):
            write(m, -read(m))
            return next_pc

        return neg_x
    if opcode is Opcode.NOT:
        dst = ins.operands[0]
        if isinstance(dst, Reg):
            d = REG_SLOT[dst.name]

            def not_r(m):
                regs = m.regs
                regs[d] = 0 if regs[d] else 1
                return next_pc

            return not_r
        read = _compile_reader(dst)
        write = _compile_writer(dst)

        def not_x(m):
            write(m, 0 if read(m) else 1)
            return next_pc

        return not_x
    if opcode in (Opcode.CMP, Opcode.TEST):
        return _compile_compare(ins, next_pc)
    if opcode is Opcode.JMP or opcode.is_conditional_jump:
        return _compile_jump(ins, next_pc)
    if opcode is Opcode.CALL:
        target = ins.operands[0] if ins.operands else None
        if isinstance(target, ImportRef):
            return _compile_import_call(target.name, addr)
        if isinstance(target, Label):
            return _compile_local_call(target, addr)
        return _raiser(f"unsupported call target {target!r}")
    if opcode is Opcode.RET:

        def ret(m):
            regs = m.regs
            sp = regs[SP_SLOT]
            return_address = m._mem_load(sp)
            regs[SP_SLOT] = sp + 1
            if return_address == RETURN_SENTINEL:
                code = regs[R0_SLOT]
                kind = ExitKind.NORMAL if code == 0 else ExitKind.ERROR_EXIT
                return (kind, code, "")
            frames = m.frames
            if frames:
                frames.pop()
            return return_address

        return ret
    if opcode is Opcode.HALT:

        def halt(m):
            code = m.regs[R0_SLOT]
            kind = ExitKind.NORMAL if code == 0 else ExitKind.ERROR_EXIT
            return (kind, code, "")

        return halt
    return _raiser(f"unhandled opcode {opcode}")  # pragma: no cover - defensive


# ----------------------------------------------------------------------
# whole-program compilation + per-image cache
# ----------------------------------------------------------------------
def compile_program(binary: BinaryImage) -> List[StepFn]:
    """Compile every instruction of *binary* into a step-closure array.

    Also records the set of import names the instruction stream actually
    calls on the image (``_import_call_names``): the machine's handled-import
    mask intersects against it, and deriving it from the instructions —
    rather than trusting ``binary.imports`` — keeps the interception fast
    path safe even for hand-constructed images with an incomplete import
    table.
    """
    program: List[StepFn] = []
    import_names = set()
    for addr, ins in enumerate(binary.instructions):
        if (
            ins.opcode is Opcode.CALL
            and ins.operands
            and isinstance(ins.operands[0], ImportRef)
        ):
            import_names.add(ins.operands[0].name)
        try:
            step = _compile_instruction(ins, addr)
        except (IndexError, KeyError) as error:
            # Malformed hand-built instructions (missing operands, unknown
            # register names) fail in the reference engine only when they
            # execute; defer the same exception to execution time so dead
            # malformed code stays as harmless as it is under the oracle.
            # Anything else is a compiler defect and must fail fast here.
            step = _deferred_exception(type(error), error.args)
        program.append(step)
    binary._import_call_names = frozenset(import_names)
    return program


def _deferred_exception(exc_type, exc_args) -> StepFn:
    def raise_at_execution(m):
        raise exc_type(*exc_args)

    return raise_at_execution


# ----------------------------------------------------------------------
# superclosures: basic-block fusion over the compiled program
# ----------------------------------------------------------------------
#: Opcodes safe to fuse into a straight-line superclosure: no control
#: transfer, no library-call gate, no observer can fire while one runs.
#: CALL is deliberately excluded — mid-run captures taken inside a gated
#: library call read ``machine.pc``/``machine.steps``, which a fused block
#: only maintains at block granularity.
_FUSIBLE_OPCODES = frozenset(
    {
        Opcode.NOP,
        Opcode.MOV,
        Opcode.LEA,
        Opcode.PUSH,
        Opcode.POP,
        Opcode.NEG,
        Opcode.NOT,
        Opcode.CMP,
        Opcode.TEST,
    }
) | frozenset(ARITHMETIC)

_CONDITIONAL_JUMPS = frozenset(_CONDITIONS)

#: Cap on sub-closures per superclosure; keeps the generated functions small
#: enough that a mid-block trap's budget fallback stays cheap.
_MAX_BLOCK = 24

#: Branch decision as a predicate over the CMP difference (or TEST mask):
#: ``difference = a - b`` makes every Jcc a comparison against zero, which
#: is what lets a fused CMP+Jcc skip materializing the flags when dead.
_TAKEN_ON_VALUE = {
    Opcode.JE: lambda value: value == 0,
    Opcode.JNE: lambda value: value != 0,
    Opcode.JL: lambda value: value < 0,
    Opcode.JLE: lambda value: value <= 0,
    Opcode.JG: lambda value: value > 0,
    Opcode.JGE: lambda value: value >= 0,
}


def _resolved_jump_target(ins: Instruction) -> Optional[int]:
    if ins.operands:
        target = ins.operands[0]
        if isinstance(target, Label) and target.address is not None:
            return target.address
    return None


def _has_computed_jump(instructions) -> bool:
    """Whether any jump target is only known at run time.

    A computed jump can land in the middle of a fused block, where execution
    falls back to the per-instruction path — and would then read whatever
    flags the last *materialized* CMP left behind.  Dead-flag elision is only
    sound when every entry into a flag-reading instruction is statically
    known, so one computed jump anywhere disables elision for the image.
    """
    for ins in instructions:
        opcode = ins.opcode
        if opcode is Opcode.JMP or opcode in _CONDITIONAL_JUMPS:
            if _resolved_jump_target(ins) is None:
                return True
    return False


def _flags_live_after(instructions, successors, budget: int = 64) -> bool:
    """Whether CMP/TEST flags may still be read on any path from *successors*.

    Conservative forward scan: a path dies when it reaches a CMP/TEST (flags
    redefined before any read); flags are live on a path that reaches a
    conditional jump.  CALL/RET/HALT and anything unrecognized are barriers
    counted as live — a mid-run capture taken inside a library call snapshots
    the architectural flags, so eliding a flag store across a call would be
    observable on the snapshot path.
    """
    pending = list(successors)
    seen = set()
    size = len(instructions)
    while pending:
        address = pending.pop()
        if address in seen:
            continue
        seen.add(address)
        if len(seen) > budget or not 0 <= address < size:
            return True
        opcode = instructions[address].opcode
        if opcode in (Opcode.CMP, Opcode.TEST):
            continue
        if opcode in _CONDITIONAL_JUMPS:
            return True
        if opcode is Opcode.JMP:
            target = _resolved_jump_target(instructions[address])
            if target is None:
                return True
            pending.append(target)
            continue
        if opcode in _FUSIBLE_OPCODES:
            pending.append(address + 1)
            continue
        return True
    return False


def _compile_cmp_jcc(
    cmp_ins: Instruction, jcc_ins: Instruction, jcc_addr: int, flags_live: bool
) -> Optional[StepFn]:
    """Fuse a CMP/TEST with the conditional jump consuming its flags.

    Returns ``None`` when the jump target is not a resolved label (the
    generic per-instruction closures handle that case).  With dead flags the
    pair collapses to a single branch on the comparison value; with live
    flags the pair still saves a dispatch round trip but materializes the
    flags exactly as the oracle would.
    """
    target = _resolved_jump_target(jcc_ins)
    if target is None or len(cmp_ins.operands) < 2:
        return None
    opcode = jcc_ins.opcode
    next_pc = jcc_addr + 1
    a, b = cmp_ins.operands[0], cmp_ins.operands[1]
    if cmp_ins.opcode is Opcode.CMP and not flags_live:
        # The hottest shapes — loop counters and guard compares — get fully
        # specialized branches with no flag stores and no lambda chain.
        if isinstance(a, Reg) and isinstance(b, Imm):
            sa = REG_SLOT[a.name]
            value = b.value
            if opcode is Opcode.JE:
                return lambda m: target if m.regs[sa] == value else next_pc
            if opcode is Opcode.JNE:
                return lambda m: target if m.regs[sa] != value else next_pc
            if opcode is Opcode.JL:
                return lambda m: target if m.regs[sa] < value else next_pc
            if opcode is Opcode.JLE:
                return lambda m: target if m.regs[sa] <= value else next_pc
            if opcode is Opcode.JG:
                return lambda m: target if m.regs[sa] > value else next_pc
            if opcode is Opcode.JGE:
                return lambda m: target if m.regs[sa] >= value else next_pc
        if isinstance(a, Reg) and isinstance(b, Reg):
            sa = REG_SLOT[a.name]
            sb = REG_SLOT[b.name]
            if opcode is Opcode.JE:
                return lambda m: target if m.regs[sa] == m.regs[sb] else next_pc
            if opcode is Opcode.JNE:
                return lambda m: target if m.regs[sa] != m.regs[sb] else next_pc
            if opcode is Opcode.JL:
                return lambda m: target if m.regs[sa] < m.regs[sb] else next_pc
            if opcode is Opcode.JLE:
                return lambda m: target if m.regs[sa] <= m.regs[sb] else next_pc
            if opcode is Opcode.JG:
                return lambda m: target if m.regs[sa] > m.regs[sb] else next_pc
            if opcode is Opcode.JGE:
                return lambda m: target if m.regs[sa] >= m.regs[sb] else next_pc
    read_a = _compile_reader(a)
    read_b = _compile_reader(b)
    taken = _TAKEN_ON_VALUE[opcode]
    if cmp_ins.opcode is Opcode.TEST:
        if flags_live:

            def test_jcc_live(m):
                value = read_a(m) & read_b(m)
                m.zero_flag = value == 0
                m.sign_flag = value < 0
                return target if taken(value) else next_pc

            return test_jcc_live

        def test_jcc(m):
            return target if taken(read_a(m) & read_b(m)) else next_pc

        return test_jcc
    if flags_live:

        def cmp_jcc_live(m):
            difference = read_a(m) - read_b(m)
            m.zero_flag = difference == 0
            m.sign_flag = difference < 0
            return target if taken(difference) else next_pc

        return cmp_jcc_live

    def cmp_jcc(m):
        return target if taken(read_a(m) - read_b(m)) else next_pc

    return cmp_jcc


_ARITH_SYMBOLS = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
}

_JCC_FLAG_EXPR = {
    Opcode.JE: "m.zero_flag",
    Opcode.JNE: "not m.zero_flag",
    Opcode.JL: "m.sign_flag",
    Opcode.JLE: "m.sign_flag or m.zero_flag",
    Opcode.JG: "not (m.sign_flag or m.zero_flag)",
    Opcode.JGE: "not m.sign_flag",
}

_JCC_CMP_OP = {
    Opcode.JE: "==",
    Opcode.JNE: "!=",
    Opcode.JL: "<",
    Opcode.JLE: "<=",
    Opcode.JG: ">",
    Opcode.JGE: ">=",
}


def _value_expr(op) -> Optional[str]:
    """Source expression reading *op* inside a superclosure, or ``None``
    when only the closure path can read it (errno loads keep their
    predecode-specialized read counter; unresolved symbols keep their
    deferred execution-time error)."""
    if isinstance(op, Reg):
        return f"regs[{REG_SLOT[op.name]}]"
    if isinstance(op, Imm):
        return repr(op.value)
    if isinstance(op, Label):
        return repr(op.address) if op.address is not None else None
    if isinstance(op, DataRef):
        return repr(op.address) if op.address is not None else None
    if isinstance(op, Mem):
        if op.base is None:
            if op.offset == layout.ERRNO_ADDRESS:
                return None
            return f"load({op.offset})"
        base = REG_SLOT[op.base]
        if op.offset:
            return f"load(regs[{base}] + {op.offset})"
        return f"load(regs[{base}])"
    return None


def _address_expr(op) -> Optional[str]:
    if isinstance(op, Mem):
        if op.base is None:
            return repr(op.offset)
        base = REG_SLOT[op.base]
        if op.offset:
            return f"regs[{base}] + {op.offset}"
        return f"regs[{base}]"
    if isinstance(op, DataRef):
        return repr(op.address) if op.address is not None else None
    return None


def _emit_instruction(ins: Instruction) -> Optional[List[str]]:
    """Emit *ins* as superclosure source statements, or ``None`` to fall
    back to calling its per-instruction closure.

    The emitted code assumes the generated function's hoisted locals
    (``regs``/``load``/``store``) and must fault **before** mutating any
    state an earlier statement did not already mutate — trap attribution
    re-executes nothing, so partial effects must match the per-step oracle.
    """
    try:
        return _emit_instruction_unchecked(ins)
    except (IndexError, KeyError):
        # Malformed hand-built instructions (missing operands, unknown
        # register names): the per-instruction closure already defers the
        # matching error to execution time — route through it.
        return None


def _emit_instruction_unchecked(ins: Instruction) -> Optional[List[str]]:
    opcode = ins.opcode
    ops = ins.operands
    if opcode is Opcode.NOP:
        return []
    if opcode is Opcode.MOV:
        dst, src = ops[0], ops[1]
        src_expr = _value_expr(src)
        if src_expr is None:
            return None
        if isinstance(dst, Reg):
            return [f"regs[{REG_SLOT[dst.name]}] = {src_expr}"]
        if isinstance(dst, Mem):
            address = _address_expr(dst)
            if address is None:
                return None
            return [f"store({address}, {src_expr})"]
        return None
    if opcode is Opcode.LEA:
        dst, src = ops[0], ops[1]
        address = _address_expr(src)
        if address is None or not isinstance(dst, Reg):
            return None
        return [f"regs[{REG_SLOT[dst.name]}] = {address}"]
    if opcode is Opcode.PUSH:
        src = ops[0]
        expr = _value_expr(src)
        if expr is None:
            return None
        lines = []
        if isinstance(src, Mem):
            # A faulting operand load must leave sp untouched.
            lines.append(f"_v = {expr}")
            expr = "_v"
        lines += [
            f"sp = regs[{SP_SLOT}] - 1",
            f"regs[{SP_SLOT}] = sp",
            f"if sp < {_STACK_LIMIT}:",
            "    raise _MemoryFault(sp, 'stack overflow')",
            f"store(sp, {expr})",
        ]
        return lines
    if opcode is Opcode.POP:
        dst = ops[0]
        if not isinstance(dst, Reg):
            return None
        return [
            f"sp = regs[{SP_SLOT}]",
            "_v = load(sp)",
            f"regs[{SP_SLOT}] = sp + 1",
            f"regs[{REG_SLOT[dst.name]}] = _v",
        ]
    if opcode in ARITHMETIC:
        dst, src = ops[0], ops[1]
        if not isinstance(dst, Reg):
            return None
        slot = REG_SLOT[dst.name]
        src_expr = _value_expr(src)
        if src_expr is None:
            return None
        symbol = _ARITH_SYMBOLS.get(opcode)
        if symbol is not None:
            return [f"regs[{slot}] {symbol}= {src_expr}"]
        helper = "_sdiv" if opcode is Opcode.DIV else "_smod"
        return [f"regs[{slot}] = {helper}(regs[{slot}], {src_expr})"]
    if opcode is Opcode.NEG:
        dst = ops[0]
        if not isinstance(dst, Reg):
            return None
        slot = REG_SLOT[dst.name]
        return [f"regs[{slot}] = -regs[{slot}]"]
    if opcode is Opcode.NOT:
        dst = ops[0]
        if not isinstance(dst, Reg):
            return None
        slot = REG_SLOT[dst.name]
        return [f"regs[{slot}] = 0 if regs[{slot}] else 1"]
    if opcode in (Opcode.CMP, Opcode.TEST):
        a_expr = _value_expr(ops[0])
        b_expr = _value_expr(ops[1])
        if a_expr is None or b_expr is None:
            return None
        combine = "-" if opcode is Opcode.CMP else "&"
        return [
            f"_v = ({a_expr}) {combine} ({b_expr})",
            "m.zero_flag = _v == 0",
            "m.sign_flag = _v < 0",
        ]
    return None


def _emit_jump(ins: Instruction, addr: int) -> Optional[List[str]]:
    """Emit a block-terminating JMP/Jcc with a statically resolved target."""
    target = _resolved_jump_target(ins)
    if target is None:
        return None
    if ins.opcode is Opcode.JMP:
        return [f"return {target}"]
    return [f"return {target} if {_JCC_FLAG_EXPR[ins.opcode]} else {addr + 1}"]


def _emit_cmp_jcc(
    cmp_ins: Instruction, jcc_ins: Instruction, jcc_addr: int, flags_live: bool
) -> Optional[List[str]]:
    """Emit a fused CMP/TEST + Jcc terminator.

    With dead flags the pair collapses to one comparison and a branch —
    no flag stores at all; with live flags the stores stay, matching the
    oracle bit for bit on the snapshot paths that capture flags.
    """
    target = _resolved_jump_target(jcc_ins)
    if target is None or len(cmp_ins.operands) < 2:
        return None
    a_expr = _value_expr(cmp_ins.operands[0])
    b_expr = _value_expr(cmp_ins.operands[1])
    if a_expr is None or b_expr is None:
        return None
    compare = _JCC_CMP_OP[jcc_ins.opcode]
    next_pc = jcc_addr + 1
    if cmp_ins.opcode is Opcode.CMP and not flags_live:
        return [f"return {target} if ({a_expr}) {compare} ({b_expr}) else {next_pc}"]
    combine = "-" if cmp_ins.opcode is Opcode.CMP else "&"
    lines = [f"_v = ({a_expr}) {combine} ({b_expr})"]
    if flags_live:
        lines += ["m.zero_flag = _v == 0", "m.sign_flag = _v < 0"]
    lines.append(f"return {target} if _v {compare} 0 else {next_pc}")
    return lines


#: A block item: inlined source statements, or a call slot naming the
#: closure to call — ``(address, None)`` for the per-instruction closure at
#: *address*, ``(jcc address, flags_live)`` for a fused CMP/Jcc closure.
#: Items are indexed by instruction offset within the block (a fused
#: CMP+Jcc is the last item and covers two instructions; a trap inside it can
#: only come from the CMP half, so offset attribution stays exact).
BlockItem = Tuple[str, Any]

#: One block of generated code, plain marshal-able data:
#: ``(start, length, code, line_map, slots)``.  ``code`` is the block
#: function's code object, ``line_map`` maps its source line numbers to item
#: offsets (trap attribution), and each slot ``(index, address, flags_live)``
#: names the closure the function calls as ``_s<index>`` (see
#: :data:`BlockItem`).
GeneratedBlock = Tuple[
    int, int, CodeType, Dict[int, int], Tuple[Tuple[int, int, Optional[bool]], ...]
]

#: Globals every bound superclosure reads besides ``_lines`` and its slots.
_BLOCK_GLOBALS = {
    "__builtins__": builtins,
    "_sdiv": _signed_div,
    "_smod": _signed_mod,
    "_MemoryFault": MemoryFault,
    "_exc_info": sys.exc_info,
}


def _generate_superclosure(
    items: List[BlockItem], base: int, fall_through: int
) -> Tuple[CodeType, Dict[int, int], tuple]:
    """Generate the code of one function executing a whole basic block.

    The happy path hoists ``m.regs``/``m._mem_load``/``m._mem_store`` into
    locals once and runs the inlined instruction bodies with **zero**
    per-instruction bookkeeping.  When anything traps, the handler recovers
    which instruction raised from the traceback's line number (the exception
    propagated through this frame, so ``tb_lineno`` is the line of the
    failing statement) and publishes the trap point as ``m.pc`` /
    ``m._block_executed`` so the machine loop can attribute steps, coverage,
    and trace exactly as the per-step oracle would.

    Returns the function's code object, its line map and its call slots:
    what :func:`bind_blocks` needs, all of it marshal-able.
    """
    lines = [
        "def _fused(m):",
        "    regs = m.regs",
        "    load = m._mem_load",
        "    store = m._mem_store",
        "    try:",
    ]
    line_map: Dict[int, int] = {}
    slots = []
    last_index = len(items) - 1
    returned = False
    for index, (kind, payload) in enumerate(items):
        start = len(lines) + 1
        if kind == "call":
            name = f"_s{index}"
            slots.append((index,) + payload)
            if index == last_index:
                lines.append(f"        return {name}(m)")
                returned = True
            else:
                lines.append(f"        {name}(m)")
        else:
            for statement in payload:
                lines.append("        " + statement)
            if payload and payload[-1].lstrip().startswith("return"):
                returned = True
        for line_number in range(start, len(lines) + 1):
            line_map[line_number] = index
    if not returned:
        lines.append(f"        return {fall_through}")
    lines += [
        "    except BaseException:",
        "        index = _lines[_exc_info()[2].tb_lineno]",
        f"        m.pc = {base} + index",
        "        m._block_executed = index + 1",
        "        raise",
    ]
    module = compile("\n".join(lines), f"<superclosure@{base:#x}>", "exec")
    # The module only defines ``_fused``: keep the function's code, not the
    # module's, so binding needs no ``exec``.
    code = next(const for const in module.co_consts if isinstance(const, CodeType))
    return code, line_map, tuple(slots)


def generate_blocks(binary: BinaryImage) -> List[GeneratedBlock]:
    """Generate the superclosure code of every fused block of *binary*.

    The expensive half of superclosure compilation: source codegen plus the
    built-in ``compile()``.  It reads only the instruction stream, so the
    result depends on the image's content alone, and it is plain
    marshal-able data that :func:`bind_blocks` turns into callables in any
    process.  Blocks never span a leader (so statically-known jumps always
    land on a block start), never contain CALL/RET/HALT, and may end with a
    jump — preferentially a CMP+Jcc pair fused into a single branch.
    """
    instructions = binary.instructions
    leaders = binary.block_leaders()
    size = len(instructions)
    blocks: List[GeneratedBlock] = []
    computed_jumps = _has_computed_jump(instructions)
    position = 0
    while position < size:
        start = position
        run: List[BlockItem] = []
        while (
            position < size
            and len(run) < _MAX_BLOCK
            and (position == start or position not in leaders)
            and instructions[position].opcode in _FUSIBLE_OPCODES
        ):
            body = _emit_instruction(instructions[position])
            run.append(
                ("inline", body) if body is not None else ("call", (position, None))
            )
            position += 1
        if not run:
            position += 1
            continue
        items = run
        block_length = len(run)
        if position < size and position not in leaders and len(run) < _MAX_BLOCK:
            terminator = instructions[position]
            t_opcode = terminator.opcode
            if t_opcode in _CONDITIONAL_JUMPS and instructions[position - 1].opcode in (
                Opcode.CMP,
                Opcode.TEST,
            ):
                target = _resolved_jump_target(terminator)
                flags_live = computed_jumps or target is None or _flags_live_after(
                    instructions, (target, position + 1)
                )
                try:
                    pair_lines = _emit_cmp_jcc(
                        instructions[position - 1], terminator, position, flags_live
                    )
                    # A pair the emitter cannot inline still fuses when its
                    # closure builds; bind_blocks builds it again to call it.
                    pair = (
                        None
                        if pair_lines is not None
                        else _compile_cmp_jcc(
                            instructions[position - 1], terminator, position, flags_live
                        )
                    )
                except (IndexError, KeyError):
                    # Malformed operands: defer to the per-instruction
                    # closures, which raise the matching error at run time.
                    pair_lines = pair = None
                if pair_lines is not None:
                    items = run[:-1] + [("inline", pair_lines)]
                elif pair is not None:
                    items = run[:-1] + [("call", (position, flags_live))]
                else:
                    items = run + [("call", (position, None))]
                block_length += 1
                position += 1
            elif t_opcode is Opcode.JMP or t_opcode in _CONDITIONAL_JUMPS:
                jump_lines = _emit_jump(terminator, position)
                items = run + [
                    ("inline", jump_lines)
                    if jump_lines is not None
                    else ("call", (position, None))
                ]
                block_length += 1
                position += 1
        if block_length >= 2:
            code, line_map, slots = _generate_superclosure(
                items, start, start + block_length
            )
            blocks.append((start, block_length, code, line_map, slots))
    return blocks


def bind_blocks(
    binary: BinaryImage, program: List[StepFn], blocks: Sequence[GeneratedBlock]
) -> Tuple[List[Optional[StepFn]], List[int]]:
    """Bind generated *blocks* to *binary*'s per-instruction *program*.

    The cheap half of superclosure compilation: one function per block over
    a globals dict holding the block's line map and the closures its call
    slots name.  Returns ``(fused, lengths)`` arrays indexed by address:
    ``fused[a]`` is a superclosure covering ``lengths[a]`` consecutive
    instructions starting at ``a``, or ``None`` where execution must take
    the per-instruction path.
    """
    instructions = binary.instructions
    size = len(instructions)
    fused: List[Optional[StepFn]] = [None] * size
    lengths = [0] * size
    for start, length, code, line_map, slots in blocks:
        namespace = dict(_BLOCK_GLOBALS)
        namespace["_lines"] = line_map
        for index, address, flags_live in slots:
            namespace[f"_s{index}"] = (
                program[address]
                if flags_live is None
                else _compile_cmp_jcc(
                    instructions[address - 1], instructions[address], address, flags_live
                )
            )
        fused[start] = FunctionType(code, namespace)
        lengths[start] = length
    return fused, lengths


# ----------------------------------------------------------------------
# generated code shipped to pool children, keyed by image content
# ----------------------------------------------------------------------
#: Marshalled blocks by image content digest.  Only a process that fans
#: work out to a process pool keeps these (:func:`marshalled_block_code`),
#: and the pool's children, which inherit them at fork or are sent them
#: with a batch (:func:`install_block_code`).
_MARSHALLED: Dict[str, bytes] = {}


def marshalled_block_code(binary: BinaryImage) -> bytes:
    """*binary*'s generated blocks, marshalled once per image content.

    For a process about to fan work out to a process pool: it keeps the
    bytes, not code objects or bound blocks, so a pool forked afterwards
    inherits them and a pool forked earlier can be sent them.  An image
    this process already bound lends its generated blocks.
    """
    digest = binary.content_digest()
    data = _MARSHALLED.get(digest)
    if data is None:
        bound = getattr(binary, "_compiled_blocks", None)
        data = marshal.dumps(bound[3] if bound is not None else generate_blocks(binary))
        _MARSHALLED[digest] = data
    return data


def install_block_code(digest: str, data: bytes) -> None:
    """Adopt blocks that :func:`marshalled_block_code` produced in the
    process that planned this one's work."""
    _MARSHALLED.setdefault(digest, data)


def block_code_digests() -> FrozenSet[str]:
    """Content digests of the images whose marshalled blocks this process
    holds: what a child forked now inherits."""
    return frozenset(_MARSHALLED)


def clear_block_code() -> None:
    """Drop every marshalled block of this process.

    Images keep the blocks already bound to them.
    """
    _MARSHALLED.clear()


def compiled_blocks(
    binary: BinaryImage,
) -> Tuple[List[Optional[StepFn]], List[int]]:
    """The superclosure arrays for *binary*, bound at most once per image.

    The blocks bind from this process's marshalled code for the image's
    content when it holds some (a pool child that inherited or was sent
    it), so that image costs only :func:`bind_blocks`; otherwise they are
    generated here.  The arrays are cached on the image with the closure
    array they call into and the generated blocks, and rebound if
    :func:`compiled_program` ever builds a new closure array.
    """
    program = compiled_program(binary)
    cached = getattr(binary, "_compiled_blocks", None)
    if cached is None or cached[2] is not program:
        data = _MARSHALLED.get(binary.content_digest())
        blocks = marshal.loads(data) if data is not None else generate_blocks(binary)
        fused, lengths = bind_blocks(binary, program, blocks)
        cached = (fused, lengths, program, blocks)
        binary._compiled_blocks = cached
    return cached[0], cached[1]


def compiled_program(binary: BinaryImage) -> List[StepFn]:
    """The compiled program for *binary*, built at most once per image.

    The closure array is cached on the image itself, so every sharing layer
    — the process-wide artifact cache, :class:`CompiledTarget`'s binary
    cache, campaign workers reusing one image — gets the predecoded program
    for free.  ``BinaryImage`` stores its instruction stream as a tuple, so
    the cache cannot go stale; the length guard is belt-and-braces for
    exotic images built outside the tool chain.
    """
    program = getattr(binary, "_compiled_program", None)
    if program is None or len(program) != len(binary.instructions):
        program = compile_program(binary)
        binary._compiled_program = program
    return program


__all__ = [
    "ARITHMETIC",
    "Frame",
    "REGISTER_NAMES",
    "REG_SLOT",
    "RETURN_SENTINEL",
    "RegisterFile",
    "VMError",
    "bind_blocks",
    "block_code_digests",
    "clear_block_code",
    "compile_program",
    "compiled_blocks",
    "compiled_program",
    "generate_blocks",
    "install_block_code",
    "marshalled_block_code",
]
