"""Two-pass assembler for the synthetic ISA.

Two front ends are provided:

* a **programmatic builder** (:class:`Assembler`) used by the mini-C code
  generator and by the synthetic libc builder, and
* a **text front end** (:func:`assemble_text`) accepting a small assembly
  dialect, convenient for tests and hand-written fixtures::

      .func main
          push 64
          call @malloc
          add sp, 1
          cmp r0, 0
          je fail
          mov r1, r0
          jmp done
      fail:
          push $msg
          call @perror
          add sp, 1
      done:
          halt
      .endfunc
      .string msg "allocation failed"

Labels are scoped to the enclosing function.  Any ``@name`` call target that
is not a locally defined function becomes an entry in the import table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa import layout
from repro.isa.binary import BinaryImage, FunctionInfo, SourceLocation
from repro.isa.instructions import (
    ALL_REGISTERS,
    DataRef,
    Imm,
    ImportRef,
    Instruction,
    Label,
    Mem,
    Opcode,
    Operand,
    Reg,
)


class AssemblyError(Exception):
    """Raised for malformed assembly input or unresolved references."""


@dataclass
class _PendingInstruction:
    instruction: Instruction
    function: str


@dataclass
class _DataItem:
    name: str
    words: List[int] = field(default_factory=list)


class Assembler:
    """Programmatic assembler producing :class:`BinaryImage` objects."""

    def __init__(self, name: str, entry: str = "main") -> None:
        self.name = name
        self.entry = entry
        self._pending: List[_PendingInstruction] = []
        self._function_starts: Dict[str, int] = {}
        self._function_order: List[str] = []
        self._current_function: Optional[str] = None
        self._labels: Dict[str, int] = {}
        self._data_items: List[_DataItem] = []
        self._data_symbols: Dict[str, int] = {}
        self._line_table: Dict[int, SourceLocation] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # code emission
    # ------------------------------------------------------------------
    def begin_function(self, name: str) -> None:
        if self._current_function is not None:
            raise AssemblyError(
                f"begin_function({name!r}) while {self._current_function!r} is open"
            )
        if name in self._function_starts:
            raise AssemblyError(f"duplicate function {name!r}")
        self._current_function = name
        self._function_starts[name] = len(self._pending)
        self._function_order.append(name)

    def end_function(self) -> None:
        if self._current_function is None:
            raise AssemblyError("end_function() without begin_function()")
        self._current_function = None

    def emit(
        self,
        opcode: Opcode,
        *operands: Operand,
        source: Optional[SourceLocation] = None,
        comment: str = "",
    ) -> int:
        """Append one instruction and return its (eventual) address."""
        if self._current_function is None:
            raise AssemblyError("emit() outside of a function")
        address = len(self._pending)
        instruction = Instruction(
            opcode=opcode,
            operands=tuple(operands),
            address=address,
            source=source,
            comment=comment,
        )
        self._pending.append(
            _PendingInstruction(instruction=instruction, function=self._current_function)
        )
        if source is not None:
            self._line_table[address] = source
        return address

    def mark_label(self, label: str) -> None:
        """Attach *label* (function-scoped) to the next emitted instruction."""
        if self._current_function is None:
            raise AssemblyError("mark_label() outside of a function")
        key = self._scoped(self._current_function, label)
        if key in self._labels:
            raise AssemblyError(f"duplicate label {label!r} in {self._current_function!r}")
        self._labels[key] = len(self._pending)

    @staticmethod
    def _scoped(function: str, label: str) -> str:
        return f"{function}::{label}"

    # ------------------------------------------------------------------
    # data emission
    # ------------------------------------------------------------------
    def add_string(self, name: str, text: str) -> None:
        """Add a NUL-terminated string literal (one character per word)."""
        if name in self._data_symbols or any(d.name == name for d in self._data_items):
            raise AssemblyError(f"duplicate data symbol {name!r}")
        words = [ord(ch) for ch in text] + [0]
        self._data_items.append(_DataItem(name=name, words=words))

    def add_global(self, name: str, size: int = 1, initial: int = 0) -> None:
        """Reserve *size* words of initialized global storage."""
        if size < 1:
            raise AssemblyError(f"global {name!r} must have size >= 1")
        if name in self._data_symbols or any(d.name == name for d in self._data_items):
            raise AssemblyError(f"duplicate data symbol {name!r}")
        self._data_items.append(_DataItem(name=name, words=[initial] * size))

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finish(self) -> BinaryImage:
        if self._current_function is not None:
            raise AssemblyError(
                f"finish() while function {self._current_function!r} is still open"
            )
        if self._finished:
            raise AssemblyError("finish() called twice")
        self._finished = True

        data_words, data_symbols = self._layout_data()
        instructions = self._resolve(data_symbols)
        symbols = dict(self._function_starts)
        functions = self._function_extents()
        imports = sorted(
            {
                instr.operands[0].name
                for instr in instructions
                if instr.opcode is Opcode.CALL
                and instr.operands
                and isinstance(instr.operands[0], ImportRef)
            }
        )
        return BinaryImage(
            name=self.name,
            instructions=instructions,
            symbols=symbols,
            imports=imports,
            data_words=data_words,
            data_symbols=data_symbols,
            line_table=dict(self._line_table),
            functions=functions,
            entry=self.entry,
        )

    def _layout_data(self) -> Tuple[Dict[int, int], Dict[str, int]]:
        address = layout.DATA_BASE
        data_words: Dict[int, int] = {}
        data_symbols: Dict[str, int] = {}
        for item in self._data_items:
            data_symbols[item.name] = address
            for word in item.words:
                data_words[address] = word
                address += 1
        return data_words, data_symbols

    def _function_extents(self) -> Dict[str, FunctionInfo]:
        infos: Dict[str, FunctionInfo] = {}
        for index, name in enumerate(self._function_order):
            start = self._function_starts[name]
            end = (
                self._function_starts[self._function_order[index + 1]]
                if index + 1 < len(self._function_order)
                else len(self._pending)
            )
            infos[name] = FunctionInfo(name=name, start=start, end=end)
        return infos

    def _resolve(self, data_symbols: Dict[str, int]) -> List[Instruction]:
        resolved: List[Instruction] = []
        for address, pending in enumerate(self._pending):
            instruction = pending.instruction
            operands = tuple(
                self._resolve_operand(op, pending.function, address)
                for op in instruction.operands
            )
            resolved.append(
                Instruction(
                    opcode=instruction.opcode,
                    operands=operands,
                    address=address,
                    label=instruction.label,
                    source=instruction.source,
                    comment=instruction.comment,
                )
            )
        # Patch DataRef and symbolic Mem operands now that the data layout is
        # final.
        patched: List[Instruction] = []
        for instruction in resolved:
            fixed_operands = []
            for op in instruction.operands:
                if isinstance(op, DataRef) and op.name in data_symbols:
                    op = op.resolved(data_symbols[op.name])
                elif isinstance(op, Mem) and op.symbol is not None:
                    if op.symbol not in data_symbols:
                        raise AssemblyError(
                            f"unresolved data symbol {op.symbol!r} in memory operand "
                            f"at address {instruction.address}"
                        )
                    op = op.resolved(data_symbols[op.symbol])
                fixed_operands.append(op)
            operands = tuple(fixed_operands)
            for op in operands:
                if isinstance(op, DataRef) and op.address is None:
                    raise AssemblyError(
                        f"unresolved data symbol {op.name!r} at address {instruction.address}"
                    )
            patched.append(
                Instruction(
                    opcode=instruction.opcode,
                    operands=operands,
                    address=instruction.address,
                    label=instruction.label,
                    source=instruction.source,
                    comment=instruction.comment,
                )
            )
        return patched

    def _resolve_operand(self, operand: Operand, function: str, address: int) -> Operand:
        if isinstance(operand, Label) and operand.address is None:
            scoped = self._scoped(function, operand.name)
            if scoped in self._labels:
                return operand.resolved(self._labels[scoped])
            if operand.name in self._function_starts:
                return operand.resolved(self._function_starts[operand.name])
            raise AssemblyError(
                f"unresolved label {operand.name!r} referenced at address {address} "
                f"in function {function!r}"
            )
        return operand


# ----------------------------------------------------------------------
# text front end
# ----------------------------------------------------------------------

_MEM_RE = re.compile(
    r"^\[\s*(?P<base>[a-z][a-z0-9]*)?\s*(?:(?P<sign>[+-])\s*(?P<off>\d+))?\s*\]$"
)
_MEM_ABS_RE = re.compile(r"^\[\s*(?P<addr>-?\d+|0x[0-9a-fA-F]+)\s*\]$")
_STRING_RE = re.compile(r'^\.string\s+(?P<name>\w+)\s+"(?P<text>.*)"\s*$')
_GLOBAL_RE = re.compile(r"^\.global\s+(?P<name>\w+)(?:\s+(?P<size>\d+))?(?:\s*=\s*(?P<init>-?\d+))?$")


def _parse_int(token: str) -> int:
    return int(token, 0)


def _parse_operand(token: str) -> Operand:
    token = token.strip()
    if not token:
        raise AssemblyError("empty operand")
    if token in ALL_REGISTERS:
        return Reg(token)
    if token.startswith("@"):
        return ImportRef(token[1:])
    if token.startswith("$"):
        return DataRef(token[1:])
    match = _MEM_ABS_RE.match(token)
    if match:
        return Mem(base=None, offset=_parse_int(match.group("addr")))
    match = _MEM_RE.match(token)
    if match:
        base = match.group("base")
        offset = 0
        if match.group("off") is not None:
            offset = int(match.group("off"))
            if match.group("sign") == "-":
                offset = -offset
        if base is not None and base not in ALL_REGISTERS:
            raise AssemblyError(f"unknown base register in operand {token!r}")
        return Mem(base=base, offset=offset)
    try:
        return Imm(_parse_int(token))
    except ValueError:
        pass
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", token):
        return Label(token)
    raise AssemblyError(f"cannot parse operand {token!r}")


def _split_operands(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return [part.strip() for part in parts if part.strip()]


def assemble_text(text: str, name: str = "a.out", entry: str = "main") -> BinaryImage:
    """Assemble the textual dialect described in the module docstring."""
    assembler = Assembler(name, entry=entry)
    opcode_by_name = {op.value: op for op in Opcode}
    source_file = f"{name}.s"

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".func"):
            parts = line.split()
            if len(parts) != 2:
                raise AssemblyError(f"line {line_number}: malformed .func directive")
            assembler.begin_function(parts[1])
            continue
        if line == ".endfunc":
            assembler.end_function()
            continue
        match = _STRING_RE.match(line)
        if match:
            assembler.add_string(match.group("name"), match.group("text"))
            continue
        match = _GLOBAL_RE.match(line)
        if match:
            size = int(match.group("size") or 1)
            initial = int(match.group("init") or 0)
            assembler.add_global(match.group("name"), size=size, initial=initial)
            continue
        if line.startswith("."):
            raise AssemblyError(f"line {line_number}: unknown directive {line!r}")

        # Labels may share a line with an instruction: "fail: mov r0, -1"
        while True:
            label_match = re.match(r"^([A-Za-z_][A-Za-z0-9_.]*):\s*(.*)$", line)
            if not label_match:
                break
            assembler.mark_label(label_match.group(1))
            line = label_match.group(2).strip()
            if not line:
                break
        if not line:
            continue

        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        if mnemonic not in opcode_by_name:
            raise AssemblyError(f"line {line_number}: unknown mnemonic {mnemonic!r}")
        opcode = opcode_by_name[mnemonic]
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [_parse_operand(token) for token in _split_operands(operand_text)]
        assembler.emit(
            opcode,
            *operands,
            source=SourceLocation(file=source_file, line=line_number),
        )

    return assembler.finish()
