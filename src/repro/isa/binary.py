"""Binary image format: the synthetic analog of an ELF object.

A :class:`BinaryImage` bundles the pieces the LFI tool chain needs from a
real binary:

* the instruction stream (for disassembly, CFG construction and dataflow),
* a symbol table of exported functions (what the profiler analyses),
* an import table (the program/library boundary where faults are injected),
* an initialized data segment with data symbols, and
* a line table mapping instruction addresses back to source file/line — the
  stand-in for DWARF debug information that call-stack triggers and analyzer
  reports use.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.isa import layout
from repro.isa.instructions import Imm, ImportRef, Instruction, Label, Mem, Opcode


@dataclass(frozen=True)
class SourceLocation:
    """A source coordinate attached to an instruction (DWARF analog)."""

    file: str
    line: int
    function: str = ""

    def __str__(self) -> str:
        if self.function:
            return f"{self.file}:{self.line} ({self.function})"
        return f"{self.file}:{self.line}"


@dataclass(frozen=True)
class Symbol:
    """An entry in the symbol table."""

    name: str
    address: int
    kind: str = "func"  # "func" or "data"


@dataclass(frozen=True)
class FunctionInfo:
    """Extent of a function in the code segment (``end`` is exclusive)."""

    name: str
    start: int
    end: int

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class CallSite:
    """A call to an imported library function found in a program binary."""

    address: int
    callee: str
    caller: str
    source: Optional[SourceLocation] = None

    def __str__(self) -> str:
        loc = f" at {self.source}" if self.source else ""
        return f"call {self.callee} @ {self.address:#x} in {self.caller}{loc}"


class BinaryImage:
    """A fully laid out program or library image."""

    def __init__(
        self,
        name: str,
        instructions: Iterable[Instruction],
        symbols: Dict[str, int],
        imports: Iterable[str],
        data_words: Optional[Dict[int, int]] = None,
        data_symbols: Optional[Dict[str, int]] = None,
        line_table: Optional[Dict[int, SourceLocation]] = None,
        functions: Optional[Dict[str, FunctionInfo]] = None,
        entry: str = "main",
    ) -> None:
        self.name = name
        #: Stored as a tuple: the instruction stream is immutable once laid
        #: out, which is what lets the VM cache a compiled closure array on
        #: the image without any staleness hazard.
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)
        self.symbols = dict(symbols)
        self.imports = tuple(sorted(set(imports)))
        self.data_words: Dict[int, int] = dict(data_words or {})
        self.data_symbols: Dict[str, int] = dict(data_symbols or {})
        self.line_table: Dict[int, SourceLocation] = dict(line_table or {})
        self.entry = entry
        if functions is None:
            functions = self._infer_functions()
        self.functions: Dict[str, FunctionInfo] = dict(functions)
        #: Sorted (starts, infos, max size) table for bisect-based address →
        #: function lookup; built lazily, assumes ``functions`` is not
        #: mutated after construction (nothing in the tool chain does).
        self._range_table: Optional[Tuple[List[int], List[FunctionInfo], int]] = None
        #: Content identity, see :meth:`content_digest`.  ``compile_source``
        #: records a digest of its inputs here; otherwise it stays ``None``
        #: until first asked for.
        self.digest: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _infer_functions(self) -> Dict[str, FunctionInfo]:
        """Derive function extents from the symbol table when not provided."""
        starts = sorted(
            (addr, name) for name, addr in self.symbols.items()
        )
        infos: Dict[str, FunctionInfo] = {}
        for index, (start, name) in enumerate(starts):
            end = (
                starts[index + 1][0]
                if index + 1 < len(starts)
                else len(self.instructions)
            )
            infos[name] = FunctionInfo(name=name, start=start, end=end)
        return infos

    # ------------------------------------------------------------------
    # pickling (images cross process boundaries under ProcessPoolBackend)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop derived caches: the range table is cheap to rebuild, and the
        VM's per-instruction closures and bound superclosures cannot be
        pickled.  The receiving process rebuilds the closures and binds the
        superclosure code it holds for this image's :meth:`content_digest`
        (inherited at fork or sent with a pool batch), generating that code
        only if it holds none (see :mod:`repro.vm.dispatch`)."""
        state = dict(self.__dict__)
        state.pop("_compiled_program", None)
        state.pop("_compiled_blocks", None)
        state["_range_table"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._range_table = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def instruction_at(self, address: int) -> Instruction:
        if not 0 <= address < len(self.instructions):
            raise IndexError(f"address {address:#x} outside code segment of {self.name}")
        return self.instructions[address]

    def has_address(self, address: int) -> bool:
        return 0 <= address < len(self.instructions)

    def function_containing(self, address: int) -> Optional[FunctionInfo]:
        """Function whose extent covers *address* (bisect over a range table).

        Called once per call site by the analyzer, so this is O(log n) on a
        start-sorted table instead of a linear scan over every function.
        The backwards walk is bounded by the largest function size, which
        keeps the lookup correct even for degenerate (zero-size or
        overlapping) extents hand-built in tests.
        """
        table = self._range_table
        if table is None:
            infos = sorted(self.functions.values(), key=lambda info: (info.start, info.end))
            starts = [info.start for info in infos]
            max_size = max((info.end - info.start for info in infos), default=0)
            table = (starts, infos, max_size)
            self._range_table = table
        starts, infos, max_size = table
        index = bisect_right(starts, address) - 1
        lowest = address - max_size
        while index >= 0 and starts[index] > lowest:
            info = infos[index]
            if info.start <= address < info.end:
                return info
            index -= 1
        return None

    def source_of(self, address: int) -> Optional[SourceLocation]:
        return self.line_table.get(address)

    def content_digest(self) -> str:
        """A stable identity of the image's contents, computed at most once.

        Images from ``compile_source`` already carry a digest of the
        compilation inputs in :attr:`digest`.  Any other image hashes its
        laid-out contents on first use, which costs milliseconds on a
        target-sized image.  Unlike ``id()``, the digest never aliases a
        different image that later reuses the address.
        """
        if self.digest is None:
            content = (
                self.name,
                self.entry,
                self.instructions,
                sorted(self.symbols.items()),
                self.imports,
                sorted(self.data_words.items()),
                sorted(self.data_symbols.items()),
                sorted(self.line_table.items()),
                sorted(self.functions.items()),
            )
            self.digest = "image:" + hashlib.sha256(repr(content).encode("utf-8")).hexdigest()
        return self.digest

    @property
    def errno_address_taken(self) -> bool:
        """True when the program can materialize ``errno``'s address.

        Scans the instruction stream for an immediate equal to
        :data:`~repro.isa.layout.ERRNO_ADDRESS` (what ``&errno`` compiles
        to) or an ``LEA`` of the absolute errno cell.  When either exists,
        the program may read errno through a pointer the compiled engine's
        predecode-specialized errno-read counter cannot see, so consumers
        of the counter (errno-blind suffix replication) must treat it as
        unreliable for this image.  Mirrors the modeling assumption of the
        static errno analyses: errno is reached via the well-known absolute
        address, not via arithmetic that happens to land on it.
        """
        cached = getattr(self, "_errno_address_taken", None)
        if cached is None:
            cached = False
            for instruction in self.instructions:
                for operand in instruction.operands:
                    if isinstance(operand, Imm) and operand.value == layout.ERRNO_ADDRESS:
                        cached = True
                    elif (
                        instruction.opcode is Opcode.LEA
                        and isinstance(operand, Mem)
                        and operand.base is None
                        and operand.offset == layout.ERRNO_ADDRESS
                    ):
                        cached = True
                if cached:
                    break
            self._errno_address_taken = cached
        return cached

    def block_leaders(self) -> frozenset:
        """Addresses where control can enter a basic block from elsewhere.

        Leaders are the entry address, every symbol (function starts, which
        ``call`` reaches), and every resolved :class:`Label` appearing as an
        operand anywhere — branch targets, but also labels materialized as
        values, since a program that loads a label can later jump to it.
        The superclosure compiler (:mod:`repro.vm.dispatch`) never fuses
        across a leader, so statically-known control transfers always land
        on a block start (or on an unfused instruction).  Computed jumps can
        still land mid-block; those addresses simply have no fused entry and
        execute on the per-instruction path.
        """
        cached = getattr(self, "_block_leaders", None)
        if cached is None:
            leaders = {0}
            leaders.update(self.symbols.values())
            for info in self.functions.values():
                leaders.add(info.start)
            for instruction in self.instructions:
                for operand in instruction.operands:
                    if isinstance(operand, Label) and operand.address is not None:
                        leaders.add(operand.address)
            cached = frozenset(leaders)
            self._block_leaders = cached
        return cached

    @property
    def exported_functions(self) -> Tuple[str, ...]:
        return tuple(sorted(self.symbols))

    def entry_address(self, name: Optional[str] = None) -> int:
        target = name or self.entry
        if target not in self.symbols:
            raise KeyError(f"{self.name} does not export {target!r}")
        return self.symbols[target]

    # ------------------------------------------------------------------
    # call-site discovery (used by the call-site analyzer, §5)
    # ------------------------------------------------------------------
    def call_sites(self, callee: Optional[str] = None) -> List[CallSite]:
        """Return all library call sites, optionally filtered by callee name."""
        sites: List[CallSite] = []
        for address, instruction in enumerate(self.instructions):
            if instruction.opcode is not Opcode.CALL or not instruction.operands:
                continue
            target = instruction.operands[0]
            if not isinstance(target, ImportRef):
                continue
            if callee is not None and target.name != callee:
                continue
            caller = self.function_containing(address)
            sites.append(
                CallSite(
                    address=address,
                    callee=target.name,
                    caller=caller.name if caller else "?",
                    source=self.source_of(address),
                )
            )
        return sites

    def called_imports(self) -> Dict[str, int]:
        """Histogram of imported functions by number of call sites."""
        counts: Dict[str, int] = {}
        for site in self.call_sites():
            counts[site.callee] = counts.get(site.callee, 0) + 1
        return counts

    def iter_function_instructions(
        self, name: str
    ) -> Iterator[Tuple[int, Instruction]]:
        info = self.functions.get(name)
        if info is None:
            raise KeyError(f"{self.name} has no function {name!r}")
        for address in range(info.start, info.end):
            yield address, self.instructions[address]

    # ------------------------------------------------------------------
    # line-level helpers (coverage, reports)
    # ------------------------------------------------------------------
    def lines(self) -> Dict[Tuple[str, int], List[int]]:
        """Map each (file, line) to the instruction addresses it produced."""
        table: Dict[Tuple[str, int], List[int]] = {}
        for address, location in self.line_table.items():
            table.setdefault((location.file, location.line), []).append(address)
        return table

    def addresses_for_line(self, file: str, line: int) -> List[int]:
        return [
            address
            for address, location in self.line_table.items()
            if location.file == file and location.line == line
        ]

    # ------------------------------------------------------------------
    # stats / display
    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"BinaryImage({self.name}: {len(self.instructions)} instructions, "
            f"{len(self.symbols)} symbols, {len(self.imports)} imports, "
            f"{len(self.data_words)} data words)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.summary()
