"""Side-effect (errno) check analysis.

The paper's §5 notes that, besides return values, LFI verifies whether the
``errno`` side effects listed in the fault profile are checked — failing to
check particular values (the classic example being ``EINTR``, i.e. not
restarting an interrupted system call) compromises robustness.  The analysis
is "virtually identical to the one used for return values": after the call,
loads of the well-known ``errno`` location create copies, and comparisons of
those copies against literals record which errno values the program
distinguishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.analysis.cfg import DEFAULT_CFG_BUDGET, PartialCFG, build_partial_cfg
from repro.isa import layout
from repro.isa.binary import BinaryImage, CallSite
from repro.isa.instructions import Imm, Mem, Opcode, Reg
from repro.oslib.errno_codes import errno_name, errno_value


@dataclass
class ErrnoCheckResult:
    """Which errno values a call site distinguishes after the call."""

    checked_values: Set[int] = field(default_factory=set)
    reads_errno: bool = False


def analyze_errno_checks(
    binary: BinaryImage,
    call_address: int,
    cfg: Optional[PartialCFG] = None,
    max_instructions: int = DEFAULT_CFG_BUDGET,
) -> ErrnoCheckResult:
    """Find errno comparisons in the code following *call_address*."""
    if cfg is None:
        cfg = build_partial_cfg(binary, call_address + 1, max_instructions=max_instructions)
    result = ErrnoCheckResult()

    for block in cfg.blocks.values():
        errno_registers: Set[str] = set()
        pending_literal: Optional[int] = None
        for _address, instruction in block.instructions:
            opcode = instruction.opcode
            operands = instruction.operands
            if opcode is Opcode.MOV and len(operands) == 2:
                destination, source = operands
                reads = (
                    isinstance(source, Mem)
                    and source.base is None
                    and source.offset == layout.ERRNO_ADDRESS
                )
                if reads and isinstance(destination, Reg):
                    errno_registers.add(destination.name)
                    result.reads_errno = True
                elif isinstance(destination, Reg):
                    errno_registers.discard(destination.name)
                continue
            if opcode is Opcode.CMP and len(operands) == 2:
                left, right = operands
                pending_literal = None
                if (
                    isinstance(left, Reg)
                    and left.name in errno_registers
                    and isinstance(right, Imm)
                ):
                    pending_literal = right.value
                elif (
                    isinstance(left, Mem)
                    and left.base is None
                    and left.offset == layout.ERRNO_ADDRESS
                    and isinstance(right, Imm)
                ):
                    result.reads_errno = True
                    pending_literal = right.value
                continue
            if opcode.is_conditional_jump and pending_literal is not None:
                result.checked_values.add(pending_literal)
                continue
            if opcode is Opcode.CALL:
                errno_registers.clear()
                pending_literal = None
    return result


@dataclass
class ErrnoSiteReport:
    """Errno-handling verdict for one call site against a fault profile."""

    site: CallSite
    expected: Tuple[str, ...]
    checked: Tuple[str, ...]
    missing: Tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.missing


def classify_errno_handling(
    binary: BinaryImage,
    function: str,
    expected_errnos: Iterable[str],
    sites: Optional[Sequence[CallSite]] = None,
    max_instructions: int = DEFAULT_CFG_BUDGET,
) -> List[ErrnoSiteReport]:
    """Report, per call site, which profile errnos the code distinguishes."""
    expected = tuple(expected_errnos)
    expected_values = {errno_value(name) for name in expected}
    reports: List[ErrnoSiteReport] = []
    call_sites = list(sites) if sites is not None else binary.call_sites(function)
    for site in call_sites:
        checks = analyze_errno_checks(binary, site.address, max_instructions=max_instructions)
        checked_expected = {value for value in checks.checked_values if value in expected_values}
        missing = tuple(
            errno_name(value) for value in sorted(expected_values - checked_expected)
        )
        reports.append(
            ErrnoSiteReport(
                site=site,
                expected=expected,
                checked=tuple(errno_name(value) for value in sorted(checked_expected)),
                missing=missing,
            )
        )
    return reports


__all__ = [
    "ErrnoCheckResult",
    "ErrnoSiteReport",
    "analyze_errno_checks",
    "classify_errno_handling",
]
