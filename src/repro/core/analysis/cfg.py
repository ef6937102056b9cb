"""Partial control-flow graph construction.

For each call site, the analyzer builds a CFG of the instructions that
*follow* the call — the paper found 100 post-call instructions to be enough
to see how the return value and side effects are handled.  Indirect branches
would make the CFG inaccurate; the synthetic ISA has none (the paper reports
they are 0.13% of branches in real software and ignores them).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.binary import BinaryImage
from repro.isa.instructions import Instruction, Opcode

#: Default post-call instruction budget (the paper's empirical value).
DEFAULT_CFG_BUDGET = 100


@dataclass
class BasicBlock:
    """A straight-line run of instructions ending at a control transfer."""

    start: int
    instructions: List[Tuple[int, Instruction]] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        return self.instructions[-1][0] + 1 if self.instructions else self.start

    @property
    def terminator(self) -> Optional[Instruction]:
        return self.instructions[-1][1] if self.instructions else None


@dataclass
class PartialCFG:
    """A partial CFG rooted at the instruction following a call site."""

    entry: int
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    instruction_count: int = 0
    truncated: bool = False

    def block_at(self, start: int) -> Optional[BasicBlock]:
        return self.blocks.get(start)

    def successors(self, start: int) -> List[BasicBlock]:
        block = self.blocks.get(start)
        if block is None:
            return []
        return [self.blocks[s] for s in block.successors if s in self.blocks]

    def predecessors(self, start: int) -> List[BasicBlock]:
        return [
            block
            for block in self.blocks.values()
            if start in block.successors
        ]

    def __len__(self) -> int:
        return len(self.blocks)


def _explore_addresses(
    binary: BinaryImage, start: int, budget: int
) -> Tuple[Set[int], Set[int], bool]:
    """BFS from *start*; returns (visited addresses, jump-target leaders, truncated)."""
    visited: Set[int] = set()
    leaders: Set[int] = {start}
    queue = deque([start])
    truncated = False
    while queue:
        address = queue.popleft()
        if address in visited or not binary.has_address(address):
            continue
        if len(visited) >= budget:
            truncated = True
            break
        visited.add(address)
        instruction = binary.instructions[address]
        opcode = instruction.opcode

        if opcode in (Opcode.RET, Opcode.HALT):
            continue
        if opcode is Opcode.JMP:
            target = instruction.jump_target()
            if target is not None and target.address is not None:
                leaders.add(target.address)
                queue.append(target.address)
            continue
        if opcode.is_conditional_jump:
            target = instruction.jump_target()
            if target is not None and target.address is not None:
                leaders.add(target.address)
                queue.append(target.address)
            leaders.add(address + 1)
            queue.append(address + 1)
            continue
        queue.append(address + 1)
    return visited, leaders, truncated


def build_partial_cfg(
    binary: BinaryImage, start_address: int, max_instructions: int = DEFAULT_CFG_BUDGET
) -> PartialCFG:
    """Build the partial CFG starting at *start_address* (typically call+1)."""
    visited, leaders, truncated = _explore_addresses(binary, start_address, max_instructions)
    cfg = PartialCFG(entry=start_address, truncated=truncated)
    if not visited:
        return cfg

    ordered = sorted(visited)
    leaders = {address for address in leaders if address in visited}
    # Every instruction after a terminator also starts a block.
    for address in ordered:
        instruction = binary.instructions[address]
        if instruction.opcode.terminates_block and (address + 1) in visited:
            leaders.add(address + 1)

    current: Optional[BasicBlock] = None
    previous_address: Optional[int] = None
    for address in ordered:
        starts_new_block = (
            current is None
            or address in leaders
            or (previous_address is not None and address != previous_address + 1)
        )
        if starts_new_block:
            current = BasicBlock(start=address)
            cfg.blocks[address] = current
        assert current is not None
        current.instructions.append((address, binary.instructions[address]))
        previous_address = address

    # Wire successors.
    for block in cfg.blocks.values():
        terminator = block.terminator
        if terminator is None:
            continue
        opcode = terminator.opcode
        last_address = block.instructions[-1][0]
        if opcode in (Opcode.RET, Opcode.HALT):
            continue
        if opcode is Opcode.JMP:
            target = terminator.jump_target()
            if target is not None and target.address in cfg.blocks:
                block.successors.append(target.address)
            continue
        if opcode.is_conditional_jump:
            target = terminator.jump_target()
            if target is not None and target.address in cfg.blocks:
                block.successors.append(target.address)
            if last_address + 1 in cfg.blocks:
                block.successors.append(last_address + 1)
            continue
        if last_address + 1 in cfg.blocks:
            block.successors.append(last_address + 1)

    cfg.instruction_count = len(visited)
    return cfg


__all__ = ["BasicBlock", "DEFAULT_CFG_BUDGET", "PartialCFG", "build_partial_cfg"]
