"""Instruction/line coverage tracker for VM executions.

``record`` is on the VM's per-step hot path (every executed instruction
calls it), so the tracker keeps hit counts in a flat array indexed by
instruction address — one bounds check plus one increment per step — and
only materializes the address *set* lazily when a query asks for it.
Addresses the dense array should not cover (negative, or far beyond any
code segment) fall back to a sparse dict.

A finished run publishes :meth:`CoverageTracker.freeze`, a
:class:`CoverageCounts` value with the same queries, so a run's result
stays immutable wherever it is shared (suffix memo, replicated members).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.common.frozen import FrozenMap
from repro.isa.binary import BinaryImage

Line = Tuple[str, int]

#: Implicit growth cap for the dense count array: code addresses are
#: instruction indices (tens of thousands at most), so anything beyond this
#: is a stray address that must not cost megabytes of zeros.  ``reserve``
#: may still size the array past this explicitly.
_DENSE_GROWTH_LIMIT = 1 << 16


class _CoverageQueries:
    """Coverage queries over ``_counts`` (dense), ``_extra`` (sparse) and
    ``runs``, shared by the live tracker and its frozen counts."""

    _counts: Sequence[int]
    _extra: Mapping[int, int]
    runs: int

    # ------------------------------------------------------------------
    # queries (sets materialized lazily from the count array)
    # ------------------------------------------------------------------
    def _items(self) -> Iterator[Tuple[int, int]]:
        """Iterate (address, hit count) pairs for every covered address."""
        for address, count in enumerate(self._counts):
            if count:
                yield address, count
        yield from self._extra.items()

    @property
    def covered_addresses(self) -> Set[int]:
        return {address for address, _ in self._items()}

    def hit_count(self, address: int) -> int:
        if 0 <= address < len(self._counts):
            return self._counts[address]
        return self._extra.get(address, 0)

    def covered_lines(self, binary: BinaryImage) -> Set[Line]:
        lines: Set[Line] = set()
        for address, _ in self._items():
            location = binary.source_of(address)
            if location is not None:
                lines.add((location.file, location.line))
        return lines

    def instruction_coverage(self, binary: BinaryImage) -> float:
        if not len(binary):
            return 0.0
        covered = sum(1 for address, _ in self._items() if binary.has_address(address))
        return covered / len(binary)

    def lines_covered_of(self, binary: BinaryImage, lines: Iterable[Line]) -> Set[Line]:
        wanted = set(lines)
        return self.covered_lines(binary) & wanted

    def capture_state(self) -> dict:
        return {
            "counts": list(self._counts),
            "extra": dict(self._extra),
            "runs": self.runs,
        }


@dataclass(frozen=True)
class CoverageCounts(_CoverageQueries):
    """The coverage of finished runs: :class:`CoverageTracker`'s queries
    over an immutable copy of its counts."""

    _counts: Tuple[int, ...] = ()
    _extra: FrozenMap = field(default_factory=FrozenMap)
    runs: int = 0

    @property
    def nbytes(self) -> int:
        """Bytes the counts hold: one pointer per dense slot, two per
        sparse entry."""
        return 8 * len(self._counts) + 16 * len(self._extra)


class CoverageTracker(_CoverageQueries):
    """Records executed instruction addresses; aggregates across runs."""

    def __init__(self) -> None:
        #: Hit counts indexed by address; grown on demand.
        self._counts: List[int] = []
        #: Counts for addresses the array cannot index (negatives).
        self._extra: Dict[int, int] = {}
        self.runs = 0

    # ------------------------------------------------------------------
    # recording (called by the VM on every instruction)
    # ------------------------------------------------------------------
    def record(self, address: int) -> None:
        counts = self._counts
        if 0 <= address < len(counts):
            counts[address] += 1
        else:
            self._add(address, 1)

    def record_block(self, start: int, length: int) -> None:
        """Record *length* consecutive addresses starting at *start*.

        The block-batched engine calls this once per superclosure instead
        of :meth:`record` once per instruction; after the VM's ``reserve``
        the whole block lands in the dense array with no per-address bounds
        checks.  Equivalent to ``for a in range(start, start+length):
        record(a)``.
        """
        counts = self._counts
        if 0 <= start and start + length <= len(counts):
            for address in range(start, start + length):
                counts[address] += 1
        else:
            for address in range(start, start + length):
                self._add(address, 1)

    def reserve(self, size: int) -> None:
        """Pre-size the count array (the VM calls this with the image size)."""
        counts = self._counts
        if size > len(counts):
            counts.extend([0] * (size - len(counts)))
            if self._extra:
                # Keep the invariant that an address lives in exactly one
                # store: migrate sparse entries the array now covers.
                for address in [a for a in self._extra if 0 <= a < size]:
                    counts[address] += self._extra.pop(address)

    def _add(self, address: int, count: int) -> None:
        counts = self._counts
        if 0 <= address < len(counts):
            counts[address] += count
        elif 0 <= address < _DENSE_GROWTH_LIMIT:
            counts.extend([0] * (address + 1 - len(counts)))
            counts[address] += count
        else:
            self._extra[address] = self._extra.get(address, 0) + count

    def unrecord(self, address: int) -> None:
        """Undo one :meth:`record` of *address* (never below zero).

        The prefix-sharing scheduler uses this to roll a restored capture
        back to the state before the instruction it was taken inside, so
        re-executing that instruction does not double-count it.
        """
        counts = self._counts
        if 0 <= address < len(counts):
            if counts[address] > 0:
                counts[address] -= 1
        elif address in self._extra:
            remaining = self._extra[address] - 1
            if remaining > 0:
                self._extra[address] = remaining
            else:
                del self._extra[address]

    def finish_run(self) -> None:
        self.runs += 1

    def merge(self, other: _CoverageQueries) -> None:
        for address, count in other._items():
            self._add(address, count)
        self.runs += other.runs

    def freeze(self) -> CoverageCounts:
        """These counts as an immutable :class:`CoverageCounts` value."""
        return CoverageCounts(tuple(self._counts), FrozenMap(self._extra), self.runs)

    def clear(self) -> None:
        self._counts = []
        self._extra.clear()
        self.runs = 0

    # ------------------------------------------------------------------
    # snapshot support (repro.vm.snapshot)
    # ------------------------------------------------------------------
    def restore_state(self, state: dict) -> None:
        self._counts = list(state["counts"])
        self._extra = dict(state["extra"])
        self.runs = state["runs"]


__all__ = ["CoverageCounts", "CoverageTracker", "Line"]
