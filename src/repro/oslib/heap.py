"""The ``malloc`` arena used by programs running in the VM.

The heap hands out word addresses inside the VM heap region.  Exhaustion
returns ``NULL`` with ``ENOMEM`` — one of the classic error paths the LFI
call-site analyzer targets (unchecked ``malloc`` in BIND and Git, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.isa import layout
from repro.oslib.errno_codes import Errno
from repro.oslib.errors import OSFault


@dataclass
class Allocation:
    address: int
    size: int
    freed: bool = False


class SimHeap:
    """A simple bump-with-free-list allocator over the VM heap region."""

    def __init__(
        self,
        base: int = layout.HEAP_BASE,
        capacity: int = layout.HEAP_SIZE,
    ) -> None:
        self.base = base
        self.capacity = capacity
        self._cursor = base
        self._allocations: Dict[int, Allocation] = {}
        self._bytes_in_use = 0

    # ------------------------------------------------------------------
    @property
    def bytes_in_use(self) -> int:
        return self._bytes_in_use

    def owns(self, address: int) -> bool:
        return self.base <= address < self.base + self.capacity

    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate *size* words; returns the address or raises ``ENOMEM``."""
        if size < 0:
            raise OSFault(Errno.EINVAL, f"malloc({size})")
        size = max(size, 1)
        if self._cursor + size > self.base + self.capacity:
            raise OSFault(Errno.ENOMEM, f"heap exhausted ({self._bytes_in_use} words in use)")
        address = self._cursor
        self._cursor += size
        self._allocations[address] = Allocation(address=address, size=size)
        self._bytes_in_use += size
        return address

    def free(self, address: int) -> None:
        if address == 0:
            return  # free(NULL) is a no-op, as in C
        allocation = self._allocations.get(address)
        if allocation is None:
            raise OSFault(Errno.EINVAL, f"free of unallocated address {address:#x}")
        if allocation.freed:
            raise OSFault(Errno.EINVAL, f"double free of {address:#x}")
        allocation.freed = True
        self._bytes_in_use -= allocation.size

    # ------------------------------------------------------------------
    # snapshot support (repro.vm.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> dict:
        return {
            "base": self.base,
            "capacity": self.capacity,
            "cursor": self._cursor,
            "allocations": {
                address: (alloc.size, alloc.freed)
                for address, alloc in self._allocations.items()
            },
            "bytes_in_use": self._bytes_in_use,
        }

    def restore_state(self, state: dict) -> None:
        self.base = state["base"]
        self.capacity = state["capacity"]
        self._cursor = state["cursor"]
        self._allocations = {
            address: Allocation(address=address, size=size, freed=freed)
            for address, (size, freed) in state["allocations"].items()
        }
        self._bytes_in_use = state["bytes_in_use"]

    def realloc(self, address: int, size: int) -> int:
        if address == 0:
            return self.malloc(size)
        allocation = self._allocations.get(address)
        if allocation is None or allocation.freed:
            raise OSFault(Errno.EINVAL, f"realloc of invalid address {address:#x}")
        if size <= allocation.size:
            return address
        new_address = self.malloc(size)
        self.free(address)
        return new_address


__all__ = ["Allocation", "SimHeap"]
