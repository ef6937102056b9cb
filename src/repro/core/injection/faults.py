"""Fault specification: what gets injected when a trigger fires.

A fault is an error return value plus its side effects.  In this
reproduction the side effects are the ``errno`` value (as in the paper's
examples) and an optional free-form dictionary for extensions.

Since the structured fault-class layer (``repro.core.faults``) the spec also
names *which class* of fault it is.  The classic (return value, errno) fault
is the ``"errno"`` class; partial I/O, resource-exhaustion ramps, clock
perturbations, network partitions, and crash points each carry their own
class name plus a deterministic, hashable parameter tuple.  The gate keeps
handling ``"errno"`` faults inline and dispatches every other class to
:func:`repro.core.faults.apply_structured_fault`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.oslib.errno_codes import errno_name, errno_value

#: Class name of the classic (return value, errno) fault.
ERRNO_CLASS = "errno"


@dataclass(frozen=True)
class FaultSpec:
    """The injected error: return value + errno side effect.

    ``fault_class``/``params`` participate in equality and hashing so two
    specs of different classes (or the same class with different knobs)
    never compare equal — prefix-group sibling matching and dedup rely on
    this.
    """

    return_value: int
    errno: Optional[int] = None
    side_effects: Dict[str, int] = field(default_factory=dict, hash=False, compare=False)
    #: Fault-class name (see ``repro.core.faults.FAULT_CLASSES``).
    fault_class: str = ERRNO_CLASS
    #: Class-specific knobs as a sorted, hashable ``((key, value), ...)``.
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def errno_name(self) -> str:
        return errno_name(self.errno) if self.errno is not None else ""

    @property
    def is_errno_class(self) -> bool:
        return self.fault_class == ERRNO_CLASS

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def describe(self) -> str:
        if self.is_errno_class:
            if self.errno is None:
                return f"return {self.return_value}"
            return f"return {self.return_value}, errno={self.errno_name}"
        knobs = ", ".join(f"{key}={value}" for key, value in self.params)
        return f"{self.fault_class}({knobs})" if knobs else self.fault_class

    @classmethod
    def from_strings(cls, return_value: str, errno: Optional[str]) -> "FaultSpec":
        """Build a fault from the scenario language's string attributes."""
        value = int(str(return_value), 0)
        errno_int: Optional[int] = None
        if errno is not None and errno.strip() and errno.strip().lower() not in ("unused", "none"):
            errno_int = errno_value(errno)
        return cls(return_value=value, errno=errno_int)

    @classmethod
    def structured(
        cls,
        fault_class: str,
        params: Optional[Dict[str, Any]] = None,
        return_value: int = 0,
        errno: Optional[int] = None,
    ) -> "FaultSpec":
        """Build a structured (non-errno-class) fault.

        Parameters are sorted by key so equal dictionaries always produce
        equal (and equally hashed) specs regardless of insertion order.
        """
        items = tuple(sorted((params or {}).items()))
        return cls(
            return_value=return_value,
            errno=errno,
            fault_class=fault_class,
            params=items,
        )


__all__ = ["ERRNO_CLASS", "FaultSpec"]
