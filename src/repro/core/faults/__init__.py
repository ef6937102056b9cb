"""Structured fault classes: the taxonomy beyond (return value, errno).

The classic LFI fault — an error return plus an ``errno`` side effect at a
library call site — is one *class* of fault.  This package makes the class
dimension explicit and adds the families the simulated OS can already
almost express:

==================  =====================================================
class               semantics
==================  =====================================================
``errno``           classic error return + errno (handled inline by the
                    gate; never dispatched here)
``partial_write``   ``write``/``fwrite`` performs a *truncated* real write
                    and returns the short count
``short_read``      ``read``/``fread`` performs a truncated real read
``fd_exhaustion``   a descriptor budget counts down; once spent, every
                    ``open``/``socket`` fails with ``EMFILE``
``heap_exhaustion`` an allocation budget counts down; once spent, every
                    ``malloc`` fails with ``ENOMEM``
``clock_skew``      the simulated clock drifts forward a small delta just
                    before the call executes
``clock_jump``      the clock leaps forward a large delta (NTP step,
                    suspend/resume) before the call executes
``net_drop``        the triggered datagram silently vanishes (the sender
                    still sees a full byte count — UDP semantics)
``net_partition``   from the triggered send onward, the destination
                    address is partitioned off: every datagram to or from
                    it is dropped by a delivery hook
``net_reorder``     the triggered datagram is delivered *ahead* of the
                    datagrams already queued at its destination
``crash_point``     the world is killed at the triggered call (optionally
                    after a torn partial write); recovery code then runs
                    against the surviving fs state
==================  =====================================================

Every class is deterministic — parameters are explicit, grids are sorted,
and application depends only on simulated state — so campaigns sweep the
new classes under the exact determinism contract errno faults already have
(serial == pooled == distributed, compiled == reference engine).
"""

from repro.core.faults.apply import apply_structured_fault
from repro.core.faults.classes import (
    FAULT_CLASSES,
    UNSHAREABLE_CLASSES,
    FaultClassDef,
    class_names,
    is_structured_class,
    make_fault,
    structured_scenario,
)
from repro.core.faults.netfx import DropAllHook, PartitionHook

__all__ = [
    "FAULT_CLASSES",
    "UNSHAREABLE_CLASSES",
    "DropAllHook",
    "FaultClassDef",
    "PartitionHook",
    "apply_structured_fault",
    "class_names",
    "is_structured_class",
    "make_fault",
    "structured_scenario",
]
