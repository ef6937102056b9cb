"""Applying structured faults at the gate.

One entry point, :func:`apply_structured_fault`: the library-call gate
calls it when the injection decision carries a non-errno fault class.  It
receives the same machinery the gate has (the pass-through thunk, the VM's
apply-fault callback, the call context) and produces the faulted
:class:`~repro.oslib.libc.LibcResult`, or unwinds the world for
``crash_point``.  The gate is the only place any fault is applied: a
prefix-group member resumed from a mid-run capture re-executes the
intercepted call through its own gate
(:mod:`repro.core.controller.prefix`), so resumed and straight-line runs
take this same path.  Application depends only on simulated state, so
both are bit-identical — the property the differential tests pin.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core.faults.netfx import PartitionHook
from repro.core.injection.context import CallContext
from repro.core.injection.faults import FaultSpec
from repro.oslib.errors import WorldCrash
from repro.oslib.libc import LibcResult

#: Functions a partial-I/O fault can truncate: the byte-count calls
#: (``write``/``read``) and the stdio item-count calls (``fwrite``/``fread``).
#: The VM convention always carries the count at index 2 (``(fd, buf,
#: count)`` / ``(buf, size, count, handle)``); the Python facade abbreviates
#: ``write``/``read`` to ``(fd, count)``, so the count extraction below is
#: shape-aware.
_PARTIAL_CAPABLE = frozenset({"write", "read", "fwrite", "fread"})

#: Ramp classes deliver a plain errno fault once the budget is spent.
_RAMP_CLASSES = frozenset({"fd_exhaustion", "heap_exhaustion"})

_CLOCK_CLASSES = frozenset({"clock_skew", "clock_jump"})


def _clamped_count(name: str, args: Tuple[Any, ...], fault: FaultSpec) -> int:
    """The short count a partial-I/O fault leaves of the requested count."""
    if name not in _PARTIAL_CAPABLE:
        raise ValueError(f"partial I/O fault cannot target {name!r}")
    if len(args) > 2:
        requested = int(args[2])
    elif name in ("write", "read") and len(args) == 2:
        requested = int(args[1])  # facade shape: (fd, count)
    else:
        requested = 0
    if requested <= 0:
        return 0
    fraction = float(fault.param("fraction", 0.5))
    clamped = int(requested * fraction)
    return min(max(clamped, 0), requested - 1)


def _clamped_args(args: Tuple[Any, ...], clamped: int) -> Tuple[Any, ...]:
    new_args = list(args)
    new_args[2] = clamped
    return tuple(new_args)


def _partial_result(
    fault: FaultSpec,
    name: str,
    args: Tuple[Any, ...],
    machine: Optional[Any],
    partial_io: Optional[Callable[[int], LibcResult]],
) -> LibcResult:
    clamped = _clamped_count(name, args, fault)
    if machine is not None:
        return machine.libc.call(name, _clamped_args(args, clamped), machine.memory)
    if partial_io is not None:
        return partial_io(clamped)
    raise ValueError(
        f"partial I/O fault on {name!r} needs a 'machine' or 'partial_io' call context"
    )


def _errno_result(
    fault: FaultSpec,
    apply_fault: Optional[Callable[[int, Optional[int]], LibcResult]],
) -> LibcResult:
    if apply_fault is not None:
        result = apply_fault(fault.return_value, fault.errno)
    else:
        result = LibcResult(value=fault.return_value, errno=fault.errno, injected=True)
    result.injected = True
    return result


def apply_structured_fault(
    fault: FaultSpec,
    name: str,
    args: Tuple[Any, ...],
    invoke: Callable[[], LibcResult],
    apply_fault: Optional[Callable[[int, Optional[int]], LibcResult]],
    ctx: CallContext,
    log_record: Callable[[], None],
) -> LibcResult:
    """Perform one structured injection at the gate.

    ``log_record`` writes the injection record; it runs *before* the fault
    is applied so crash classes (which never return) still leave the record
    the prefix scheduler and replay tooling rely on.
    """
    klass = fault.fault_class
    os_state = ctx.os
    machine = ctx.extras.get("machine")
    partial_io = ctx.extras.get("partial_io")
    log_record()

    if klass in ("partial_write", "short_read"):
        result = _partial_result(fault, name, args, machine, partial_io)
        result.injected = True
        return result

    if klass in _RAMP_CLASSES:
        return _errno_result(fault, apply_fault)

    if klass in _CLOCK_CLASSES:
        if os_state is None:
            raise ValueError(f"{klass} fault needs an 'os' call context")
        os_state.clock.advance(float(fault.param("delta", 0.0)))
        result = invoke()
        result.injected = True
        return result

    if klass == "net_drop":
        count = int(args[2]) if len(args) > 2 else 0
        return LibcResult(value=count, errno=None, injected=True)

    if klass == "net_partition":
        if os_state is None:
            raise ValueError("net_partition fault needs an 'os' call context")
        destination = int(args[4]) if len(args) > 4 else -1
        hook = PartitionHook({destination})
        if not os_state.network.has_delivery_hook(hook):
            os_state.network.add_delivery_hook(hook)
        result = invoke()  # this very datagram already hits the partition
        result.injected = True
        return result

    if klass == "net_reorder":
        if os_state is None:
            raise ValueError("net_reorder fault needs an 'os' call context")
        destination = int(args[4]) if len(args) > 4 else -1
        result = invoke()
        os_state.network.promote_last(destination)
        result.injected = True
        return result

    if klass == "crash_point":
        torn = bool(fault.param("torn", 0))
        if torn and name in _PARTIAL_CAPABLE:
            # The power loss lands mid-write: commit a torn prefix first.
            _partial_result(fault, name, args, machine, partial_io)
        raise WorldCrash(f"crash injected at {name} (call #{ctx.call_count})", torn=torn)

    raise ValueError(f"unknown structured fault class {klass!r}")


__all__ = ["apply_structured_fault"]
