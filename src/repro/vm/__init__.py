"""Virtual machine that executes synthetic binaries.

The VM plays the role of the hardware + dynamic loader in the paper's
setting: it runs target programs compiled to the synthetic ISA, routes every
``call @libfunc`` through the fault-injection gate (the LD_PRELOAD shim
analog), keeps the call stack that call-stack triggers inspect, mirrors
``errno`` into program-visible memory, and turns invalid memory accesses,
aborts and explicit exits into the process outcomes that the LFI controller
monitors (normal exit, crash, abort).

Execution engines: ``Machine(..., engine="compiled")`` (the default) runs a
program predecoded by :mod:`repro.vm.dispatch` into per-instruction
closures and fused-block superclosures, cached on the image so campaigns
build them once per binary and process (the children of a process pool
running group batches bind superclosure code their parent generated);
``engine="reference"`` is the original interpreter kept as a behavioural
oracle for differential testing.

Snapshot/restore: :mod:`repro.vm.snapshot` adds forkserver-style execution
on top — :class:`MidRunCapture` captures run state at one point
(registers, pc, flags, frames, copy-on-write memory, OS, libc, coverage)
and restores it in O(dirty words), and :class:`BootTemplate` keeps a
resident machine whose boot capture replaces per-request target rebuilds.
"""

from repro.vm.dispatch import (
    RegisterFile,
    compile_program,
    compiled_blocks,
    compiled_program,
)
from repro.vm.machine import Frame, Machine, VMError, resolve_engine
from repro.vm.memory import Memory
from repro.vm.outcome import ExitKind, ExitStatus
from repro.vm.snapshot import (
    BootTemplate,
    MidRunCapture,
    capture_gate_state,
    graft_gate_state,
)

__all__ = [
    "BootTemplate",
    "ExitKind",
    "ExitStatus",
    "Frame",
    "Machine",
    "Memory",
    "MidRunCapture",
    "RegisterFile",
    "VMError",
    "capture_gate_state",
    "compile_program",
    "compiled_blocks",
    "compiled_program",
    "graft_gate_state",
    "resolve_engine",
]
