"""Forkserver-style snapshot/restore of full VM run state.

LFI campaigns run the same workload once per fault scenario, and every run
repeats an identical prefix — target boot, fixture setup, every instruction
up to the armed trigger — before the injection diverges.  This module makes
that prefix a one-time cost, the same amortization a forkserver gives a
fuzzing harness:

* :class:`MidRunCapture` captures the observable state of a run at one
  point — registers, pc, flags, call frames, step counter, trace, memory
  (as a delta over a copy-on-write checkpoint of the
  :class:`~repro.vm.memory.Memory` journal, so a restore is O(dirty
  words), not O(image)), the whole
  :class:`~repro.oslib.os_model.SimOS` (filesystem, heap, network, clock,
  environment, mutexes, streams, counters), libc errno, and — when present
  — coverage counts.  Taken at boot it is a resident machine's boot state;
  taken inside a gated library call it is a prefix group's divergence
  point.  Restores are observably identical to a fresh build (or to a run
  of exactly the captured prefix), which the differential suite
  (``tests/test_snapshot.py``) pins down.
* :class:`BootTemplate` keeps one resident machine per (target, workload)
  whose boot capture is restored per request instead of rebuilding the OS
  fixture, libc, and machine from scratch —
  :func:`repro.core.profiler.cache.cached_boot_template` memoizes these
  process-wide.
* :func:`capture_gate_state` / :func:`graft_gate_state` snapshot the
  library-call gate (counters, injection log, lazily instantiated trigger
  state) so the prefix-sharing campaign scheduler
  (:mod:`repro.core.controller.prefix`) can hand a shared prefix's
  interception state to each scenario's own gate before it re-executes the
  divergence call.

Everything here is duck-typed against the gate/runtime/coverage interfaces
rather than importing them: the VM layer stays importable without the
controller stack, and a custom gate that does not expose the standard state
is simply reported as uncapturable (``capture_gate_state`` returns ``None``)
so callers fall back to the reference rebuild path.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.vm.dispatch import Frame
from repro.vm.machine import Machine

#: Gate attributes that must exist for its state to be capturable.
_GATE_COUNTERS = (
    "total_calls",
    "intercepted_calls",
    "injected_calls",
    "observed_injections",
)


# ----------------------------------------------------------------------
# gate / injection-runtime state
# ----------------------------------------------------------------------
def capture_gate_state(gate: Any) -> Optional[Dict[str, Any]]:
    """Snapshot a library-call gate's mutable state, or ``None``.

    ``None`` means the gate (or its runtime) does not expose the standard
    interface and cannot be captured — callers must then treat the run as
    unshareable and fall back to fresh execution.

    Trigger instances are deep-copied, so the snapshot shares no mutable
    state with the live run.  The prefix scheduler captures before every
    call its probe handles; its probes hold only the deterministic trigger
    classes, whose state is immutable values and whose deep copy copies
    just the attribute dict
    (:class:`~repro.core.triggers.base.ScalarStateTrigger`), so that stays
    cheap.
    """
    if gate is None:
        return None
    call_counts = getattr(gate, "call_counts", None)
    log = getattr(gate, "log", None)
    if not isinstance(call_counts, dict) or log is None:
        return None
    if any(not hasattr(gate, name) for name in _GATE_COUNTERS):
        return None
    runtime = getattr(gate, "runtime", None)
    runtime_state: Optional[Dict[str, Any]] = None
    if runtime is not None:
        instances = getattr(runtime, "_instances", None)
        if not isinstance(instances, dict):
            return None
        runtime_state = {
            "instances": copy.deepcopy(instances),
            "trigger_evaluations": getattr(runtime, "trigger_evaluations", 0),
            "decisions": getattr(runtime, "decisions", 0),
            "injections": getattr(runtime, "injections", 0),
        }
    return {
        "call_counts": dict(call_counts),
        "counters": {name: getattr(gate, name) for name in _GATE_COUNTERS},
        # Records are immutable: the capture shares them.
        "log": {
            "records": tuple(log.records),
            "injection_count": log.injection_count,
            "passthrough_count": log.passthrough_count,
            "next_index": log._next_index,
        },
        "runtime": runtime_state,
    }


def graft_gate_state(state: Dict[str, Any], gate: Any) -> None:
    """Install a captured gate state onto *gate* (possibly a different one).

    The prefix-sharing scheduler runs a scenario group's common prefix once
    and then grafts the resulting interception state — per-function call
    counts, log contents, trigger-instance counters — onto each member
    scenario's freshly built gate, whose runtime differs from the probe's
    only in the fault it will inject.  Trigger instances are deep-copied per
    graft so members never share mutable trigger state; log records are
    immutable and shared.
    """
    gate.call_counts.clear()
    gate.call_counts.update(state["call_counts"])
    for name, value in state["counters"].items():
        setattr(gate, name, value)
    log_state = state["log"]
    log = gate.log
    log.records[:] = log_state["records"]
    log.injection_count = log_state["injection_count"]
    log.passthrough_count = log_state["passthrough_count"]
    log._next_index = log_state["next_index"]
    runtime_state = state["runtime"]
    runtime = getattr(gate, "runtime", None)
    if runtime_state is not None and runtime is not None:
        runtime._instances = copy.deepcopy(runtime_state["instances"])
        runtime.trigger_evaluations = runtime_state["trigger_evaluations"]
        runtime.decisions = runtime_state["decisions"]
        runtime.injections = runtime_state["injections"]


# ----------------------------------------------------------------------
# the capture
# ----------------------------------------------------------------------
class MidRunCapture:
    """Machine state at one point of a run, restorable repeatedly.

    A capture materializes memory as a **delta** against a base checkpoint
    of the machine's copy-on-write journal: the current value of every word
    dirtied since that checkpoint (O(dirty words), by construction of the
    journal).  Restoring rewinds to the base and replays the delta, so the
    same capture can be restored any number of times, in any order with
    other forks of the same resident machine.

    Taken right after the base checkpoint, the delta is empty and the
    capture is the machine's boot state (:class:`BootTemplate`).  Taken
    inside a gated library call — the moment a scenario's trigger agrees
    to inject — it is where the prefix-sharing scheduler resumes each
    member of the scenario's group, which re-executes that call through
    its own gate and so skips every instruction of the common prefix.
    """

    def __init__(self, machine: Machine, base_level: int = 0) -> None:
        memory = machine.memory
        self.machine = machine
        self.base_level = base_level
        self.memory_delta = memory.delta_since(base_level)
        self.mem_load_count = memory.load_count
        self.mem_store_count = memory.store_count
        self.regs: List[int] = list(machine.regs)
        self.zero_flag = machine.zero_flag
        self.sign_flag = machine.sign_flag
        self.pc = machine.pc
        self.steps = machine.steps
        self.frames: List[Tuple[str, Optional[int], int]] = [
            (frame.function, frame.call_address, frame.return_address)
            for frame in machine.frames
        ]
        self.trace: Optional[List[int]] = (
            list(machine.trace) if machine.trace is not None else None
        )
        self.local_call_counts = dict(machine._local_call_counts)
        self.os_state = machine.os.capture_state()
        self.libc_errno = machine.libc.errno
        self.libc_errno_reads = getattr(machine.libc, "errno_reads", None)
        self.libc_assert_messages = list(machine.libc.assert_messages)
        self.coverage_state = (
            machine.coverage.capture_state()
            if hasattr(machine.coverage, "capture_state")
            else None
        )

    def restore_core(self) -> Machine:
        """Put the machine core back: memory, registers, pc, flags, frames,
        step counter, trace and its gate-less call counts.

        The OS, libc, gate and coverage are left alone, so a caller can
        restore those at a coarser cadence (:meth:`BootTemplate.fork_step`
        rewinds the core before every workload step, the OS once per
        request).
        """
        machine = self.machine
        memory = machine.memory
        memory.rewind(self.base_level)
        for address, value in self.memory_delta.items():
            memory.poke(address, value)
        memory.load_count = self.mem_load_count
        memory.store_count = self.mem_store_count
        machine.regs[:] = self.regs
        machine.zero_flag = self.zero_flag
        machine.sign_flag = self.sign_flag
        machine.pc = self.pc
        machine.steps = self.steps
        machine.frames = [
            Frame(function=function, call_address=call_address, return_address=return_address)
            for function, call_address, return_address in self.frames
        ]
        machine.trace = list(self.trace) if self.trace is not None else None
        machine._local_call_counts = dict(self.local_call_counts)
        return machine

    def restore_os(self) -> None:
        """Put the OS and libc back (errno, its read counter, assertion
        messages)."""
        machine = self.machine
        machine.os.restore_state(self.os_state)
        machine.libc.errno = self.libc_errno
        if self.libc_errno_reads is not None:
            machine.libc.errno_reads = self.libc_errno_reads
        machine.libc.assert_messages[:] = list(self.libc_assert_messages)

    def restore(
        self, gate: Any, coverage: Any, gate_state: Optional[Dict[str, Any]]
    ) -> Machine:
        """Put the resident machine back at the capture point, for *gate*.

        The fork's own gate receives *gate_state* (a
        :func:`capture_gate_state` result) via :func:`graft_gate_state`; a
        fresh coverage tracker (when given) is loaded with the captured
        counts.
        """
        machine = self.restore_core()
        self.restore_os()
        if coverage is not None and self.coverage_state is not None:
            coverage.restore_state(self.coverage_state)
        if gate is not None and gate_state is not None:
            graft_gate_state(gate_state, gate)
        machine.rebind(gate=gate, coverage=coverage)
        return machine


# ----------------------------------------------------------------------
# boot templates (the forkserver residents)
# ----------------------------------------------------------------------
class BootTemplate:
    """One resident machine plus its boot capture, reused across requests.

    The template is built once per (target, workload): OS fixture, libc,
    machine construction, and instruction predecoding are all paid a single
    time, then every request restores the boot capture (O(dirty words))
    instead of rebuilding.  Templates are **not** concurrency-safe — a
    campaign thread takes the template with :meth:`try_acquire` and anyone
    who loses the race falls back to the fresh-build path, which is
    observably identical by construction.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.boot = MidRunCapture(machine, base_level=machine.memory.checkpoint())
        self.restores = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    def restore_boot(self) -> Machine:
        """Rewind OS, libc, and machine to the boot state (request start)."""
        self.restores += 1
        machine = self.boot.restore_core()
        self.boot.restore_os()
        return machine

    def fork_step(self, gate: Any, coverage: Any) -> Machine:
        """Hand out the resident machine for one workload step.

        Memory and the machine core rewind to boot (fresh-machine
        semantics: each workload step starts from a pristine data segment
        and stack, exactly like constructing a new :class:`Machine`), while
        OS/libc state carries across steps as it does in a real test-suite
        process.
        """
        machine = self.boot.restore_core()
        machine.rebind(gate=gate, coverage=coverage)
        return machine


__all__ = [
    "BootTemplate",
    "MidRunCapture",
    "capture_gate_state",
    "graft_gate_state",
]
