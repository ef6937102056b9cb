"""Outcome monitoring: did the program terminate normally, crash, or abort?

The LFI controller "monitors [the program's] behavior to determine whether
it terminates normally or with an error exit code" (§2).  Two kinds of
programs exist in the reproduction — compiled binaries running in the VM and
Python-level simulated servers — and both funnel into the same
:class:`Outcome` type so campaigns and reports are uniform.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.common.frozen import FrozenMap
from repro.core.injection.log import FrozenInjectionLog, InjectionLog
from repro.oslib.errors import MemoryFault, MutexAbort, OSFault, SimExit, WorldCrash
from repro.vm.outcome import ExitKind, ExitStatus


class OutcomeKind(enum.Enum):
    NORMAL = "normal"
    ERROR_EXIT = "error-exit"
    CRASH = "crash"        # segmentation fault or unhandled exception
    ABORT = "abort"        # assertion failure / abort() / mutex abort
    HANG = "hang"          # exceeded its step or time budget
    DATA_LOSS = "data-loss"  # silent corruption detected by a workload oracle
    WORLD_CRASH = "world-crash"  # the world was killed mid-run (crash fault)

    @property
    def is_failure(self) -> bool:
        return self is not OutcomeKind.NORMAL

    @property
    def is_high_impact(self) -> bool:
        # WORLD_CRASH is deliberately excluded: the interesting question
        # after a crash-consistency kill is whether the *oracles* still hold
        # once recovery has run, so oracle checks must not be skipped.
        return self in (OutcomeKind.CRASH, OutcomeKind.ABORT, OutcomeKind.DATA_LOSS)


@dataclass(frozen=True)
class Outcome:
    """Classification of one program run (immutable)."""

    kind: OutcomeKind
    detail: str = ""
    exit_code: int = 0
    location: str = ""

    def describe(self) -> str:
        text = self.kind.value
        if self.exit_code:
            text += f" (exit {self.exit_code})"
        if self.location:
            text += f" at {self.location}"
        if self.detail:
            text += f": {self.detail}"
        return text

    @property
    def is_failure(self) -> bool:
        return self.kind.is_failure

    @property
    def is_high_impact(self) -> bool:
        return self.kind.is_high_impact


#: What :attr:`RunResult.nbytes` charges, in bytes: a result's own objects
#: (result, outcome, log, stats map and call-count map), one log record,
#: one stack frame of a record, and one stats or call-count entry.
#: Measured with ``tracemalloc`` on CPython 3.11.  Members that replicate
#: a probe share its result, so a memo holding several of them holds less
#: than it is charged: the budget stays an upper bound.
RESULT_BYTES = 500
RECORD_BYTES = 300
FRAME_BYTES = 160
ENTRY_BYTES = 56


@dataclass(frozen=True)
class RunResult:
    """Everything a campaign records about one workload run: a value.

    The outcome, the log (a :class:`FrozenInjectionLog`) and the stats (a
    :class:`FrozenMap`) are immutable, so the suffix memo, a pool's result
    pipe, a replicated group member and the caller can all hold the same
    result without copying it.  Constructing a result freezes what it is
    given: a live :class:`InjectionLog` and a plain ``dict`` of stats.

    ``stats["os"]`` holds the run's published post-run OS — a
    :class:`~repro.oslib.os_model.LazyOSClone`, one immutable blob of the
    OS state that hydrates on first attribute access — but only when the
    run was asked to publish it (``WorkloadRequest.publish_os``, on for
    :class:`~repro.core.controller.campaign.TestCampaign` and direct
    ``target.run`` callers).  Explorations, and so fabric leases, ask for
    none.  The hydrated OS is shared read-only by every holder of the
    result; ``stats["os"].clone()`` is a private copy to mutate.
    """

    outcome: Outcome
    log: Optional[FrozenInjectionLog] = None
    stats: FrozenMap = field(default_factory=FrozenMap)

    def __post_init__(self) -> None:
        if isinstance(self.log, InjectionLog):
            object.__setattr__(self, "log", self.log.freeze())
        if not isinstance(self.stats, FrozenMap):
            object.__setattr__(self, "stats", FrozenMap(self.stats))

    @property
    def injections(self) -> int:
        return self.log.injection_count if self.log is not None else 0

    @property
    def nbytes(self) -> int:
        """A deterministic estimate of the memory this result holds.

        Computed from the value's shape — records, stack frames, stats
        and call-count entries, string lengths, and the ``nbytes`` of a
        stats value that has one (a published OS blob, frozen coverage) —
        never by serializing it.  The suffix memo charges it against its
        byte budget.
        """
        outcome = self.outcome
        size = RESULT_BYTES + len(outcome.detail) + len(outcome.location)
        if self.log is not None:
            for record in self.log.records:
                size += RECORD_BYTES + FRAME_BYTES * len(record.stack)
        for value in self.stats.values():
            nbytes = getattr(value, "nbytes", None)
            if isinstance(nbytes, int):
                size += nbytes
            elif isinstance(value, Mapping):
                size += ENTRY_BYTES * len(value)
            size += ENTRY_BYTES
        return size


# ----------------------------------------------------------------------
# classification helpers
# ----------------------------------------------------------------------
def classify_exit_status(status: ExitStatus) -> Outcome:
    """Map a VM exit status to an outcome."""
    mapping = {
        ExitKind.NORMAL: OutcomeKind.NORMAL,
        ExitKind.ERROR_EXIT: OutcomeKind.ERROR_EXIT,
        ExitKind.SEGFAULT: OutcomeKind.CRASH,
        ExitKind.ABORT: OutcomeKind.ABORT,
        ExitKind.MAX_STEPS: OutcomeKind.HANG,
        ExitKind.VM_ERROR: OutcomeKind.CRASH,
        ExitKind.WORLD_CRASH: OutcomeKind.WORLD_CRASH,
    }
    return Outcome(
        kind=mapping[status.kind],
        detail=status.reason,
        exit_code=status.code,
        location=status.source,
    )


def classify_exception(error: BaseException) -> Outcome:
    """Map an exception escaping a Python-level target to an outcome."""
    if isinstance(error, MemoryFault):
        return Outcome(kind=OutcomeKind.CRASH, detail=str(error), exit_code=139)
    if isinstance(error, MutexAbort):
        return Outcome(kind=OutcomeKind.ABORT, detail=str(error), exit_code=134)
    if isinstance(error, SimExit):
        if error.aborted:
            return Outcome(kind=OutcomeKind.ABORT, detail=error.reason, exit_code=error.code)
        kind = OutcomeKind.NORMAL if error.code == 0 else OutcomeKind.ERROR_EXIT
        return Outcome(kind=kind, detail=error.reason, exit_code=error.code)
    if isinstance(error, WorldCrash):
        return Outcome(kind=OutcomeKind.WORLD_CRASH, detail=str(error), exit_code=137)
    if isinstance(error, OSFault):
        return Outcome(kind=OutcomeKind.ERROR_EXIT, detail=str(error), exit_code=70)
    # Any other unhandled exception is the Python analog of a crash.
    return Outcome(
        kind=OutcomeKind.CRASH,
        detail=f"{type(error).__name__}: {error}",
        exit_code=139,
    )


def run_python_workload(workload) -> Outcome:
    """Run a Python callable and classify the way it terminates.

    The callable may return an :class:`Outcome` (when the workload applies
    its own oracle, e.g. detecting silent data loss), an integer exit code,
    or ``None`` for a normal exit.
    """
    try:
        result = workload()
    except BaseException as error:  # noqa: BLE001 - we classify everything
        return classify_exception(error)
    if isinstance(result, Outcome):
        return result
    if isinstance(result, int) and result != 0:
        return Outcome(kind=OutcomeKind.ERROR_EXIT, exit_code=result)
    return Outcome(kind=OutcomeKind.NORMAL)


__all__ = [
    "Outcome",
    "OutcomeKind",
    "RunResult",
    "classify_exception",
    "classify_exit_status",
    "run_python_workload",
]
