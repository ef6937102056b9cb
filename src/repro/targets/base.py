"""Shared infrastructure for the compiled (mini-C) targets.

A compiled target provides mini-C source, an OS fixture (the files and
directories its workloads expect), a set of named workloads (each a sequence
of entry-point invocations, mirroring a test-suite run), and optional
post-run oracles that detect silent failures such as data loss.

Execution is forkserver-style by default: :meth:`CompiledTarget.run` opens
an execution *session* that restores a cached boot snapshot (OS fixture +
libc + resident machine, see :mod:`repro.vm.snapshot`) instead of rebuilding
them per request, and rewinds copy-on-write memory between workload steps.
``WorkloadRequest.options["snapshots"] = False`` selects the reference
fresh-build path, which the differential suite uses as the oracle — both
paths are observably identical.  The session/plan decomposition
(:meth:`open_session` / :meth:`execute_plan` / :meth:`finalize_run`) is also
what the prefix-sharing campaign scheduler
(:mod:`repro.core.controller.prefix`) drives to run a scenario group's
common prefix once and only the post-trigger suffix per fault.

Ground truth for the Table 4 accuracy experiment is embedded in the sources
as ``//@check:`` annotations on library-call lines:

* ``//@check:yes``          — the return value is checked (analyzer should say checked)
* ``//@check:no``           — the return value is not checked
* ``//@check:interproc``    — checked, but only inside a helper function, so
  the intra-procedural analyzer is *expected* to misreport it (a false
  positive, like the BIND ``open`` site in the paper's Table 4)
"""

from __future__ import annotations

import os as _os_module
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.frozen import FrozenMap
from repro.core.controller.monitor import (
    Outcome,
    OutcomeKind,
    RunResult,
    classify_exit_status,
)
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.profiler.cache import cached_boot_template, libc_spec_fingerprint
from repro.coverage.tracker import CoverageTracker
from repro.isa.binary import BinaryImage
from repro.minicc import compile_source
from repro.oslib.libc import SimLibc
from repro.oslib.os_model import SimOS
from repro.vm.machine import Machine, resolve_engine
from repro.vm.snapshot import BootTemplate


def default_snapshots() -> bool:
    """Process-wide default for the snapshot execution path.

    ``REPRO_SNAPSHOTS=0`` (or ``false``/``no``) selects the fresh-build
    reference path everywhere an explicit request option does not override
    it — the CI oracle leg runs the whole suite this way to keep the slow
    differential paths exercised.
    """
    return _os_module.environ.get("REPRO_SNAPSHOTS", "1").lower() not in (
        "0",
        "false",
        "no",
    )


# ----------------------------------------------------------------------
# ground-truth annotations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroundTruthEntry:
    """One annotated library call site in a target's source."""

    function: str
    line: int
    checked: bool
    interprocedural: bool = False


_ANNOTATION_RE = re.compile(r"//@check:(?P<verdict>yes|no|interproc)\b")
_CALL_RE = re.compile(r"\b(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(")


def extract_ground_truth(source: str, functions: Optional[Sequence[str]] = None
                         ) -> List[GroundTruthEntry]:
    """Parse ``//@check:`` annotations out of mini-C source text."""
    wanted = set(functions) if functions is not None else None
    entries: List[GroundTruthEntry] = []
    for line_number, line in enumerate(source.splitlines(), start=1):
        annotation = _ANNOTATION_RE.search(line)
        if not annotation:
            continue
        verdict = annotation.group("verdict")
        code = line[: annotation.start()]
        called: Optional[str] = None
        for match in _CALL_RE.finditer(code):
            name = match.group("name")
            if name in ("if", "while", "for", "return"):
                continue
            called = name
            if wanted is None or name in wanted:
                break
        if called is None:
            continue
        if wanted is not None and called not in wanted:
            continue
        entries.append(
            GroundTruthEntry(
                function=called,
                line=line_number,
                checked=verdict in ("yes", "interproc"),
                interprocedural=verdict == "interproc",
            )
        )
    return entries


# ----------------------------------------------------------------------
# workload plans and known bugs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadStep:
    """One entry-point invocation within a workload."""

    entry: str = "main"
    args: Tuple[int, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class KnownBug:
    """Ground-truth description of a planted bug (for the Table 1 benchmark)."""

    identifier: str
    system: str
    library_function: str
    kind: OutcomeKind
    description: str


# ----------------------------------------------------------------------
# execution sessions (fresh-build or snapshot-backed)
# ----------------------------------------------------------------------
class ExecutionSession:
    """One workload request's execution context.

    Snapshot-backed sessions hold an acquired
    :class:`~repro.vm.snapshot.BootTemplate`: the resident machine's boot
    state is restored at session open (O(dirty words)) and its memory is
    rewound before every workload step, replicating the fresh path's
    machine-per-step semantics without rebuilding anything.  Fresh sessions
    are the reference: a new OS fixture, libc, and one machine per step.
    """

    def __init__(
        self,
        target: "CompiledTarget",
        binary: BinaryImage,
        engine: Optional[str],
        template: Optional[BootTemplate],
        publish_os: bool = True,
    ) -> None:
        self.target = target
        self.binary = binary
        self.engine = engine
        self.template = template
        #: Whether :meth:`CompiledTarget.finalize_run` publishes the OS
        #: (:meth:`published_os`) in each run's stats.
        self.publish_os = publish_os
        if template is not None:
            machine = template.restore_boot()
            self.os = machine.os
            self.libc = machine.libc
        else:
            self.os = target.make_os()
            self.libc = SimLibc(self.os)

    @property
    def snapshotted(self) -> bool:
        return self.template is not None

    def machine_for_step(self, gate, coverage) -> Machine:
        """A machine in fresh-construction state, bound to this session's OS."""
        if self.template is not None:
            return self.template.fork_step(gate, coverage)
        return Machine(
            self.binary, os=self.os, libc=self.libc, gate=gate,
            coverage=coverage, engine=self.engine,
        )

    def published_os(self):
        """The OS to hand out in run stats, for sessions that publish one.

        A :class:`~repro.oslib.os_model.LazyOSClone`: the session OS's state
        captured now as one immutable blob, its object graph hydrated on
        first access, with no reference back to the target or its boot
        template.  Every session publishes the same way — a snapshot
        session's OS is the resident template's and is rewound by the next
        request, a session shared across a scenario group serves several
        runs, and a published result must stay a value wherever it goes
        (suffix memo, pool pipe, several callers).  The fresh path's clone
        (the ``snapshots=False`` oracle) is what every other path's is held
        equal to.
        """
        return self.os.lazy_clone()

    def close(self) -> None:
        if self.template is not None:
            self.template.release()
            self.template = None


# ----------------------------------------------------------------------
# the compiled-target adapter
# ----------------------------------------------------------------------
class CompiledTarget:
    """Base class for targets written in mini-C and run inside the VM."""

    #: Subclasses set these.
    name: str = "target"
    source_file: Optional[str] = None
    known_bugs: Tuple[KnownBug, ...] = ()
    #: Functions relevant to the Table 4 accuracy experiment.
    accuracy_functions: Tuple[str, ...] = ()
    #: Compiled runs are deterministic modulo the injected fault, so the
    #: prefix-sharing campaign scheduler may group their scenarios.
    prefix_shareable: bool = True

    _binary_cache: Dict[str, BinaryImage] = {}

    # -- pieces subclasses provide -------------------------------------
    def source(self) -> str:
        raise NotImplementedError

    def make_os(self) -> SimOS:
        raise NotImplementedError

    def workload_plan(self, workload: str) -> List[WorkloadStep]:
        raise NotImplementedError

    def workloads(self) -> List[str]:
        raise NotImplementedError

    def check_oracles(self, os: SimOS) -> Optional[Outcome]:
        """Post-run oracle; return a failure outcome for silent failures."""
        return None

    # -- common implementation ------------------------------------------
    def binary(self) -> BinaryImage:
        cached = CompiledTarget._binary_cache.get(self.name)
        if cached is None:
            cached = compile_source(
                self.source(), name=self.name, source_file=self.source_file
            )
            CompiledTarget._binary_cache[self.name] = cached
        return cached

    def ground_truth(self) -> List[GroundTruthEntry]:
        functions = self.accuracy_functions or None
        return extract_ground_truth(self.source(), functions)

    def boot_scope(self, workload: str) -> Tuple[str, ...]:
        """The fixture-prefix scope that keys *workload*'s boot template.

        The boot template snapshots the machine *before* any workload step
        runs, and :meth:`make_os` takes no workload argument — so boot
        state is workload-independent and every workload of a target can
        share one template by default.  Targets whose OS fixture *does*
        vary by workload override this to return distinct scopes for
        workloads that must not share boot state (e.g. per-workload
        filesystem seeds), at which point templates split along scope
        boundaries exactly as they used to split along workload names.
        """
        return ("boot", "shared-fixture")

    def boot_template(self, workload: str, engine: Optional[str] = None) -> BootTemplate:
        """The memoized boot template for *workload*'s boot scope.

        Sessions acquire it to run (see :meth:`open_session`).  Keyed by
        :meth:`boot_scope` rather than the workload name, so e.g. the
        mini_git ``status``/``commit``/``merge``/``gc`` sweeps all restore
        from one boot+fixture capture instead of booting four machines.
        """
        engine = resolve_engine(engine)
        binary = self.binary()
        key = (self.boot_scope(workload), engine, libc_spec_fingerprint())
        return cached_boot_template(
            self,
            key,
            lambda: BootTemplate(Machine(binary, os=self.make_os(), engine=engine)),
            context=workload,
        )

    def open_session(
        self,
        workload: str,
        engine: Optional[str] = None,
        snapshots: Optional[bool] = None,
        publish_os: bool = True,
    ) -> ExecutionSession:
        """Open an execution session: snapshot-backed when possible.

        The boot template (OS fixture + libc + resident machine, boot state
        snapshotted) is memoized process-wide, keyed by (boot scope,
        engine, libc-spec fingerprint) — see :meth:`boot_scope`.  Templates are exclusive: losing the
        acquisition race — e.g. a thread-pool campaign running this target
        concurrently — falls back to the fresh-build path, which is
        observably identical.  ``snapshots=None`` defers to
        :func:`default_snapshots` (the ``REPRO_SNAPSHOTS`` environment
        default).  ``publish_os=False`` leaves the OS out of every run's
        stats (see :meth:`finalize_run`).
        """
        binary = self.binary()
        if snapshots is None:
            snapshots = default_snapshots()
        template: Optional[BootTemplate] = None
        if snapshots:
            template = self.boot_template(workload, engine)
            if not template.try_acquire():
                template = None
        try:
            return ExecutionSession(self, binary, engine, template, publish_os)
        except BaseException:
            # A failing boot restore must not leave the template locked
            # (that would silently demote every later request to the
            # fresh-build path).
            if template is not None:
                template.release()
            raise

    def execute_plan(
        self,
        session: ExecutionSession,
        plan: List[WorkloadStep],
        gate,
        coverage,
        start_index: int = 0,
        outcome: Optional[Outcome] = None,
        boundary_hook=None,
    ) -> Tuple[Outcome, int]:
        """Run *plan* (from *start_index*) inside *session*.

        ``boundary_hook(index, steps_run, outcome)`` fires before each step
        — the prefix-sharing scheduler uses it only to track the step index
        and the outcome accumulated before it, which a mid-run capture
        records beside the machine state for the members that resume there.
        """
        outcome = outcome if outcome is not None else Outcome(kind=OutcomeKind.NORMAL)
        steps_run = start_index
        for index in range(start_index, len(plan)):
            if boundary_hook is not None:
                boundary_hook(index, steps_run, outcome)
            step = plan[index]
            machine = session.machine_for_step(gate, coverage)
            status = machine.run(entry=step.entry, args=step.args)
            steps_run += 1
            step_outcome = classify_exit_status(status)
            if step_outcome.kind in (
                OutcomeKind.CRASH,
                OutcomeKind.ABORT,
                OutcomeKind.HANG,
                OutcomeKind.WORLD_CRASH,
            ):
                outcome = step_outcome
                break
            if step_outcome.kind is OutcomeKind.ERROR_EXIT and outcome.kind is OutcomeKind.NORMAL:
                # Error exits are recorded but do not stop the test suite,
                # like a failing test case in a larger suite.
                outcome = step_outcome
        if coverage is not None:
            coverage.finish_run()
        return outcome, steps_run

    def finalize_run(
        self,
        session: ExecutionSession,
        gate,
        coverage,
        outcome: Outcome,
        steps_run: int,
    ) -> RunResult:
        """Apply post-run oracles and assemble the :class:`RunResult`.

        The result is a value: the coverage tracker is frozen into it (the
        constructor freezes the gate's live log), and the OS is captured
        only when the session publishes one.
        """
        if not outcome.is_high_impact:
            oracle = self.check_oracles(session.os)
            if oracle is not None:
                outcome = oracle
        stats = {
            "steps_run": steps_run,
            "library_calls": gate.total_calls,
            "calls": FrozenMap(gate.call_counts),
        }
        if session.publish_os:
            stats["os"] = session.published_os()
        if coverage is not None:
            stats["coverage"] = coverage.freeze()
        return RunResult(outcome=outcome, log=gate.log, stats=stats)

    def run_recovery(
        self,
        session: ExecutionSession,
        request: WorkloadRequest,
        gate,
        coverage,
        outcome: Outcome,
        steps_run: int,
    ) -> Tuple[Outcome, int]:
        """Reboot-and-recover after a crash-consistency kill.

        A ``crash_point`` fault unwinds the world mid-workload
        (:class:`~repro.core.controller.monitor.OutcomeKind.WORLD_CRASH`),
        leaving the session's simulated filesystem exactly as the "power
        loss" found it — torn prefix included.  When the scenario declares a
        ``recovery_workload`` (empty string = re-run the crashed workload),
        that workload is executed against the surviving state on the *same*
        gate: the crash trigger has already fired its singleton, so recovery
        runs fault-free, exercising the target's journal/DROP-and-redo
        paths.  A clean recovery downgrades the outcome to NORMAL (the kill
        itself is injected, not a bug) and leaves silent damage for the
        post-run oracles; a recovery that itself crashes or aborts is the
        finding and becomes the outcome.
        """
        if outcome.kind is not OutcomeKind.WORLD_CRASH:
            return outcome, steps_run
        metadata = getattr(request.scenario, "metadata", None) or {}
        if "recovery_workload" not in metadata:
            return outcome, steps_run
        crash_detail = outcome.detail
        recovery = metadata.get("recovery_workload") or request.workload
        recovery_plan = self.workload_plan(recovery)
        recovered, recovery_steps = self.execute_plan(
            session, recovery_plan, gate, coverage
        )
        steps_run += recovery_steps
        if recovered.is_high_impact or recovered.kind is OutcomeKind.HANG:
            outcome = replace(
                recovered, detail=f"during recovery from [{crash_detail}]: {recovered.detail}"
            )
        else:
            outcome = Outcome(
                kind=OutcomeKind.NORMAL,
                detail=f"recovered after [{crash_detail}]",
            )
        return outcome, steps_run

    def run(self, request: WorkloadRequest) -> RunResult:
        """Execute one workload, optionally under an injection scenario."""
        plan = self.workload_plan(request.workload)
        # "compiled" (block-batched superclosures, the default) or
        # "reference" (the decode-as-you-go oracle); the differential suite
        # runs both.
        engine = request.options.get("engine")
        snapshots = request.options.get("snapshots")
        session = self.open_session(
            request.workload,
            engine=engine,
            snapshots=None if snapshots is None else bool(snapshots),
            publish_os=request.publish_os,
        )
        try:
            gate = make_gate(request.scenario, observe_only=request.observe_only,
                             run_seed=request.options.get("run_seed"))
            coverage = CoverageTracker() if request.collect_coverage else None
            outcome, steps_run = self.execute_plan(session, plan, gate, coverage)
            outcome, steps_run = self.run_recovery(
                session, request, gate, coverage, outcome, steps_run
            )
            return self.finalize_run(session, gate, coverage, outcome, steps_run)
        finally:
            session.close()


__all__ = [
    "CompiledTarget",
    "ExecutionSession",
    "GroundTruthEntry",
    "KnownBug",
    "WorkloadStep",
    "default_snapshots",
    "extract_ground_truth",
]
