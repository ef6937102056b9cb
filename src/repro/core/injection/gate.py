"""The library-call gate: the LD_PRELOAD shim of the reproduction (§6).

Every library call made by a program under test — whether it runs inside the
VM (compiled mini-C targets) or is a Python-level simulated server calling
through :class:`~repro.oslib.facade.LibcFacade` — flows through one
:class:`LibraryCallGate`.  The gate:

1. counts the call (per function and globally),
2. builds the :class:`~repro.core.injection.context.CallContext` triggers
   inspect (arguments, lazy stack, program state reader, node name),
3. asks the :class:`~repro.core.injection.runtime.InjectionRuntime` whether
   to inject, and
4. either applies the fault (return value + errno side effect) without ever
   invoking the real function, or passes the call through — exactly the two
   paths of the generated stub shown in §6.

``observe_only`` reproduces the §7.4 methodology: triggers are evaluated but
all calls pass through, isolating the trigger mechanism's overhead.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.common.frames import StackFrame
from repro.core.injection.context import CallContext
from repro.core.injection.faults import ERRNO_CLASS
from repro.core.injection.log import InjectionLog
from repro.core.injection.runtime import InjectionRuntime
from repro.oslib.libc import LibcResult


def _python_stack_provider(skip_files: FrozenSet[str]) -> Callable[[], List[StackFrame]]:
    """Build a provider that snapshots the current Python call stack.

    Used for the Python-level simulated servers, where the "program" is
    Python code: frames from the gate/facade machinery itself are skipped so
    triggers see the application's stack, mirroring how a real backtrace
    starts at the intercepted call site.  Internal frames are identified by
    the *full path* of their source file, not the basename — an application
    module that happens to be called ``runtime.py`` or ``context.py`` must
    stay visible to stack triggers.  The provider walks raw frame objects
    (no source-line loading), keeping trigger evaluation cheap — the §7.4
    experiments measure exactly this cost.

    The walk stops at the workload boundary
    (:func:`repro.core.controller.monitor.run_python_workload`): frames
    above it belong to the campaign harness, and differ between execution
    backends and scheduling paths (serial, pools, prefix sharing) — a
    program's recorded backtrace must not depend on which of those drove
    the run.
    """

    def provider(max_depth: int = 16) -> List[StackFrame]:
        frames: List[StackFrame] = []
        frame = sys._getframe(1)
        while frame is not None and len(frames) < max_depth:
            filename = frame.f_code.co_filename
            normalized = _normalized_path(filename)
            if (
                frame.f_code.co_name == "run_python_workload"
                and normalized == _WORKLOAD_BOUNDARY_FILE
            ):
                break
            if normalized not in skip_files:
                basename = os.path.basename(filename)
                module = basename[:-3] if basename.endswith(".py") else basename
                frames.append(
                    StackFrame(
                        module=module,
                        function=frame.f_code.co_name,
                        file=basename,
                        line=frame.f_lineno,
                    )
                )
            frame = frame.f_back
        return frames

    return provider


#: Normalized-path memo so per-frame filtering stays a dict lookup.
_PATH_CACHE: Dict[str, str] = {}


def _normalized_path(filename: str) -> str:
    normalized = _PATH_CACHE.get(filename)
    if normalized is None:
        normalized = os.path.normcase(os.path.normpath(os.path.abspath(filename)))
        _PATH_CACHE[filename] = normalized
    return normalized


def _gate_internal_files() -> FrozenSet[str]:
    """Source files of the interception machinery itself (by package path)."""
    injection_dir = os.path.dirname(os.path.abspath(__file__))
    files = {
        os.path.join(injection_dir, name + ".py")
        for name in ("gate", "runtime", "context")
    }
    files.add(
        os.path.join(os.path.dirname(os.path.dirname(injection_dir)), "oslib", "facade.py")
    )
    return frozenset(_normalized_path(path) for path in files)


_GATE_INTERNAL_FILES = _gate_internal_files()

#: Source file of ``run_python_workload`` — the frame at which the stack
#: walk stops (everything above is campaign harness, not program).
_WORKLOAD_BOUNDARY_FILE = _normalized_path(
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "controller",
        "monitor.py",
    )
)

#: The provider is stateless (it snapshots the stack only when called), so
#: one shared instance serves every gate and every intercepted call —
#: building it per call was pure allocation overhead on the hot path.
_DEFAULT_STACK_PROVIDER = _python_stack_provider(_GATE_INTERNAL_FILES)


class LibraryCallGate:
    """Interception point between programs and the simulated libraries."""

    def __init__(
        self,
        runtime: Optional[InjectionRuntime] = None,
        log: Optional[InjectionLog] = None,
        observe_only: bool = False,
        capture_python_stack: bool = True,
        default_node: str = "",
    ) -> None:
        self.runtime = runtime
        self.log = log if log is not None else InjectionLog()
        self.observe_only = observe_only
        self.capture_python_stack = capture_python_stack
        self.default_node = default_node

        self.call_counts: Dict[str, int] = {}
        self.total_calls = 0
        self.intercepted_calls = 0
        self.injected_calls = 0
        #: Calls whose triggers agreed to inject but that passed through
        #: because the gate is in observe-only mode (§7.4 accounting).
        self.observed_injections = 0
        #: Extra program state exposed to ProgramStateTrigger for Python-level
        #: targets (the VM provides its own reader based on global symbols).
        self.state_providers: List[Callable[[str], Optional[Any]]] = []
        #: Called as ``observer(name, args, count, ctx, decision)`` at the
        #: moment an injection decision is made, *before* the fault is
        #: applied, counted, or logged.  The prefix-sharing scheduler
        #: installs this on the gate of a group's probe (and of a member
        #: that advances the rank) to snapshot machine state at the exact
        #: divergence point; ``None`` (the default) costs one attribute
        #: check per injection.
        self.inject_observer: Optional[Callable[..., None]] = None
        #: Called as ``observer(name, args)`` for every call the runtime
        #: handles, *before* the call is counted or decided.  The
        #: prefix-sharing scheduler uses it to snapshot the pre-call gate
        #: state of the call an injection lands on: every resumed member
        #: of a scenario group re-executes that call through its own gate
        #: from there.  ``None`` (the default) costs one attribute check
        #: per handled call.
        self.call_observer: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def install_runtime(self, runtime: Optional[InjectionRuntime]) -> None:
        self.runtime = runtime

    def add_state_provider(self, provider: Callable[[str], Optional[Any]]) -> None:
        self.state_providers.append(provider)

    def reset_counters(self) -> None:
        self.call_counts.clear()
        self.total_calls = 0
        self.intercepted_calls = 0
        self.injected_calls = 0
        self.observed_injections = 0

    # ------------------------------------------------------------------
    # the interception path
    # ------------------------------------------------------------------
    def count_call(self, name: str) -> int:
        """Count one intercepted call; returns the per-function count.

        The single home of the per-call accounting invariant: ``call``
        uses it, and the VM's compiled-engine fast path calls it directly
        when pass-through needs no context (so the two paths cannot drift).
        """
        count = self.call_counts.get(name, 0) + 1
        self.call_counts[name] = count
        self.total_calls += 1
        return count

    def call(
        self,
        name: str,
        args: Tuple[Any, ...],
        invoke: Callable[[], LibcResult],
        apply_fault: Optional[Callable[[int, Optional[int]], LibcResult]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> LibcResult:
        runtime = self.runtime
        if runtime is None or not runtime.handles(name):
            self.count_call(name)
            return invoke()
        if self.call_observer is not None:
            self.call_observer(name, args)
        count = self.count_call(name)
        self.intercepted_calls += 1

        ctx = self._build_context(name, args, count, context or {})
        decision = runtime.decide(ctx)

        if decision.inject and not self.observe_only:
            assert decision.fault is not None
            if self.inject_observer is not None:
                self.inject_observer(name, args, count, ctx, decision)
            self.injected_calls += 1

            def record_injection() -> None:
                self.log.record(
                    function=name,
                    args=args,
                    injected=True,
                    call_count=count,
                    node=ctx.node,
                    module=ctx.module,
                    fault=decision.fault,
                    trigger_ids=decision.fired_triggers,
                    stack=ctx.stack,
                    source=str(ctx.source) if ctx.source else "",
                    sim_time=self._sim_time(context),
                )

            if decision.fault.fault_class != ERRNO_CLASS:
                # Structured classes (partial I/O, ramps, clock, network,
                # crash points) have class-specific semantics; the applier
                # logs first because crash classes unwind the world.
                from repro.core.faults import apply_structured_fault

                result = apply_structured_fault(
                    decision.fault, name, args, invoke, apply_fault, ctx,
                    log_record=record_injection,
                )
                result.injected = True
                return result

            if apply_fault is not None:
                result = apply_fault(decision.fault.return_value, decision.fault.errno)
            else:
                result = LibcResult(
                    value=decision.fault.return_value,
                    errno=decision.fault.errno,
                    injected=True,
                )
            result.injected = True
            record_injection()
            return result

        # Pass-through (triggers disagreed, or observe-only suppressed the
        # injection).  Fired triggers are recorded here too: §7.4-style
        # observe-only runs count trigger activations from the log.
        if decision.inject and self.observe_only:
            self.observed_injections += 1
        self.log.record(
            function=name,
            args=args,
            injected=False,
            call_count=count,
            node=ctx.node,
            module=ctx.module,
            trigger_ids=decision.fired_triggers,
            source=str(ctx.source) if ctx.source else "",
            sim_time=self._sim_time(context),
        )
        return invoke()

    # ------------------------------------------------------------------
    # context assembly
    # ------------------------------------------------------------------
    def _build_context(
        self, name: str, args: Tuple[Any, ...], count: int, raw: Dict[str, Any]
    ) -> CallContext:
        # Both fallbacks are hoisted off the per-call path: the stack
        # provider is a module-level singleton, and the composed state
        # reader is a bound method that walks the live provider list.
        stack_provider = raw.get("stack")
        if stack_provider is None and self.capture_python_stack:
            stack_provider = _DEFAULT_STACK_PROVIDER

        state_reader = raw.get("state")
        if state_reader is None and self.state_providers:
            state_reader = self._read_state

        source = raw.get("source")
        return CallContext(
            function=name,
            args=args,
            call_count=count,
            global_index=self.total_calls,
            node=raw.get("node", self.default_node),
            module=raw.get("module", ""),
            call_address=raw.get("call_address"),
            source=source,
            os=raw.get("os"),
            stack_provider=stack_provider,
            state_reader=state_reader,
            extras={key: value for key, value in raw.items()
                    if key not in ("stack", "state", "source", "node", "module",
                                   "call_address", "os")},
        )

    def _read_state(self, variable: str) -> Optional[Any]:
        """First non-None answer from the registered state providers."""
        for provider in self.state_providers:
            value = provider(variable)
            if value is not None:
                return value
        return None

    @staticmethod
    def _sim_time(context: Optional[Dict[str, Any]]) -> float:
        if not context:
            return 0.0
        os_state = context.get("os")
        clock = getattr(os_state, "clock", None)
        return getattr(clock, "now", 0.0) if clock is not None else 0.0


__all__ = ["LibraryCallGate"]
