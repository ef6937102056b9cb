"""Injection log (§2).

The LFI log records each error injection, the injected side effects
(``errno``), and the events that triggered it — call count, stack trace —
so that developers can match injections to observed program behaviour,
refine scenarios, and replay failures deterministically.

A gate appends to a live :class:`InjectionLog` while a run executes; when
the run ends, :meth:`InjectionLog.freeze` turns it into the
:class:`FrozenInjectionLog` its :class:`~repro.core.controller.monitor.RunResult`
carries.  Records are immutable either way, so a frozen log, a gate-state
capture and a replicated result can all hold the same record objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.frames import StackFrame, format_stack
from repro.core.injection.faults import FaultSpec


@dataclass(frozen=True)
class InjectionRecord:
    """One intercepted call, injected or passed through (immutable).

    Sequence fields are stored as tuples whatever the caller passed, so a
    record is a value: an errno-sibling replica is a
    :func:`dataclasses.replace` of its one injected record.
    """

    index: int
    function: str
    args: tuple
    injected: bool
    call_count: int
    node: str = ""
    module: str = ""
    fault: Optional[FaultSpec] = None
    trigger_ids: Tuple[str, ...] = ()
    stack: Tuple[StackFrame, ...] = ()
    source: str = ""
    sim_time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("args", "trigger_ids", "stack"):
            value = getattr(self, name)
            if type(value) is not tuple:
                object.__setattr__(self, name, tuple(value))

    def describe(self) -> str:
        action = f"inject {self.fault.describe()}" if self.injected and self.fault else "pass through"
        where = f" at {self.source}" if self.source else ""
        return (
            f"[{self.index}] {self.function} (call #{self.call_count} on "
            f"{self.node or self.module}){where}: {action}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "function": self.function,
            "args": list(self.args),
            "injected": self.injected,
            "call_count": self.call_count,
            "node": self.node,
            "module": self.module,
            # ``has_fault`` disambiguates errno-only faults (a real fault
            # whose errno is None) from pass-through records: both serialize
            # ``errno: null``, and return_value alone cannot tell them apart.
            "has_fault": self.fault is not None,
            "return_value": self.fault.return_value if self.fault else None,
            "errno": self.fault.errno if self.fault else None,
            # Structured fault classes; absent/None means the classic errno
            # class so pre-taxonomy logs keep loading unchanged.
            "fault_class": self.fault.fault_class if self.fault else None,
            "fault_params": dict(self.fault.params) if self.fault else None,
            "triggers": list(self.trigger_ids),
            "stack": [frame.describe() for frame in self.stack],
            "frames": [
                {
                    "module": frame.module,
                    "function": frame.function,
                    "offset": frame.offset,
                    "file": frame.file,
                    "line": frame.line,
                }
                for frame in self.stack
            ],
            "source": self.source,
            "sim_time": self.sim_time,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "InjectionRecord":
        """Rebuild a record from :meth:`to_dict` output (e.g. a JSON log).

        Faults are reconstructed whenever the record carried one — keyed on
        ``has_fault``/``injected`` plus the return value, *not* on the errno
        field, so errno-only error-return specs (``errno=None``) come back
        as faults instead of degrading to pass-through records.
        """
        fault: Optional[FaultSpec] = None
        has_fault = payload.get("has_fault")
        if has_fault is None:  # logs written before the marker existed
            has_fault = bool(payload.get("injected")) and payload.get("return_value") is not None
        if has_fault:
            fault_class = payload.get("fault_class") or "errno"
            fault_params = payload.get("fault_params") or {}
            fault = FaultSpec(
                return_value=int(payload.get("return_value", 0) or 0),
                errno=payload.get("errno"),
                fault_class=fault_class,
                params=tuple(sorted(fault_params.items())),
            )
        stack = [
            StackFrame(
                module=frame.get("module", ""),
                function=frame.get("function", ""),
                offset=frame.get("offset"),
                file=frame.get("file", ""),
                line=frame.get("line"),
            )
            for frame in payload.get("frames", [])
        ]
        return cls(
            index=int(payload.get("index", 0)),
            function=payload.get("function", ""),
            args=tuple(payload.get("args", ())),
            injected=bool(payload.get("injected", False)),
            call_count=int(payload.get("call_count", 0)),
            node=payload.get("node", ""),
            module=payload.get("module", ""),
            fault=fault,
            trigger_ids=tuple(payload.get("triggers", ())),
            stack=tuple(stack),
            source=payload.get("source", ""),
            sim_time=float(payload.get("sim_time", 0.0)),
        )


class _LogQueries:
    """Read-only queries shared by the live and the frozen log."""

    records: Sequence[InjectionRecord]
    injection_count: int
    passthrough_count: int

    def injections(self, function: Optional[str] = None) -> List[InjectionRecord]:
        return [
            record
            for record in self.records
            if record.injected and (function is None or record.function == function)
        ]

    def last_injection(self) -> Optional[InjectionRecord]:
        for record in reversed(self.records):
            if record.injected:
                return record
        return None

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records]

    def summary(self) -> str:
        lines = [
            f"injection log: {self.injection_count} injections, "
            f"{self.passthrough_count} pass-throughs"
        ]
        for record in self.injections():
            lines.append("  " + record.describe())
            if record.stack:
                for stack_line in format_stack(record.stack).splitlines():
                    lines.append("      " + stack_line)
        return "\n".join(lines)


@dataclass(frozen=True)
class FrozenInjectionLog(_LogQueries):
    """The injection log of one finished run: a value, never appended to."""

    records: Tuple[InjectionRecord, ...] = ()
    injection_count: int = 0
    passthrough_count: int = 0


class InjectionLog(_LogQueries):
    """Accumulates :class:`InjectionRecord` entries for one test run."""

    def __init__(self, record_passthrough: bool = False) -> None:
        #: When False (default), only injections are recorded — the log stays
        #: small even under the overhead benchmarks' call rates.
        self.record_passthrough = record_passthrough
        self.records: List[InjectionRecord] = []
        self.injection_count = 0
        self.passthrough_count = 0
        self._next_index = 0

    # ------------------------------------------------------------------
    def record(
        self,
        function: str,
        args: Sequence[Any],
        injected: bool,
        call_count: int,
        node: str = "",
        module: str = "",
        fault: Optional[FaultSpec] = None,
        trigger_ids: Optional[Sequence[str]] = None,
        stack: Optional[Sequence[StackFrame]] = None,
        source: str = "",
        sim_time: float = 0.0,
    ) -> Optional[InjectionRecord]:
        if injected:
            self.injection_count += 1
        else:
            self.passthrough_count += 1
            if not self.record_passthrough:
                return None
        record = InjectionRecord(
            index=self._next_index,
            function=function,
            args=args,
            injected=injected,
            call_count=call_count,
            node=node,
            module=module,
            fault=fault,
            trigger_ids=trigger_ids or (),
            stack=stack or (),
            source=source,
            sim_time=sim_time,
        )
        self._next_index += 1
        self.records.append(record)
        return record

    def freeze(self) -> FrozenInjectionLog:
        """This log's records and counts as an immutable value."""
        return FrozenInjectionLog(
            tuple(self.records), self.injection_count, self.passthrough_count
        )

    def clear(self) -> None:
        self.records.clear()
        self.injection_count = 0
        self.passthrough_count = 0
        self._next_index = 0


__all__ = ["FrozenInjectionLog", "InjectionLog", "InjectionRecord"]
