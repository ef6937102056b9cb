"""The fault-class registry: definitions, parameter grids, scenario builders.

Each :class:`FaultClassDef` names one structured class, the library
functions it can target, and a deterministic grid of parameter sets.  The
grid is what campaigns enumerate: the fault space of a class is the cross
product ``functions x grid x occurrence``, exactly parallel to the
``site x errno`` enumeration of the classic class.

Scenario construction is *function-level*: a ``CallCountTrigger`` (plus a
``SingletonTrigger`` for one-shot classes) picks the N-th call to the
target function, which works identically for compiled (VM) targets and
Python-level facade targets — no static call-site analysis is needed.
Ramp classes (``fd_exhaustion``/``heap_exhaustion``) instead arm a
periodic trigger that fires on *every* call once the budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.injection.faults import ERRNO_CLASS, FaultSpec
from repro.core.scenario.builder import ScenarioBuilder
from repro.core.scenario.model import Scenario
from repro.oslib.errno_codes import Errno


def _grid(*entries: Dict[str, Any]) -> Tuple[Tuple[Tuple[str, Any], ...], ...]:
    return tuple(tuple(sorted(entry.items())) for entry in entries)


@dataclass(frozen=True)
class FaultClassDef:
    """Static description of one structured fault class."""

    name: str
    #: Library functions this class can target, in enumeration order.
    functions: Tuple[str, ...]
    #: Deterministic parameter grid (each entry a sorted key/value tuple).
    grid: Tuple[Tuple[Tuple[str, Any], ...], ...]
    #: True when scenarios of this class may join prefix scenario-groups.
    shareable: bool
    #: True for budget ramps: the trigger re-fires on every call after the
    #: budget is spent, so the occurrence dimension is the budget itself.
    ramp: bool = False
    description: str = ""

    def param_dicts(self) -> Tuple[Dict[str, Any], ...]:
        return tuple(dict(entry) for entry in self.grid)


#: Registry of every structured class, keyed by name (sorted iteration is
#: the canonical enumeration order).
FAULT_CLASSES: Dict[str, FaultClassDef] = {
    definition.name: definition
    for definition in [
        FaultClassDef(
            name="partial_write",
            functions=("write", "fwrite"),
            grid=_grid({"fraction": 0.5}, {"fraction": 0.0}),
            shareable=True,
            description="the write performs a truncated real write and returns the short count",
        ),
        FaultClassDef(
            name="short_read",
            functions=("read", "fread"),
            grid=_grid({"fraction": 0.5}, {"fraction": 0.0}),
            shareable=True,
            description="the read returns fewer bytes than requested",
        ),
        FaultClassDef(
            name="fd_exhaustion",
            functions=("open", "socket"),
            grid=_grid({"budget": 0}, {"budget": 2}),
            shareable=False,
            ramp=True,
            description="descriptor budget counts down, then every open fails EMFILE",
        ),
        FaultClassDef(
            name="heap_exhaustion",
            functions=("malloc",),
            grid=_grid({"budget": 0}, {"budget": 4}),
            shareable=False,
            ramp=True,
            description="allocation budget counts down, then every malloc fails ENOMEM",
        ),
        FaultClassDef(
            name="clock_skew",
            functions=("time",),
            grid=_grid({"delta": 0.5}, {"delta": 5.0}),
            shareable=True,
            description="the clock drifts forward a small delta before the call",
        ),
        FaultClassDef(
            name="clock_jump",
            functions=("time",),
            grid=_grid({"delta": 3600.0}, {"delta": 86400.0}),
            shareable=True,
            description="the clock leaps forward (NTP step / suspend-resume) before the call",
        ),
        FaultClassDef(
            name="net_drop",
            functions=("sendto",),
            grid=_grid({}),
            shareable=False,
            description="the triggered datagram vanishes; the sender sees a full count",
        ),
        FaultClassDef(
            name="net_partition",
            functions=("sendto",),
            grid=_grid({"scope": "dst"}),
            shareable=False,
            description="from the triggered send on, the destination is partitioned off",
        ),
        FaultClassDef(
            name="net_reorder",
            functions=("sendto",),
            grid=_grid({}),
            shareable=False,
            description="the triggered datagram jumps ahead of the queued ones",
        ),
        FaultClassDef(
            name="crash_point",
            functions=("write", "fwrite"),
            grid=_grid({"torn": 0}, {"fraction": 0.5, "torn": 1}),
            shareable=False,
            description="the world is killed at the call (optionally after a torn write)",
        ),
    ]
}

#: Classes whose scenarios must never join a prefix scenario-group.
UNSHAREABLE_CLASSES = frozenset(
    definition.name for definition in FAULT_CLASSES.values() if not definition.shareable
)


def class_names() -> Tuple[str, ...]:
    return tuple(sorted(FAULT_CLASSES))


def is_structured_class(name: str) -> bool:
    return name in FAULT_CLASSES


def make_fault(klass: str, params: Optional[Dict[str, Any]] = None) -> FaultSpec:
    """Build the :class:`FaultSpec` carried by a structured scenario."""
    if klass == ERRNO_CLASS:
        raise ValueError("errno faults are built by ScenarioBuilder.inject, not make_fault")
    definition = FAULT_CLASSES.get(klass)
    if definition is None:
        raise ValueError(f"unknown fault class {klass!r} (known: {', '.join(class_names())})")
    params = dict(params or {})
    if klass == "fd_exhaustion":
        return FaultSpec.structured(klass, params, return_value=-1, errno=int(Errno.EMFILE))
    if klass == "heap_exhaustion":
        return FaultSpec.structured(klass, params, return_value=0, errno=int(Errno.ENOMEM))
    return FaultSpec.structured(klass, params)


def structured_scenario(
    klass: str,
    function: str,
    nth: int = 1,
    params: Optional[Dict[str, Any]] = None,
    name: Optional[str] = None,
    recovery_workload: Optional[str] = None,
) -> Scenario:
    """Build the scenario injecting one structured fault.

    ``nth`` selects the occurrence for one-shot classes; ramps derive their
    arming point from ``params["budget"]`` instead (the budget'th+1 call and
    every call after it fail).  ``recovery_workload`` is recorded for
    ``crash_point`` scenarios: after the world crash the target re-runs that
    workload (empty string means "re-run the crashed workload") against the
    surviving fs state to exercise recovery code.
    """
    definition = FAULT_CLASSES.get(klass)
    if definition is None:
        raise ValueError(f"unknown fault class {klass!r} (known: {', '.join(class_names())})")
    params = dict(params or {})
    fault = make_fault(klass, params)
    scenario_name = name or f"{klass}-{function}-n{int(nth)}"
    builder = ScenarioBuilder(scenario_name)
    if definition.ramp:
        budget = int(params.get("budget", 0))
        builder.trigger("rampTrig", "CallCountTrigger", nth=budget + 1, every=1)
        trigger_ids = ["rampTrig"]
    else:
        builder.trigger("countTrig", "CallCountTrigger", nth=int(nth))
        builder.trigger("onceTrig", "SingletonTrigger")
        trigger_ids = ["countTrig", "onceTrig"]
    builder.inject_fault(function, trigger_ids, fault)
    metadata: Dict[str, Any] = {
        "fault_class": klass,
        "fault_params": dict(params),
        "target_function": function,
        "occurrence": int(nth),
    }
    if klass == "crash_point":
        if recovery_workload is None:
            # A "recovery" grid param lets enumerated points carry the
            # post-crash workload in their identity (key/fingerprint).
            recovery_workload = params.get("recovery", "")
        metadata["recovery_workload"] = str(recovery_workload)
    builder.metadata(**metadata)
    return builder.build()


__all__ = [
    "FAULT_CLASSES",
    "UNSHAREABLE_CLASSES",
    "FaultClassDef",
    "class_names",
    "is_structured_class",
    "make_fault",
    "structured_scenario",
]
