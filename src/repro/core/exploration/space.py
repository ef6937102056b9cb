"""Enumeration of the injectable fault space.

The fault space of a target is the cross product the paper's evaluation
sweeps implicitly: every classified call site of every profiled library
function, crossed with every (error return value, errno) pair the library's
fault profile declares for that function.  Each element is a
:class:`FaultPoint` — a value object with a **stable key** that names the
point independently of enumeration order, which is what lets the result
store recognise completed work across process lifetimes.

Enumeration order is deterministic: classifications are visited in sorted
function order, sites in address order, faults in profile order.  The
:func:`priority_order` pass then reorders points the way a tester wants to
spend a bounded budget (§5): completely unchecked sites before partially
checked ones before checked ones, and — within each band — the *first*
occurrence of each novel (function, return value, errno) fault class before
repeat occurrences, so every distinct error behaviour is probed early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.analysis.classifier import ClassifiedSite, SiteClassification
from repro.core.analysis.scenario_gen import fault_candidates, scenario_for_fault
from repro.core.profiler.fault_profile import FaultProfile
from repro.core.scenario.model import Scenario
from repro.oslib.errno_codes import errno_name

#: Priority rank of each Algorithm 1 category (lower runs earlier).
#: Structured fault classes probe *behavioural* families rather than
#: return-check categories; they run after the errno bands.
CATEGORY_RANK: Dict[str, int] = {"unchecked": 0, "partial": 1, "checked": 2, "structured": 3}


@dataclass(frozen=True)
class FaultPoint:
    """One injectable (call site x error return x errno) combination.

    A frozen value: campaign plans share their points between campaigns and
    threads, and :attr:`key`, read on every scheduling path, is computed
    once, at construction.
    """

    binary: str
    function: str
    address: int
    category: str  # "unchecked" | "partial" | "checked"
    return_value: int
    errno: Optional[int]
    #: Index of this fault within the function profile's candidate list
    #: (stable tiebreaker for sites with several faults).
    fault_index: int = 0
    site: Optional[ClassifiedSite] = field(default=None, hash=False)
    #: Stable identity of this point (result-store / resume key).
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", self._derive_key())

    @property
    def errno_label(self) -> str:
        return errno_name(self.errno) if self.errno is not None else "none"

    def _derive_key(self) -> str:
        return (
            f"{self.binary}:{self.function}@{self.address:#x}"
            f":rv={self.return_value}:errno={self.errno_label}"
        )

    @property
    def fault_class(self) -> Tuple[str, int, Optional[int]]:
        """Equivalence class used for novelty ordering and sampling."""
        return (self.function, self.return_value, self.errno)

    def scenario(self, once: bool = True) -> Scenario:
        """Build the injection scenario exercising exactly this point."""
        if self.site is None:
            raise ValueError(f"fault point {self.key} carries no classified site")
        return scenario_for_fault(
            self.binary,
            self.site,
            self.function,
            return_value=self.return_value,
            errno=self.errno,
            name=f"explore-{self.function}-{self.address:#x}-rv{self.return_value}"
            f"-{self.errno_label}",
            once=once,
        )

    def describe(self) -> str:
        return f"{self.key} [{self.category}]"


@dataclass(frozen=True)
class StructuredFaultPoint(FaultPoint):
    """One injectable structured fault: (class x params x occurrence).

    Structured classes are function-level (triggered by call count), so the
    ``address``/``site`` dimensions of the errno space collapse; the new
    dimensions are the class name, its parameter set, and which occurrence
    of the call gets hit.  Keys deliberately use a distinct shape from
    errno-point keys, so old stores resume cleanly next to new sweeps.
    """

    klass: str = "errno"
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Which call to the target function is hit (ramps encode their arming
    #: point in ``params["budget"]`` instead and keep occurrence at 1).
    occurrence: int = 1

    def _derive_key(self) -> str:
        param_str = ",".join(f"{key}={value}" for key, value in self.params) or "-"
        return f"{self.binary}:{self.function}#{self.occurrence}:{self.klass}[{param_str}]"

    @property
    def fault_class(self) -> Tuple[Any, ...]:
        return (self.function, self.klass, self.params)

    def scenario(self, once: bool = True) -> Scenario:
        from repro.core.faults import structured_scenario

        param_str = ",".join(f"{key}={value}" for key, value in self.params) or "-"
        return structured_scenario(
            self.klass,
            self.function,
            nth=self.occurrence,
            params=dict(self.params),
            name=f"explore-{self.klass}-{self.function}-n{self.occurrence}-{param_str}",
        )


def enumerate_structured_space(
    binary: str,
    classes: Iterable[str],
    functions: Optional[Iterable[str]] = None,
    occurrences: int = 2,
) -> List[FaultPoint]:
    """Enumerate the fault points of the requested structured classes.

    Deterministic: classes in sorted order, functions in registry order,
    grid entries in registry order, occurrences ascending.  ``functions``
    (when given) filters the class's target functions, mirroring the
    ``functions`` filter of the errno space.
    """
    from repro.core.faults import FAULT_CLASSES, make_fault

    wanted = set(functions) if functions is not None else None
    points: List[FaultPoint] = []
    for klass in sorted(set(classes)):
        definition = FAULT_CLASSES.get(klass)
        if definition is None:
            raise ValueError(f"unknown fault class {klass!r}")
        for function in definition.functions:
            if wanted is not None and function not in wanted:
                continue
            for grid_index, params in enumerate(definition.grid):
                fault = make_fault(klass, dict(params))
                nths = (1,) if definition.ramp else tuple(range(1, max(1, occurrences) + 1))
                for nth in nths:
                    points.append(
                        StructuredFaultPoint(
                            binary=binary,
                            function=function,
                            address=0,
                            category="structured",
                            return_value=fault.return_value,
                            errno=fault.errno,
                            fault_index=grid_index,
                            site=None,
                            klass=klass,
                            params=params,
                            occurrence=nth,
                        )
                    )
    return points


def enumerate_fault_space(
    classifications: Iterable[SiteClassification],
    profile: FaultProfile,
    include_partial: bool = True,
    include_checked: bool = False,
) -> List[FaultPoint]:
    """Enumerate every injectable fault point from analyzer output.

    Every (site x error return x errno) pair appears **exactly once**; the
    trigger dimension is fixed to the analyzer's pinned call-stack +
    singleton composition (the §5 scenario shape), so the space is finite
    and coverable.
    """
    points: List[FaultPoint] = []
    for classification in sorted(classifications, key=lambda item: (item.binary, item.function)):
        function_profile = profile.function(classification.function)
        if function_profile is None:
            continue
        faults = fault_candidates(function_profile)
        if not faults:
            continue
        groups = [("unchecked", classification.unchecked)]
        if include_partial:
            groups.append(("partial", classification.partially_checked))
        if include_checked:
            groups.append(("checked", classification.fully_checked))
        for category, sites in groups:
            for classified in sorted(sites, key=lambda item: item.address):
                for fault_index, fault in enumerate(faults):
                    points.append(
                        FaultPoint(
                            binary=classification.binary,
                            function=classification.function,
                            address=classified.address,
                            category=category,
                            return_value=int(fault["return_value"]),
                            errno=fault["errno"],
                            fault_index=fault_index,
                            site=classified,
                        )
                    )
    return points


def priority_order(points: Iterable[FaultPoint]) -> List[FaultPoint]:
    """Order points by testing priority (deterministically).

    Unchecked sites come before partially checked before checked (the
    paper's C_not > C_part > C_yes interest order), and within each band the
    first occurrence of each (function, return value, errno) fault class is
    scheduled before any repeat occurrence — novel error behaviours are
    probed as early as possible.  The order depends only on the point set,
    never on execution results, so schedules are identical across runs and
    backends.
    """
    banded = sorted(
        points,
        key=lambda point: (
            CATEGORY_RANK.get(point.category, len(CATEGORY_RANK)),
            point.binary,
            point.function,
            point.address,
            point.fault_index,
        ),
    )
    occurrence: Dict[Tuple[Any, ...], int] = {}
    keyed = []
    for point in banded:
        rank = CATEGORY_RANK.get(point.category, len(CATEGORY_RANK))
        cls = (
            rank,
            point.function,
            point.return_value,
            point.errno,
            getattr(point, "klass", "errno"),
            getattr(point, "params", ()),
        )
        seen = occurrence.get(cls, 0)
        occurrence[cls] = seen + 1
        keyed.append((rank, seen, point))
    keyed.sort(
        key=lambda item: (
            item[0],
            item[1],
            item[2].binary,
            item[2].function,
            item[2].address,
            item[2].fault_index,
        )
    )
    return [point for _, _, point in keyed]


__all__ = [
    "CATEGORY_RANK",
    "FaultPoint",
    "StructuredFaultPoint",
    "enumerate_fault_space",
    "enumerate_structured_space",
    "priority_order",
]
