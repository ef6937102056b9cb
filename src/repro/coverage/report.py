"""Coverage reports in the shape of the paper's Table 3, plus the
BEACON-style per-target usage profile built from campaign traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.coverage.recovery import RecoveryMap
from repro.coverage.tracker import CoverageCounts, CoverageTracker
from repro.isa.binary import BinaryImage

Line = Tuple[str, int]


@dataclass
class CoverageReport:
    """Coverage of one binary under one configuration (with or without LFI)."""

    binary: str
    configuration: str
    total_lines: int
    covered_lines: int
    recovery_lines: int
    recovery_covered: int
    covered_line_set: Set[Line]
    recovery_covered_set: Set[Line]

    @property
    def total_coverage(self) -> float:
        return self.covered_lines / self.total_lines if self.total_lines else 0.0

    @property
    def recovery_coverage(self) -> float:
        return self.recovery_covered / self.recovery_lines if self.recovery_lines else 0.0

    def describe(self) -> str:
        return (
            f"{self.binary} [{self.configuration}]: total {self.total_coverage:.1%} "
            f"({self.covered_lines}/{self.total_lines} lines), recovery "
            f"{self.recovery_coverage:.1%} ({self.recovery_covered}/{self.recovery_lines} lines)"
        )


def build_report(
    binary: BinaryImage,
    tracker: Union[CoverageTracker, CoverageCounts],
    recovery: RecoveryMap,
    configuration: str,
) -> CoverageReport:
    all_lines = set(binary.lines())
    covered = tracker.covered_lines(binary) & all_lines
    recovery_lines = recovery.all_lines() & all_lines
    recovery_covered = covered & recovery_lines
    return CoverageReport(
        binary=binary.name,
        configuration=configuration,
        total_lines=len(all_lines),
        covered_lines=len(covered),
        recovery_lines=len(recovery_lines),
        recovery_covered=len(recovery_covered),
        covered_line_set=covered,
        recovery_covered_set=recovery_covered,
    )


@dataclass
class CoverageComparison:
    """The Table 3 row shape: baseline test suite vs. test suite + LFI."""

    binary: str
    baseline: CoverageReport
    with_lfi: CoverageReport

    @property
    def additional_recovery_fraction(self) -> float:
        """Recovery code newly covered thanks to LFI, as a fraction of all recovery code.

        This is the "Additional recovery code covered" row of Table 3: the
        share of recovery lines that the test suite only reaches when LFI
        injects the corresponding faults.
        """
        total = self.with_lfi.recovery_lines or self.baseline.recovery_lines
        if not total:
            return 0.0
        extra = self.with_lfi.recovery_covered - self.baseline.recovery_covered
        return max(extra, 0) / total

    @property
    def additional_lines_covered(self) -> int:
        return len(self.with_lfi.covered_line_set - self.baseline.covered_line_set)

    def row(self) -> dict:
        return {
            "system": self.binary,
            "additional_recovery_code_covered": self.additional_recovery_fraction,
            "additional_loc_covered_by_lfi": self.additional_lines_covered,
            "total_coverage_without_lfi": self.baseline.total_coverage,
            "total_coverage_with_lfi": self.with_lfi.total_coverage,
            "recovery_coverage_without_lfi": self.baseline.recovery_coverage,
            "recovery_coverage_with_lfi": self.with_lfi.recovery_coverage,
        }


def compare_coverage(
    baseline: CoverageReport, with_lfi: CoverageReport, binary: Optional[str] = None
) -> CoverageComparison:
    return CoverageComparison(
        binary=binary or baseline.binary, baseline=baseline, with_lfi=with_lfi
    )


# ----------------------------------------------------------------------
# BEACON-style usage profiles from campaign traces
# ----------------------------------------------------------------------
@dataclass
class FunctionUsage:
    """How one library function is used — and probed — by a campaign."""

    function: str
    #: Library calls to this function summed over every stored run.
    total_calls: int = 0
    #: Runs whose call trace reached this function at all.
    runs_reached: int = 0
    #: Fault points of the campaign that targeted this function.
    points_swept: int = 0
    #: Targeted points whose outcome was a failure.
    failures: int = 0
    #: Fault classes swept against this function ("errno", "partial_write"...).
    fault_classes: Set[str] = field(default_factory=set)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.points_swept if self.points_swept else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "total_calls": self.total_calls,
            "runs_reached": self.runs_reached,
            "points_swept": self.points_swept,
            "failures": self.failures,
            "failure_rate": self.failure_rate,
            "fault_classes": sorted(self.fault_classes),
        }


@dataclass
class UsageProfile:
    """Per-target library usage profile aggregated from a campaign trace.

    This is the BEACON-style report: which library functions the target
    actually exercises under its workloads (weighted by call volume), which
    of them the campaign swept with which fault classes, and where the
    failures concentrated.  Built purely from :class:`StoredResult` records
    — any result store (in-memory, JSON-lines file, coordinator snapshot)
    can feed it, including stores written by old errno-only campaigns
    (their records simply carry no per-call counts).
    """

    target: str
    runs: int = 0
    functions: Dict[str, FunctionUsage] = field(default_factory=dict)

    def usage(self, function: str) -> FunctionUsage:
        entry = self.functions.get(function)
        if entry is None:
            entry = FunctionUsage(function=function)
            self.functions[function] = entry
        return entry

    def ranked(self) -> List[FunctionUsage]:
        """Functions by descending call volume (name-stable tiebreak)."""
        return sorted(
            self.functions.values(),
            key=lambda usage: (-usage.total_calls, usage.function),
        )

    def unswept(self) -> List[str]:
        """Functions the workloads call that no fault point targeted."""
        return sorted(
            usage.function
            for usage in self.functions.values()
            if usage.total_calls and not usage.points_swept
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "runs": self.runs,
            "functions": [usage.to_dict() for usage in self.ranked()],
            "unswept": self.unswept(),
        }

    def describe(self) -> str:
        lines = [f"usage profile for {self.target}: {self.runs} runs"]
        for usage in self.ranked():
            classes = ",".join(sorted(usage.fault_classes)) or "-"
            lines.append(
                f"  {usage.function}: {usage.total_calls} calls in "
                f"{usage.runs_reached} runs, {usage.points_swept} points "
                f"[{classes}], {usage.failures} failures"
            )
        missing = self.unswept()
        if missing:
            lines.append(f"  unswept: {', '.join(missing)}")
        return "\n".join(lines)


def build_usage_profile(target: str, results: Iterable[Any]) -> UsageProfile:
    """Aggregate a campaign trace into a :class:`UsageProfile`.

    *results* is any iterable of
    :class:`~repro.core.exploration.store.StoredResult`-shaped records (the
    attributes used: ``calls``, ``function``, ``fault_class``, ``outcome``).
    """
    from repro.core.controller.monitor import OutcomeKind

    profile = UsageProfile(target=target)
    for result in results:
        profile.runs += 1
        for function, count in (getattr(result, "calls", None) or {}).items():
            usage = profile.usage(function)
            usage.total_calls += int(count)
            usage.runs_reached += 1
        function = getattr(result, "function", "")
        if function:
            usage = profile.usage(function)
            usage.points_swept += 1
            usage.fault_classes.add(getattr(result, "fault_class", "errno") or "errno")
            try:
                failed = OutcomeKind(result.outcome).is_failure
            except ValueError:
                failed = False
            if failed:
                usage.failures += 1
    return profile


__all__ = [
    "CoverageComparison",
    "CoverageReport",
    "FunctionUsage",
    "UsageProfile",
    "build_report",
    "build_usage_profile",
    "compare_coverage",
]
