"""Algorithm 1: classify call sites by how their error returns are checked.

Given a target executable, a library function *F* and the set *E* of error
return codes from *F*'s fault profile, each call site of *F* lands in one of
three sets:

* **C_yes** — every error code in *E* is checked by equality, or the return
  value is checked with an inequality (which is assumed to cover the whole
  error range);
* **C_part** — some but not all error codes in *E* are checked by equality;
* **C_not** — none of the error codes in *E* is checked (even if values
  outside *E* are).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.analysis.cfg import DEFAULT_CFG_BUDGET, build_partial_cfg
from repro.core.analysis.dataflow import CheckResult, analyze_return_value_checks
from repro.isa.binary import BinaryImage, CallSite


@dataclass
class ClassifiedSite:
    """One call site with its dataflow result and Algorithm 1 category."""

    site: CallSite
    checks: CheckResult
    category: str  # "checked" | "partial" | "unchecked"

    @property
    def address(self) -> int:
        return self.site.address

    def describe(self) -> str:
        checked = ""
        if self.checks.chk_eq:
            checked += f" eq={sorted(self.checks.chk_eq)}"
        if self.checks.chk_ineq:
            checked += f" ineq={sorted(self.checks.chk_ineq)}"
        return f"{self.site} -> {self.category}{checked}"


@dataclass
class SiteClassification:
    """Classification of every call site of one function in one binary."""

    binary: str
    function: str
    error_codes: Set[int] = field(default_factory=set)
    fully_checked: List[ClassifiedSite] = field(default_factory=list)
    partially_checked: List[ClassifiedSite] = field(default_factory=list)
    unchecked: List[ClassifiedSite] = field(default_factory=list)

    def all_sites(self) -> List[ClassifiedSite]:
        return self.fully_checked + self.partially_checked + self.unchecked

    def site_count(self) -> int:
        return len(self.fully_checked) + len(self.partially_checked) + len(self.unchecked)

    def summary(self) -> str:
        return (
            f"{self.binary}:{self.function}: {self.site_count()} sites — "
            f"{len(self.fully_checked)} checked, {len(self.partially_checked)} partial, "
            f"{len(self.unchecked)} unchecked"
        )


def classify_check_result(checks: CheckResult, error_codes: Iterable[int]) -> str:
    """Apply lines 6-11 of Algorithm 1 to one dataflow result."""
    error_set = set(error_codes)
    checked_errors = checks.chk_eq & error_set
    if checked_errors >= error_set and error_set:
        return "checked"
    if checks.chk_ineq:
        return "checked"
    if checked_errors:
        return "partial"
    return "unchecked"


def classify_call_sites(
    binary: BinaryImage,
    function: str,
    error_codes: Sequence[int],
    max_instructions: int = DEFAULT_CFG_BUDGET,
    sites: Optional[Sequence[CallSite]] = None,
) -> SiteClassification:
    """Classify every call site of *function* in *binary*."""
    classification = SiteClassification(
        binary=binary.name, function=function, error_codes=set(error_codes)
    )
    call_sites = list(sites) if sites is not None else binary.call_sites(function)
    for site in call_sites:
        cfg = build_partial_cfg(binary, site.address + 1, max_instructions=max_instructions)
        checks = analyze_return_value_checks(binary, site.address, cfg=cfg)
        category = classify_check_result(checks, error_codes)
        classified = ClassifiedSite(site=site, checks=checks, category=category)
        if category == "checked":
            classification.fully_checked.append(classified)
        elif category == "partial":
            classification.partially_checked.append(classified)
        else:
            classification.unchecked.append(classified)
    return classification


__all__ = ["ClassifiedSite", "SiteClassification", "classify_call_sites", "classify_check_result"]
