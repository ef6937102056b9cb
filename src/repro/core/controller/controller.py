"""The LFI controller: fully automatic end-to-end testing (§2, §7.1).

``LFIController`` strings the pieces together the way the paper's
evaluation uses them with "no developer assistance and no access to source
code":

1. profile the shared libraries (statically, from their binaries);
2. run the call-site analyzer on the target binary to find unchecked /
   partially checked call sites;
3. generate one injection scenario per suspicious site;
4. run the target's default test workload once per scenario;
5. report the crashes and aborts the injections exposed as bug candidates.

Python-level targets (no binary) skip step 2 and instead use the scenarios
the target declares for itself (e.g. random-injection campaigns, which is
also how the paper found the MySQL bugs).

Steps 1 and 2 are served from the process-wide artifact cache
(:mod:`repro.core.profiler.cache`), so repeated controllers stop paying the
assemble + disassemble + CFG cost and analyze each target image once per
process (the cached :class:`AnalysisReport` is shared: treat it as
immutable; its ``analysis_seconds`` is the time of the first computation).
Steps 4-5 accept a ``parallelism=`` spec (see
:func:`repro.core.controller.executor.resolve_backend`) that fans scenario
runs out over a process pool with results identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.analysis.analyzer import AnalysisReport, CallSiteAnalyzer
from repro.core.controller.campaign import CampaignResult, TestCampaign
from repro.core.controller.executor import ParallelismSpec, backend_scope
from repro.core.controller.report import BugCandidate, build_bug_report
from repro.core.controller.target import TargetAdapter
from repro.core.exploration.engine import ExplorationEngine, ExplorationReport
from repro.core.exploration.space import FaultPoint, enumerate_fault_space
from repro.core.exploration.store import ResultStore
from repro.core.exploration.strategy import ExplorationStrategy
from repro.core.profiler.cache import cached_analysis, cached_merged_profile
from repro.core.profiler.fault_profile import FaultProfile
from repro.core.scenario.model import Scenario


@dataclass
class ControllerReport:
    """End-to-end result of one automatic testing session."""

    target: str
    profile: FaultProfile
    analysis: Optional[AnalysisReport]
    scenarios: List[Scenario]
    campaigns: Dict[str, CampaignResult] = field(default_factory=dict)
    bugs: List[BugCandidate] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"LFI controller report for {self.target}"]
        if self.analysis is not None:
            lines.append("  " + self.analysis.summary().replace("\n", "\n  "))
        lines.append(f"  scenarios generated: {len(self.scenarios)}")
        for workload, campaign in self.campaigns.items():
            lines.append(f"  [{workload}] " + campaign.summary())
        lines.append(f"  bug candidates: {len(self.bugs)}")
        for bug in self.bugs:
            lines.append("    - " + bug.describe())
        return "\n".join(lines)


class LFIController:
    """Drives profiling, analysis, scenario generation, and campaigns."""

    def __init__(
        self,
        target: TargetAdapter,
        profile: Optional[FaultProfile] = None,
        max_cfg_instructions: int = 100,
        parallelism: ParallelismSpec = None,
    ) -> None:
        self.target = target
        self._profile = profile
        self.max_cfg_instructions = max_cfg_instructions
        #: Default campaign execution policy; per-call ``parallelism=``
        #: arguments override it.
        self.parallelism = parallelism
        self._analyzer: Optional[CallSiteAnalyzer] = None

    # ------------------------------------------------------------------
    # step 1: library profiling
    # ------------------------------------------------------------------
    def profile_libraries(self) -> FaultProfile:
        """Profile every simulated shared library from its binary.

        Served from the process-wide artifact cache: the first controller in
        a process pays the assemble + profile cost, later ones share it.
        """
        if self._profile is None:
            self._profile = cached_merged_profile()
        return self._profile

    # ------------------------------------------------------------------
    # step 2: call-site analysis
    # ------------------------------------------------------------------
    def _call_site_analyzer(self) -> CallSiteAnalyzer:
        """The controller's single analyzer instance (profile attached)."""
        if self._analyzer is None:
            self._analyzer = CallSiteAnalyzer(
                profile=self.profile_libraries(),
                max_instructions=self.max_cfg_instructions,
            )
        return self._analyzer

    def analyze_target(self, functions: Optional[Sequence[str]] = None) -> Optional[AnalysisReport]:
        """The target binary's call-site analysis, from the artifact cache."""
        binary = self.target.binary()
        if binary is None:
            return None
        return cached_analysis(self._call_site_analyzer(), binary, functions=functions)

    # ------------------------------------------------------------------
    # step 3: scenario generation
    # ------------------------------------------------------------------
    def generate_scenarios(
        self,
        analysis: Optional[AnalysisReport] = None,
        functions: Optional[Sequence[str]] = None,
        include_partial: bool = True,
        include_checked: bool = False,
        every_errno: bool = False,
    ) -> List[Scenario]:
        if analysis is None:
            analysis = self.analyze_target(functions=functions)
        if analysis is None:
            return []
        return self._call_site_analyzer().generate_scenarios(
            analysis,
            include_partial=include_partial,
            include_checked=include_checked,
            every_errno=every_errno,
            functions=functions,
        )

    # ------------------------------------------------------------------
    # fault-space exploration (systematic alternative to steps 3-4)
    # ------------------------------------------------------------------
    def fault_space(
        self,
        analysis: Optional[AnalysisReport] = None,
        functions: Optional[Sequence[str]] = None,
        include_partial: bool = True,
        include_checked: bool = False,
    ) -> List[FaultPoint]:
        """Enumerate the target's injectable fault space.

        The full (call site x error return x errno) cross product from the
        analyzer output and the library fault profiles — the space
        :meth:`explore` covers.  Raises for Python-level targets, whose
        scenarios are not derived from binary analysis.  *functions* narrows
        the space whether the analysis is computed here or passed in.
        """
        if analysis is None:
            analysis = self.analyze_target(functions=functions)
        if analysis is None:
            raise ValueError(
                f"target {self.target.name!r} has no binary to analyze; "
                "fault-space exploration needs analyzer output"
            )
        classifications = list(analysis.classifications.values())
        if functions is not None:
            wanted = set(functions)
            classifications = [
                classification
                for classification in classifications
                if classification.function in wanted
            ]
        return enumerate_fault_space(
            classifications,
            self.profile_libraries(),
            include_partial=include_partial,
            include_checked=include_checked,
        )

    def explore(
        self,
        strategy: Optional[ExplorationStrategy] = None,
        store: Optional[ResultStore] = None,
        workload: Optional[str] = None,
        analysis: Optional[AnalysisReport] = None,
        functions: Optional[Sequence[str]] = None,
        include_partial: bool = True,
        include_checked: bool = False,
        seed: Optional[int] = None,
        parallelism: ParallelismSpec = None,
        max_runs: Optional[int] = None,
        share_prefixes: Optional[bool] = None,
        request_options: Optional[dict] = None,
    ) -> ExplorationReport:
        """Systematically explore the target's fault space (PR 2 tentpole).

        Enumerates every injectable (call site x error return x errno)
        point, lets *strategy* (exhaustive by default) pick the subset to
        run, schedules it through the campaign executor in priority order,
        deduplicates equivalent failures, and checkpoints completed runs in
        *store* so a second ``explore()`` with the same store resumes
        instead of re-running.  Pass a precomputed *analysis* to skip the
        call-site analysis step (e.g. when resuming or sweeping several
        strategies over one target).  See :mod:`repro.core.exploration`.
        """
        points = self.fault_space(
            analysis=analysis,
            functions=functions,
            include_partial=include_partial,
            include_checked=include_checked,
        )
        engine = ExplorationEngine(
            self.target,
            strategy=strategy,
            store=store,
            parallelism=parallelism if parallelism is not None else self.parallelism,
            seed=seed,
            workload=workload,
            share_prefixes=share_prefixes,
            request_options=request_options,
        )
        return engine.explore(points, max_runs=max_runs)

    # ------------------------------------------------------------------
    # steps 4-5: campaigns and reports
    # ------------------------------------------------------------------
    def test_automatically(
        self,
        workloads: Optional[Sequence[str]] = None,
        functions: Optional[Sequence[str]] = None,
        include_partial: bool = True,
        include_checked: bool = False,
        extra_scenarios: Optional[Sequence[Scenario]] = None,
        parallelism: ParallelismSpec = None,
    ) -> ControllerReport:
        """The fully automatic pipeline used by the Table 1 experiments.

        ``include_checked=True`` additionally exercises the *checked* call
        sites — i.e. it injects faults whose recovery code exists, which is
        how recovery-code bugs such as BIND's ``dst_lib_init`` abort and
        MySQL's double unlock manifest.

        ``parallelism`` selects the campaign execution backend; one backend
        is shared across all selected workloads.
        """
        profile = self.profile_libraries()
        analysis = self.analyze_target(functions=functions)
        scenarios = list(
            self.generate_scenarios(
                analysis,
                functions=functions,
                include_partial=include_partial,
                include_checked=include_checked,
            )
        )
        if extra_scenarios:
            scenarios.extend(extra_scenarios)

        report = ControllerReport(
            target=self.target.name,
            profile=profile,
            analysis=analysis,
            scenarios=scenarios,
        )
        selected_workloads = list(workloads) if workloads else (self.target.workloads() or ["default"])
        spec = parallelism if parallelism is not None else self.parallelism
        backend, owned = backend_scope(spec)
        all_bugs: List[BugCandidate] = []
        try:
            for workload in selected_workloads:
                campaign = TestCampaign(self.target, workload=workload, parallelism=backend).run(
                    scenarios
                )
                report.campaigns[workload] = campaign
                all_bugs.extend(build_bug_report(campaign))
        finally:
            if owned:
                backend.close()

        # Deduplicate across workloads by (function, location, kind).
        deduplicated: Dict[tuple, BugCandidate] = {}
        for bug in all_bugs:
            key = (bug.function, bug.location, bug.kind)
            existing = deduplicated.get(key)
            if existing is None:
                deduplicated[key] = bug
            else:
                existing.occurrences += bug.occurrences
                existing.scenarios.extend(bug.scenarios)
        report.bugs = list(deduplicated.values())
        return report


__all__ = ["ControllerReport", "LFIController"]
