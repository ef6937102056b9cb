"""Test campaigns: run a workload once per injection scenario.

The controller "conducts a suite of tests in which the described errors are
introduced" (§2): each analyzer-generated scenario (or hand-written
scenario) is applied to a fresh instance of the target, the workload runs,
and the outcome plus the injection log are recorded.  The result feeds the
bug report (Table 1) and the coverage comparison (Table 3).

Scenario runs are independent of one another (every run gets a pristine
target instance), so a campaign is an embarrassingly parallel batch.  The
``parallelism`` knob hands the batch to an
:class:`~repro.core.controller.executor.ExecutionBackend`; results keep
submission order and per-run seeds are derived deterministically, so a
parallel campaign's :class:`CampaignResult` is identical to a serial one's.

Campaigns against targets that declare deterministic execution additionally
share prefixes (:mod:`repro.core.controller.prefix`): scenarios differing
only in the injected fault (or in a single call-count threshold — prefix
trees) are grouped so their common pre-trigger prefix executes once and
only post-trigger suffixes run per fault.  Every campaign runs through the
one pipeline, :func:`~repro.core.controller.prefix.iter_shared_runs`: the
serial backend drains its tasks one at a time, and a pool packs them into
one :class:`~repro.core.controller.executor.GroupBatchTask` per worker,
whose worker runs each group's probe and resumes its siblings locally, so
``share_prefixes=True`` with ``parallelism="processes:4"`` spreads groups
across workers — with results still bit-identical to both the serial
shared and the unshared paths.  ``share_prefixes=False`` makes every
scenario an unshared task: the reference per-scenario path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.controller.executor import (
    ParallelismSpec,
    backend_scope,
    derive_run_seed,
)
from repro.core.controller.monitor import Outcome, OutcomeKind, RunResult
from repro.core.controller.prefix import iter_shared_runs, resolve_sharing
from repro.core.controller.memo import MemoStats, resolve_memo
from repro.core.controller.target import TargetAdapter, WorkloadRequest
from repro.core.profiler.cache import artifact_cache_stats
from repro.core.scenario.model import Scenario


@dataclass
class ScenarioOutcome:
    """Result of running one workload under one scenario."""

    scenario: Scenario
    workload: str
    result: RunResult

    @property
    def outcome(self) -> Outcome:
        return self.result.outcome

    @property
    def injected(self) -> bool:
        return self.result.injections > 0

    @property
    def exposed_failure(self) -> bool:
        """True when an injection happened and the run failed badly."""
        return self.injected and self.result.outcome.is_high_impact

    def describe(self) -> str:
        return (
            f"{self.scenario.name} [{self.workload}]: {self.result.outcome.describe()} "
            f"({self.result.injections} injections)"
        )


@dataclass
class CampaignResult:
    """All scenario outcomes of one campaign."""

    target: str
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    baseline: Optional[RunResult] = None
    #: Execution observability: backend/sharing knobs plus boot-template and
    #: suffix-memo hit/miss deltas for this run (see :meth:`TestCampaign.run`).
    stats: Dict[str, Any] = field(default_factory=dict)

    def failures(self) -> List[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes if outcome.outcome.is_failure]

    def high_impact_failures(self) -> List[ScenarioOutcome]:
        return [outcome for outcome in self.outcomes if outcome.exposed_failure]

    def by_kind(self) -> Dict[OutcomeKind, int]:
        histogram: Dict[OutcomeKind, int] = {}
        for outcome in self.outcomes:
            histogram[outcome.outcome.kind] = histogram.get(outcome.outcome.kind, 0) + 1
        return histogram

    def scenarios_run(self) -> int:
        return len(self.outcomes)

    def summary(self) -> str:
        histogram = ", ".join(f"{kind.value}: {count}" for kind, count in sorted(
            self.by_kind().items(), key=lambda item: item[0].value))
        return (
            f"campaign on {self.target}: {self.scenarios_run()} scenario runs — {histogram}; "
            f"{len(self.high_impact_failures())} injection-exposed failures"
        )


class TestCampaign:
    """Run a set of scenarios against one target."""

    def __init__(
        self,
        target: TargetAdapter,
        workload: str = "default",
        parallelism: ParallelismSpec = None,
    ) -> None:
        self.target = target
        self.workload = workload
        #: Default execution policy for :meth:`run` — a spec
        #: (``"processes:4"``, a worker count, ...) or an
        #: :class:`ExecutionBackend` instance; an explicit ``parallelism=``
        #: argument to :meth:`run` overrides it.
        self.parallelism = parallelism

    def run_baseline(self, collect_coverage: bool = False, **options) -> RunResult:
        """Run the workload with no LFI interference (sanity check / baseline)."""
        return self.target.run(
            WorkloadRequest(
                workload=self.workload,
                scenario=None,
                collect_coverage=collect_coverage,
                options=dict(options),
            )
        )

    def run(
        self,
        scenarios: Iterable[Scenario],
        collect_coverage: bool = False,
        include_baseline: bool = True,
        seed: Optional[int] = None,
        parallelism: ParallelismSpec = None,
        share_prefixes: Optional[bool] = None,
        **options,
    ) -> CampaignResult:
        """Run every scenario; see the module docstring for the knobs.

        ``share_prefixes=None`` (default) enables prefix sharing for
        campaigns against targets that declare ``prefix_shareable``;
        ``False`` forces the reference per-scenario path; ``True`` demands
        sharing and raises on targets that do not declare deterministic
        execution.  Sharing composes with every backend: serial campaigns
        drain groups inline, pooled campaigns drain one batch of groups
        per worker (results stay bit-identical either way).
        """
        scenario_list = list(scenarios)
        campaign = CampaignResult(target=self.target.name)
        if include_baseline:
            campaign.baseline = self.run_baseline(collect_coverage=collect_coverage, **options)

        # Snapshot the process-wide cache counters so the run's stats carry
        # *deltas* — what this campaign hit and missed, not process history.
        # Pool-children counters are invisible here (they live in the forked
        # workers); fabric workers report their own deltas on each lease's
        # final result_batch.
        cache_before = artifact_cache_stats()
        # Whichever memo this run resolves (process-wide, a private instance
        # passed via ``memo=``, or none at all on the oracle path) is the one
        # whose deltas belong in the stats.
        run_memo = resolve_memo(options)
        memo_before = run_memo.stats() if run_memo is not None else MemoStats()

        sharing = resolve_sharing(share_prefixes, self.target)
        spec = parallelism if parallelism is not None else self.parallelism
        backend, owned = backend_scope(spec)
        entries = [
            (index, scenario, derive_run_seed(seed, index))
            for index, scenario in enumerate(scenario_list)
        ]
        try:
            collected = dict(
                iter_shared_runs(
                    self.target, self.workload, entries, backend, share=sharing,
                    collect_coverage=collect_coverage, options=dict(options),
                )
            )
        finally:
            if owned:
                backend.close()

        missing = [index for index in range(len(scenario_list)) if index not in collected]
        if missing:
            # A backend dropping results is corrupted scheduling; silently
            # skipping the gaps would misattribute runs.
            raise RuntimeError(
                f"campaign executed {len(collected)} runs for "
                f"{len(scenario_list)} scenarios; no result for scenario indices "
                f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
            )
        for index, scenario in enumerate(scenario_list):
            campaign.outcomes.append(
                ScenarioOutcome(
                    scenario=scenario, workload=self.workload, result=collected[index]
                )
            )

        cache_after = artifact_cache_stats()
        memo_after = run_memo.stats() if run_memo is not None else MemoStats()
        campaign.stats = {
            "sharing": sharing,
            "backend": type(backend).__name__,
            "boot_template": {
                "hits": cache_after.boot_hits - cache_before.boot_hits,
                "misses": cache_after.boot_misses - cache_before.boot_misses,
                "shared_hits": (
                    cache_after.boot_shared_hits - cache_before.boot_shared_hits
                ),
            },
            "suffix_memo": {
                "hits": memo_after.hits - memo_before.hits,
                "misses": memo_after.misses - memo_before.misses,
                "stores": memo_after.stores - memo_before.stores,
                "evictions": memo_after.evictions - memo_before.evictions,
                "rejected": memo_after.rejected - memo_before.rejected,
                "entries": memo_after.entries,
                "bytes": memo_after.current_bytes,
            },
        }
        return campaign


__all__ = ["CampaignResult", "ScenarioOutcome", "TestCampaign"]
