"""mini_bind campaign harness — the BIND analog through the full dataplane.

The table experiments sweep all four systems at once; this module is the
single-target entry point for the BIND analog, mirroring how mini_git is
driven inside :mod:`repro.experiments.table1_bugs`.  One ``run()`` call
exercises the whole execution pipeline end to end — automatic call-site
analysis and scenario generation, snapshot-backed sessions, prefix-group
scheduling and run-to-completion pooled batches — against a single
mini_bind workload, and reports which of the target's known planted bugs
the campaign exposed.

``exploration=True`` switches from the one-scenario-per-site automatic
pipeline to the systematic fault-space sweep (exhaustive (site x errno)
enumeration with failure deduplication); ``store_path`` then makes the
sweep resumable across interrupted runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.controller import LFIController
from repro.core.controller.executor import ParallelismSpec
from repro.core.controller.report import BugCandidate
from repro.core.exploration.store import ResultStore
from repro.experiments.common import TableResult
from repro.targets.base import KnownBug
from repro.targets.mini_bind import MiniBindTarget


def _bug_matches(bug: KnownBug, candidates: List[BugCandidate]) -> bool:
    return any(
        candidate.function == bug.library_function and candidate.kind == bug.kind
        for candidate in candidates
    )


def run(
    workload: str = "default-tests",
    parallelism: ParallelismSpec = None,
    exploration: bool = False,
    include_checked: bool = True,
    store_path: Optional[str] = None,
    seed: Optional[int] = None,
) -> TableResult:
    """Run one automatic campaign (or fault-space sweep) against mini_bind.

    ``include_checked=True`` (the default) also injects at *checked* call
    sites — required to surface the ``dst_lib_init`` recovery-code abort,
    exactly as in the paper's BIND study.
    """
    target = MiniBindTarget()
    if workload not in target.workloads():
        raise ValueError(
            f"unknown mini_bind workload {workload!r}; "
            f"choose one of {target.workloads()}"
        )
    controller = LFIController(target)
    table = TableResult(
        name="mini_bind campaign",
        description=f"BIND analog fault-injection campaign [{workload}]",
        columns=["bug", "library function", "kind", "found"],
        paper_reference={"bind_bugs_reported": 2},
    )

    if exploration:
        # A path-less store is the in-memory one explore() would make.
        with ResultStore(store_path) as store:
            report = controller.explore(
                workload=workload,
                include_checked=include_checked,
                parallelism=parallelism,
                store=store,
                seed=seed,
            )
        candidates = report.to_bug_candidates()
        table.add_note(
            f"exploration: {report.executed} run, {report.resumed} resumed, "
            f"{len(report.unique_failures)} unique failures"
        )
    else:
        report = controller.test_automatically(
            workloads=[workload],
            include_checked=include_checked,
            parallelism=parallelism,
        )
        candidates = report.bugs
        campaign = report.campaigns[workload]
        table.add_note(
            f"campaign: {len(report.scenarios)} scenarios, "
            f"{len(candidates)} bug candidates"
        )
        histogram = campaign.by_kind()
        table.add_note(
            "outcomes: "
            + ", ".join(f"{kind.value}={count}" for kind, count in sorted(
                histogram.items(), key=lambda item: item[0].value))
        )

    found_count = 0
    for bug in target.known_bugs:
        found = _bug_matches(bug, candidates)
        found_count += int(found)
        table.add_row(
            bug=bug.identifier,
            **{"library function": bug.library_function},
            kind=bug.kind.value,
            found=found,
        )
    table.add_note(
        f"{found_count} of {len(target.known_bugs)} planted mini_bind bugs found"
    )
    return table


__all__ = ["run"]
