"""Table 1 — bugs found automatically by LFI.

For the compiled targets (mini_bind, mini_git, the PBFT checkpoint module)
the experiment runs the fully automatic pipeline: profile the libraries,
analyze the binary, generate injection scenarios (including scenarios for
*checked* sites, which is how recovery-code bugs like the BIND
``dst_lib_init`` abort surface), run the default test suite once per
scenario, and collect the crashes/aborts/data-loss events.

For the Python-level targets the experiment mirrors what the paper did:
a random-injection campaign against MySQL and targeted distributed-trigger
scenarios against the running PBFT deployment.

Each known (planted) bug is matched against the failures the campaign
exposed, so the table reports, per bug, whether LFI found it.

The whole experiment is one scenario x workload batch per system, so it
accepts a ``parallelism=`` spec (see
:func:`repro.core.controller.executor.resolve_backend`); one execution
backend is shared by every campaign, and the library profiles come from the
process-wide artifact cache, so only the first campaign pays the profiling
cost.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.core.controller import LFIController
from repro.core.exploration.store import ResultStore
from repro.core.controller.executor import (
    ExecutionBackend,
    ParallelismSpec,
    backend_scope,
    run_requests,
)
from repro.core.controller.monitor import OutcomeKind
from repro.core.controller.report import BugCandidate
from repro.core.controller.target import WorkloadRequest
from repro.experiments.common import TableResult
from repro.targets.base import KnownBug
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
from repro.targets.mini_mysql import MiniMySQLTarget
from repro.targets.mini_mysql.scenarios import (
    close_after_unlock_scenario,
    random_campaign_scenario,
)
from repro.targets.pbft import PBFTCheckpointTarget, PBFTTarget
from repro.targets.pbft.scenarios import checkpoint_fopen_scenario, recvfrom_failure_scenario


def _bug_matches(bug: KnownBug, candidates: List[BugCandidate]) -> bool:
    for candidate in candidates:
        if candidate.kind != bug.kind and not (
            bug.kind is OutcomeKind.CRASH and candidate.kind is OutcomeKind.CRASH
        ):
            continue
        if candidate.function == bug.library_function:
            return True
    return False


def _compiled_target_bugs(
    target,
    include_checked: bool = True,
    backend: Optional[ExecutionBackend] = None,
    exploration: bool = False,
    store: Optional[ResultStore] = None,
) -> List[BugCandidate]:
    controller = LFIController(target)
    if exploration:
        # Systematic sweep of the whole (site x errno) space instead of the
        # one-scenario-per-site pipeline; a shared *store* makes the sweep
        # resumable across interrupted experiment runs.
        report = controller.explore(
            workload="default-tests",
            include_checked=include_checked,
            parallelism=backend,
            store=store,
        )
        return report.to_bug_candidates()
    auto_report = controller.test_automatically(
        workloads=["default-tests"], include_checked=include_checked, parallelism=backend
    )
    return auto_report.bugs


def _mysql_bugs(
    random_tests: int = 40, backend: Optional[ExecutionBackend] = None
) -> List[BugCandidate]:
    """Random-injection campaign + the custom close-after-unlock trigger."""
    target = MiniMySQLTarget()
    candidates: Dict[Tuple[str, OutcomeKind], BugCandidate] = {}

    def note(function: str, outcome) -> None:
        if not outcome.is_high_impact:
            return
        key = (function, outcome.kind)
        if key not in candidates:
            candidates[key] = BugCandidate(
                target=target.name,
                function=function,
                location="",
                kind=outcome.kind,
                description=outcome.detail,
            )
        candidates[key].occurrences += 1

    # Build the whole random campaign up front (every scenario carries its
    # own seed), hand the batch to the backend, and fold the results back in
    # submission order — identical to the historical serial loop.
    functions = ("read", "close", "open", "write", "fcntl")
    requests: List[WorkloadRequest] = []
    task_functions: List[str] = []
    for index in range(random_tests):
        function = functions[index % len(functions)]
        scenario = random_campaign_scenario(function, probability=0.2, seed=index)
        for workload in ("startup", "merge-big"):
            requests.append(WorkloadRequest(workload=workload, scenario=scenario))
            task_functions.append(function)
    # The paper then wrote a call-stack / custom trigger to reproduce the
    # double-unlock crash deterministically.
    requests.append(
        WorkloadRequest(workload="merge-big", scenario=close_after_unlock_scenario(2))
    )
    task_functions.append("close")

    results = run_requests(target, requests, backend)
    for function, result in zip(task_functions, results):
        note(function, result.outcome)
    return list(candidates.values())


def _pbft_runtime_bugs(backend: Optional[ExecutionBackend] = None) -> List[BugCandidate]:
    target = PBFTTarget()
    results = run_requests(
        target,
        [
            WorkloadRequest(
                workload="simple",
                scenario=recvfrom_failure_scenario(nth=5),
                options={"requests": 5},
            ),
            WorkloadRequest(
                workload="simple",
                scenario=checkpoint_fopen_scenario(),
                options={"requests": 20},
            ),
        ],
        backend,
    )

    candidates: List[BugCandidate] = []
    if results[0].outcome.is_high_impact:
        candidates.append(
            BugCandidate(target="pbft", function="recvfrom", location="replica receive loop",
                         kind=results[0].outcome.kind, description=results[0].outcome.detail,
                         occurrences=1)
        )
    if results[1].outcome.is_high_impact:
        candidates.append(
            BugCandidate(target="pbft", function="fopen", location="replica checkpoint writer",
                         kind=results[1].outcome.kind, description=results[1].outcome.detail,
                         occurrences=1)
        )
    return candidates


def run(
    random_tests: int = 25,
    parallelism: ParallelismSpec = None,
    exploration: bool = False,
    store_dir: Optional[str] = None,
) -> TableResult:
    """Reproduce Table 1: which of the planted bugs does LFI expose?

    ``exploration=True`` drives the compiled targets through the
    fault-space exploration engine (exhaustive (site x errno) sweep with
    failure deduplication) instead of the one-scenario-per-site pipeline;
    ``store_dir`` additionally persists per-target result stores there, so
    an interrupted experiment resumes without re-running completed
    scenarios.
    """
    table = TableResult(
        name="Table 1",
        description="Bugs found automatically by LFI",
        columns=["system", "bug", "library function", "kind", "found"],
        paper_reference={"bugs_reported": 11},
    )

    opened: List[ResultStore] = []

    def target_store(name: str) -> Optional[ResultStore]:
        if not exploration or store_dir is None:
            return None
        opened.append(ResultStore(os.path.join(store_dir, f"table1-{name}.jsonl")))
        return opened[-1]

    backend, owned = backend_scope(parallelism)
    try:
        findings: Dict[str, List[BugCandidate]] = {
            "mini_bind": _compiled_target_bugs(
                MiniBindTarget(), backend=backend, exploration=exploration,
                store=target_store("mini_bind"),
            ),
            "mini_git": _compiled_target_bugs(
                MiniGitTarget(), backend=backend, exploration=exploration,
                store=target_store("mini_git"),
            ),
            "mini_mysql": _mysql_bugs(random_tests, backend=backend),
            "pbft": _pbft_runtime_bugs(backend=backend)
            + _compiled_target_bugs(
                PBFTCheckpointTarget(), backend=backend, exploration=exploration,
                store=target_store("pbft_checkpoint"),
            ),
        }
    finally:
        for store in opened:
            store.close()
        if owned:
            backend.close()

    all_known: List[KnownBug] = []
    all_known.extend(MiniBindTarget.known_bugs)
    all_known.extend(MiniGitTarget.known_bugs)
    all_known.extend(MiniMySQLTarget.known_bugs)
    all_known.extend(PBFTTarget.known_bugs)

    found_count = 0
    for bug in all_known:
        system_key = bug.system if bug.system in findings else "pbft"
        found = _bug_matches(bug, findings.get(system_key, []))
        found_count += int(found)
        table.add_row(
            system=bug.system,
            bug=bug.identifier,
            **{"library function": bug.library_function},
            kind=bug.kind.value,
            found=found,
        )
    table.add_note(
        f"{found_count} of {len(all_known)} planted bugs found "
        f"(the paper reports 11 previously unknown bugs across the four systems)"
    )
    return table


__all__ = ["run"]
