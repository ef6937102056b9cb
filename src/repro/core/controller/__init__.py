"""The LFI controller (§2).

The controller coordinates the testing process: it interprets injection
scenarios, wires the trigger runtime into the library-call gate, invokes the
target's workload, monitors whether the program terminates normally or with
an error, collects the injection log, and turns crashes/aborts observed
under injection into bug candidates.
"""

from repro.core.controller.campaign import CampaignResult, ScenarioOutcome, TestCampaign
from repro.core.controller.controller import LFIController
from repro.core.controller.prefix import (
    iter_shared_runs,
    scenario_group_key,
    sharing_supported,
)
from repro.core.controller.executor import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
    run_requests,
)
from repro.core.controller.monitor import Outcome, OutcomeKind, RunResult, classify_exception
from repro.core.controller.report import BugCandidate, build_bug_report
from repro.core.controller.target import TargetAdapter, WorkloadRequest

__all__ = [
    "BugCandidate",
    "CampaignResult",
    "ExecutionBackend",
    "LFIController",
    "Outcome",
    "OutcomeKind",
    "ProcessPoolBackend",
    "RunResult",
    "ScenarioOutcome",
    "SerialBackend",
    "TargetAdapter",
    "TestCampaign",
    "WorkloadRequest",
    "build_bug_report",
    "classify_exception",
    "iter_shared_runs",
    "resolve_backend",
    "run_requests",
    "scenario_group_key",
    "sharing_supported",
]
