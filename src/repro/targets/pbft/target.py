"""Target adapters for the PBFT analog (Python cluster + compiled module)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.frozen import FrozenMap
from repro.core.controller.monitor import OutcomeKind, RunResult
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.scenario.model import Scenario
from repro.oslib.os_model import SimOS
from repro.targets.base import CompiledTarget, KnownBug, WorkloadStep
from repro.targets.pbft.checkpoint_source import PBFT_CHECKPOINT_SOURCE
from repro.targets.pbft.cluster import PBFTCluster

KNOWN_BUGS = (
    KnownBug(
        identifier="pbft-recvfrom-crash",
        system="pbft",
        library_function="recvfrom",
        kind=OutcomeKind.CRASH,
        description="Crash caused by a failed recvfrom call (replica parses an empty datagram).",
    ),
    KnownBug(
        identifier="pbft-fopen-fwrite-crash",
        system="pbft",
        library_function="fopen",
        kind=OutcomeKind.CRASH,
        description=(
            "Crash due to calling fwrite with the NULL pointer returned by a "
            "previously failed fopen while writing a checkpoint."
        ),
    ),
)


class PBFTTarget:
    """The running PBFT deployment (4 replicas, 1 client)."""

    name = "pbft"
    known_bugs = KNOWN_BUGS

    def binary(self):
        return None

    def workloads(self) -> List[str]:
        return ["simple", "long"]

    def make_cluster(
        self,
        scenario: Optional[Scenario] = None,
        shared_objects: Optional[Dict[str, Any]] = None,
        observe_only: bool = False,
        run_seed: Optional[int] = None,
    ) -> PBFTCluster:
        gate = make_gate(scenario, observe_only=observe_only, shared_objects=shared_objects,
                         run_seed=run_seed)
        return PBFTCluster(replicas=4, faults_tolerated=1, gate=gate)

    def run(self, request: WorkloadRequest) -> RunResult:
        options = request.options
        shared_objects = options.get("shared_objects")
        cluster = self.make_cluster(
            scenario=request.scenario,
            shared_objects=shared_objects,
            observe_only=request.observe_only,
            run_seed=options.get("run_seed"),
        )
        requests = int(options.get("requests", 20 if request.workload == "simple" else 80))
        workload_result = cluster.run_workload(requests=requests)
        gate = cluster.gate
        stats = {
            "calls": FrozenMap(gate.call_counts if gate is not None else {}),
            "requests_completed": workload_result.requests_completed,
            "simulated_seconds": workload_result.simulated_seconds,
            "throughput": workload_result.throughput,
            "rounds": workload_result.rounds,
            "messages_sent": workload_result.messages_sent,
            "view_changes": workload_result.view_changes,
            "state_transfers": workload_result.state_transfers,
            "crashed_replicas": workload_result.crashed_replicas,
            "cluster": cluster,
        }
        log = gate.log if gate is not None else None
        return RunResult(outcome=workload_result.outcome, log=log, stats=stats)


class PBFTCheckpointTarget(CompiledTarget):
    """The compiled checkpoint/state module (bft/bft-simple/simple-server analog)."""

    name = "pbft_simple_server"
    source_file = "pbft_checkpoint.c"
    known_bugs = (KNOWN_BUGS[1],)
    accuracy_functions = ("fopen",)

    def source(self) -> str:
        return PBFT_CHECKPOINT_SOURCE

    def make_os(self) -> SimOS:
        os = SimOS(self.name)
        fs = os.fs
        fs.make_dirs("/var/pbft/replica0")
        fs.make_dirs("/etc/pbft")
        fs.add_file("/etc/pbft/config", b"replicas=4\nf=1\n")
        fs.add_file("/var/pbft/replica0/periodic.ckp", b"seq=0\n")
        fs.add_file("/var/pbft/replica0/replica.log", b"log line\n" * 4)
        return os

    def workloads(self) -> List[str]:
        return ["default-tests", "shutdown"]

    def workload_plan(self, workload: str) -> List[WorkloadStep]:
        plans = {
            "default-tests": [
                WorkloadStep(args=(1,), description="periodic checkpoint cycle"),
                WorkloadStep(args=(2,), description="log rotation + shutdown checkpoint"),
            ],
            "shutdown": [WorkloadStep(args=(2,), description="shutdown checkpoint")],
        }
        if workload not in plans:
            raise KeyError(f"pbft_simple_server has no workload {workload!r}")
        return plans[workload]


__all__ = ["KNOWN_BUGS", "PBFTCheckpointTarget", "PBFTTarget"]
