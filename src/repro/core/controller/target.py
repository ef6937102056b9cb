"""Adapter interface between the LFI controller and systems under test.

A target adapter knows how to (re)build a pristine instance of the system
under test — its binary or server object, a fresh simulated OS populated
with the fixtures the workload needs — wire a
:class:`~repro.core.injection.gate.LibraryCallGate` into it, run one of its
workloads, and report how the run ended.  The five simulated systems in
:mod:`repro.targets` implement this interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.core.controller.monitor import RunResult
from repro.core.injection.gate import LibraryCallGate
from repro.core.scenario.model import Scenario
from repro.isa.binary import BinaryImage


@dataclass
class WorkloadRequest:
    """One workload execution request."""

    workload: str = "default"
    scenario: Optional[Scenario] = None
    #: Observe-only mode evaluates triggers without injecting (§7.4).
    observe_only: bool = False
    #: Collect instruction coverage (compiled targets only).
    collect_coverage: bool = False
    #: Publish the run's final OS in ``stats["os"]`` (compiled targets
    #: only).  Campaigns and direct callers get it; explorations, which
    #: reduce each run to a stored record, turn it off and skip the capture.
    publish_os: bool = True
    #: Extra workload parameters (request counts, probabilities, ...).
    options: Dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class TargetAdapter(Protocol):
    """What the controller needs from a system under test."""

    name: str

    def workloads(self) -> List[str]:
        """Names of the workloads the target's test suite provides."""
        ...

    def binary(self) -> Optional[BinaryImage]:
        """The compiled binary, or ``None`` for Python-level targets."""
        ...

    def run(self, request: WorkloadRequest) -> RunResult:
        """Run one workload (optionally under a scenario) and classify it."""
        ...


def make_gate(scenario: Optional[Scenario], observe_only: bool = False,
              shared_objects: Optional[Dict[str, Any]] = None,
              run_seed: Optional[int] = None) -> LibraryCallGate:
    """Standard gate construction used by the target adapters.

    ``run_seed`` is the per-run seed a campaign threads through
    ``WorkloadRequest.options["run_seed"]`` (see
    :func:`repro.core.controller.executor.derive_run_seed`); it seeds
    otherwise-unseeded stochastic triggers so campaigns are reproducible.
    """
    from repro.core.injection.runtime import InjectionRuntime

    runtime = None
    if scenario is not None:
        runtime = InjectionRuntime(scenario, shared_objects=shared_objects, run_seed=run_seed)
    return LibraryCallGate(runtime=runtime, observe_only=observe_only)


__all__ = ["TargetAdapter", "WorkloadRequest", "make_gate"]
