"""Campaign specifications: the unit the fabric ships between processes.

A :class:`CampaignSpec` is everything needed to *independently* reconstruct
one exploration's fault space and engine — target (by registry name),
workload, strategy spec, seed, space filters — and nothing that is
execution-local (no backends, no pools, no store handles).  The
coordinator plans every campaign through a round planner from the spec and
its authoritative store ("spec + completed results determine the next
round", ``doc/ADAPTIVE.md``) and leases points as explicit
``(schedule index, point key)`` assignments; a worker only enumerates the
same fault space from the same spec and looks the keys up.  Per-run seeds
derive from the shipped index, so records stay byte-identical to a serial
run's.

:func:`spec_fingerprint` canonicalises a spec into a stable hash used to
deduplicate submissions and key worker-side engine caches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.space import FaultPoint
from repro.core.exploration.store import ResultStore


@dataclass
class CampaignSpec:
    """One exploration campaign, as named over the wire."""

    target: str
    workload: Optional[str] = None
    strategy: Optional[str] = None
    seed: Optional[int] = None
    functions: Optional[List[str]] = None
    include_partial: bool = True
    include_checked: bool = False
    #: Structured fault classes to sweep alongside the errno space (see
    #: :mod:`repro.core.faults`).  ``None`` sweeps errno faults only; a list
    #: appends every named class's enumerated points to the space.  Targets
    #: without a binary (Python-level servers) may run structured-only
    #: campaigns this way.
    fault_classes: Optional[List[str]] = None
    once: bool = True
    share_prefixes: Optional[bool] = None
    request_options: Dict[str, Any] = field(default_factory=dict)
    #: Coordinator-side checkpoint file (JSON-lines :class:`ResultStore`).
    #: ``None`` keeps the campaign in coordinator memory only — it then
    #: does not survive a coordinator restart.
    store_path: Optional[str] = None
    #: Points per worker shard lease; ``None`` uses the coordinator default.
    shard_size: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"campaign spec must be an object, got {type(payload).__name__}")
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown campaign spec fields: {sorted(unknown)}")
        if "target" not in payload or not payload["target"]:
            raise ValueError("campaign spec requires a 'target' name")
        return cls(**payload)


def validate_spec(spec: CampaignSpec) -> None:
    """Reject a spec naming things the fabric cannot resolve.

    The coordinator calls this at submit time: an unknown target, workload,
    strategy, or fault-class name would otherwise be accepted, sharded out,
    and crash every worker mid-campaign — far from the submitting client
    and long after the submit reply said "ok".  Raises :class:`ValueError`
    with the offending field and the known names.
    """
    from repro.core.exploration.strategy import resolve_strategy
    from repro.core.faults import class_names, is_structured_class
    from repro.targets import resolve_target, target_names

    try:
        target = resolve_target(spec.target)
    except ValueError:
        raise ValueError(
            f"unknown target {spec.target!r}; known targets: "
            f"{', '.join(target_names())}"
        )
    if spec.workload is not None:
        known_workloads = list(target.workloads())
        if spec.workload not in known_workloads:
            raise ValueError(
                f"unknown workload {spec.workload!r} for target "
                f"{spec.target!r}; known workloads: {', '.join(known_workloads)}"
            )
    try:
        resolve_strategy(spec.strategy)
    except (TypeError, ValueError) as exc:
        raise ValueError(str(exc))
    for klass in spec.fault_classes or ():
        if not is_structured_class(klass):
            raise ValueError(
                f"unknown fault class {klass!r}; known classes: "
                f"{', '.join(class_names())}"
            )


def spec_fingerprint(spec: CampaignSpec) -> str:
    """Stable identity of a spec (submission dedup, engine-cache key)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_engine(
    spec: CampaignSpec, store: Optional[ResultStore] = None
) -> Tuple[ExplorationEngine, List[FaultPoint]]:
    """Materialise (engine, fault space) from a spec.

    Both fabric roles call this: the coordinator (with its authoritative
    store) to plan rounds and resume, each worker (with no store — the
    coordinator owns persistence) to execute shard assignments.
    The call-site analysis comes from the process-wide artifact cache, so
    two roles in one process analyze the target image once.
    Imports are local because this is the one place the distributed layer
    reaches into the analysis/controller stack.
    """
    from repro.core.controller.controller import LFIController
    from repro.core.exploration.space import enumerate_structured_space
    from repro.targets import resolve_target

    target = resolve_target(spec.target)
    controller = LFIController(target)
    try:
        points = controller.fault_space(
            functions=spec.functions,
            include_partial=spec.include_partial,
            include_checked=spec.include_checked,
        )
    except ValueError:
        # Python-level targets have no binary to analyze; a structured-only
        # campaign is still well-defined for them.
        if not spec.fault_classes:
            raise
        points = []
    if spec.fault_classes:
        binary = getattr(target, "name", spec.target) or spec.target
        points = list(points) + enumerate_structured_space(
            binary, spec.fault_classes, functions=spec.functions
        )
    engine = ExplorationEngine(
        target,
        strategy=spec.strategy,
        store=store,
        seed=spec.seed,
        workload=spec.workload,
        once=spec.once,
        share_prefixes=spec.share_prefixes,
        request_options=dict(spec.request_options),
    )
    return engine, points


__all__ = ["CampaignSpec", "build_engine", "spec_fingerprint", "validate_spec"]
