"""Prefix-sharing campaign scheduling.

An LFI campaign runs one workload per fault scenario, and the analyzer
generates its scenarios in families: one per (call site x error return x
errno), all sharing the **same trigger composition** — same call-stack
frame, same singleton — and differing only in the fault injected.  Every
run in such a family executes an identical prefix (boot, fixtures, all
instructions up to the trigger site) before the armed injection diverges.

This module eliminates that redundancy at the schedule level:

1. **Grouping** — :func:`scenario_group_key_parts` fingerprints a
   scenario's trigger declarations and plan structure *without* the fault
   values; scenarios with equal base keys under one workload form a group
   whose members are interchangeable until the moment of injection.  The
   key is **hierarchical**: call-count variants of one site (scenarios
   identical except a single ``CallCountTrigger``'s ``nth``) share a base
   key and carry a *rank* — the count at which they diverge — so a group
   is a prefix *tree*, not just an errno family.
2. **Probe + resume** — the group's first member (lowest rank) runs
   normally through the :class:`~repro.targets.base.CompiledTarget`
   session API, and a snapshot-backed session captures the machine at
   the exact call where its trigger agrees to inject
   (:class:`~repro.vm.snapshot.MidRunCapture`), together with the gate
   state from before that call.  Every other member resumes one way: it
   restores the capture, grafts the pre-call gate state onto its own
   gate and **re-executes the call** through that gate, which injects the
   member's own fault (same rank) or passes the call through and runs on
   to the member's own, later injection point (a higher rank), where a
   *nested* capture serves that rank — each tree level pays only the
   suffix between divergence points.  The gate's inject branch, the stub
   of the paper's §6, is the one place any fault is applied.  A session
   without a boot template (snapshots off, the oracle) captures nothing,
   and its members run plain.
3. **Replication** — if the probe's trigger never fires, no member's fault
   can ever be injected either (ranks fire monotonically later), so every
   member's result *is* the probe's: results are immutable values
   (:class:`~repro.core.controller.monitor.RunResult`), so members share
   it instead of copying it.  Additionally, when an injected run's suffix
   never reads ``errno`` (detected via the libc errno-read counter),
   members differing from it only in the injected errno are **suffix
   replicas**: their results are the source's with its one injected log
   record replaced by one carrying the member's errno, bit-identical to
   running them.

Soundness rests on determinism: only scenarios built solely from
deterministic trigger classes (:data:`SAFE_TRIGGER_CLASSES` — no random
triggers, no ``@shared_object`` parameters) are grouped, and only targets
that declare ``prefix_shareable`` (deterministic modulo the injected fault)
participate: the compiled targets, whose session API the group path
drives.  The Python-level targets (mini_apache, mini_mysql, PBFT) declare
nothing, so their runs are never shared or memoized.  The same
determinism is what the suffix memo (:mod:`repro.core.controller.memo`)
keys on, so one derivation per scenario (:class:`ScenarioKeyParts`)
serves two views: every deterministic run is memoizable, and those whose
fault classes are also shareable may join a group.  Crash points and
budget ramps are the first kind only: they run alone, but through the
memo.  Both the parts and the memo key are derived before any task
exists and ride on the entry (:class:`Entry`): an exploration's come
from its campaign plan (:mod:`repro.core.exploration.plan`), any other
entry's from :func:`build_group_tasks`.

:func:`iter_shared_runs` is the one pipeline every campaign, exploration
and fabric shard runs through: :func:`build_group_tasks` turns the entries
into :class:`~repro.core.controller.executor.GroupTask` objects — with
sharing on, prefix groups and then the ungrouped entries as singleton
groups, every one run by :func:`run_entry_group` behind the memo; with
sharing off, unshared singletons that never touch the memo (the
per-scenario oracle) — and a backend drains them
(``run_group_batches_iter`` in :mod:`repro.core.controller.executor`;
pool workers each drain a batch of whole groups, so sharing composes with
the pool backends).  The differential suite asserts shared campaigns are
bit-identical to unshared ones, serial and pooled.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.controller.monitor import (
    Outcome,
    OutcomeKind,
    RunResult,
    classify_exit_status,
)
from repro.core.controller.target import TargetAdapter, WorkloadRequest, make_gate
from repro.core.faults import UNSHAREABLE_CLASSES
from repro.core.controller.memo import SuffixMemo, resolve_memo, suffix_memo
from repro.core.scenario.model import Scenario
from repro.coverage.tracker import CoverageTracker
from repro.vm.snapshot import MidRunCapture, capture_gate_state

#: Trigger classes whose behaviour is a deterministic function of the call
#: stream (no randomness, no cross-run state): scenarios composed solely of
#: these may share prefixes.
SAFE_TRIGGER_CLASSES = frozenset(
    {"CallStackTrigger", "CallCountTrigger", "SingletonTrigger"}
)

#: A group's identity: (base fingerprint, rank).  Members with equal base
#: fingerprints form one group; the rank orders their divergence points.
KeyParts = Tuple[str, Tuple[int, ...]]

#: Bytes in a memo key: a ``blake2b`` digest of the run's canonical key.
MEMO_KEY_BYTES = 16


# ----------------------------------------------------------------------
# grouping
# ----------------------------------------------------------------------
def _rankable_call_count(scenario: Scenario) -> Optional[str]:
    """Trigger id of the single rank-bearing CallCountTrigger, or ``None``.

    A scenario's call-count variants can share a sub-prefix only when the
    count is the *sole* thing ordering their divergence: exactly one
    ``CallCountTrigger`` (plain ``nth``, no ``every`` periodicity), exactly
    one injecting plan, and the trigger gating that plan and nothing else.
    Everything else keeps the count in the base key (flat grouping).
    """
    count_ids = [
        trigger_id
        for trigger_id, declaration in scenario.triggers.items()
        if declaration.class_name == "CallCountTrigger"
    ]
    if len(count_ids) != 1:
        return None
    trigger_id = count_ids[0]
    params = scenario.triggers[trigger_id].params
    if params.get("every") is not None:
        return None
    injecting = [plan for plan in scenario.plans if plan.fault is not None]
    if len(injecting) != 1 or trigger_id not in injecting[0].trigger_ids:
        return None
    if any(
        trigger_id in plan.trigger_ids for plan in scenario.plans if plan.fault is None
    ):
        return None
    return trigger_id


class ScenarioKeyParts(NamedTuple):
    """A scenario's trigger and plan fingerprint, read two ways.

    Derived once per scenario: by the campaign plan
    (:mod:`repro.core.exploration.plan`) for an exploration's points, by
    :func:`build_group_tasks` for any other entry.  *Determinism*: a
    scenario that has key parts at all runs as a deterministic function of
    them, its fault values and metadata (plus the target context), so its
    run can be memoized (:func:`scenario_keys`).  *Shareability*: when, on
    top of that, no plan's fault class is in
    :data:`~repro.core.faults.UNSHAREABLE_CLASSES`, it may also join a
    prefix group keyed by ``base`` and ordered by ``rank``.
    """

    #: Trigger declarations and plan structure, fault values left out.
    base: str
    #: The stripped call-count threshold (empty: no rank-bearing trigger).
    rank: Tuple[int, ...]
    #: True when the scenario may join a prefix group.
    shareable: bool


class Entry(NamedTuple):
    """One scheduling entry, with the keys the scheduler reads.

    Callers submit ``(index, scenario, seed)`` triples: the submission
    index, the scenario and its derived run seed.  An entry adds the
    scenario's key parts (``None``: its run is not deterministic) and its
    memo key under the task's memo context (``None``: not memoized).  Both
    are derived once, before any task exists — from the campaign plan for
    an exploration's points, by :func:`build_group_tasks` for other
    triples — and travel with the entry, so partitioning, the memo and the
    prefix tree read them and pool children derive nothing.
    """

    index: int
    scenario: Optional[Scenario]
    seed: Optional[int]
    parts: Optional[ScenarioKeyParts]
    memo_key: Optional[bytes]


def _derive_parts(scenario: Optional[Scenario]) -> Optional[ScenarioKeyParts]:
    """*scenario*'s key parts, or ``None`` when its run is not a
    deterministic function of them (or there is no scenario)."""
    if scenario is None:
        return None
    return _scenario_group_key_parts(scenario)


def scenario_group_key_parts(scenario: Optional[Scenario]) -> Optional[KeyParts]:
    """Hierarchical fingerprint of a scenario minus its fault values.

    ``None`` marks the scenario ineligible for sharing: no scenario at all,
    a trigger class outside the deterministic safe set, parameters that
    reference shared objects (``"@name"``) whose behaviour the scheduler
    cannot reason about, or a fault class that may not join a group.
    Otherwise returns ``(base_key, rank)``: scenarios with equal base keys
    run identically up to the *earliest* of their divergence points, and
    the rank — the stripped call-count threshold — orders those points (an
    empty rank means the scenarios diverge at the same point and differ
    only in the fault injected).
    """
    parts = _derive_parts(scenario)
    if parts is None or not parts.shareable:
        return None
    return parts.base, parts.rank


def _count_threshold(value: Any) -> Optional[int]:
    """A call-count parameter as ``int()`` reads it (``CallCountTrigger``
    does), or ``None`` when it is not a plain count."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str) and value.strip().isdecimal():
        return int(value)
    return None


def _scenario_group_key_parts(scenario: Scenario) -> Optional[ScenarioKeyParts]:
    """Derive *scenario*'s key parts (see :class:`ScenarioKeyParts`)."""
    rank_id = _rankable_call_count(scenario)
    rank: Tuple[int, ...] = ()
    trigger_parts: List[tuple] = []
    for trigger_id in sorted(scenario.triggers):
        declaration = scenario.triggers[trigger_id]
        if declaration.class_name not in SAFE_TRIGGER_CLASSES:
            return None
        if not all(isinstance(name, str) for name in declaration.params):
            return None
        params = sorted(declaration.params.items())
        for _, value in params:
            if isinstance(value, str) and value.startswith("@"):
                return None
        if trigger_id == rank_id:
            nth = _count_threshold(
                declaration.params.get("nth", declaration.params.get("count", 1))
            )
            if nth is None:
                return None
            rank = (nth,)
            params = [item for item in params if item[0] not in ("nth", "count")]
        trigger_parts.append((trigger_id, declaration.class_name, repr(params)))
    shareable = True
    plan_parts = []
    for plan in scenario.plans:
        fault_class = plan.fault.fault_class if plan.fault is not None else None
        if fault_class in UNSHAREABLE_CLASSES:
            # Stateful fault classes (ramps arm over the whole run, network
            # faults mutate shared delivery state, crash points unwind the
            # world): a shared prefix cannot stand in for their full runs,
            # but each run is still deterministic and memoizable.
            shareable = False
        plan_parts.append(
            (plan.function, tuple(plan.trigger_ids), plan.fault is not None,
             plan.argc, fault_class)
        )
    base = repr((tuple(trigger_parts), tuple(plan_parts)))
    return ScenarioKeyParts(base, rank, shareable)


def scenario_group_key(scenario: Optional[Scenario]) -> Optional[str]:
    """The base (rank-free) group fingerprint, or ``None`` when unshareable."""
    parts = scenario_group_key_parts(scenario)
    return None if parts is None else parts[0]


def scenario_group_rank(scenario: Optional[Scenario]) -> Tuple[int, ...]:
    """The scenario's divergence rank within its group (empty = earliest)."""
    parts = scenario_group_key_parts(scenario)
    return () if parts is None else parts[1]


def _keyed_entry(entry: Sequence[Any], memo_context: Optional[bytes]) -> Entry:
    """Key one submitted ``(index, scenario, seed)`` triple: its key parts
    and, under *memo_context*, its memo key (one derivation each)."""
    index, scenario, seed = entry
    parts, member = scenario_keys(scenario)
    memo_key = None
    if memo_context is not None and member is not None:
        memo_key = _memo_digest(memo_context, member)
    return Entry(index, scenario, seed, parts, memo_key)


def partition_entries(
    entries: Sequence[Any],
) -> Tuple[List[List[Entry]], List[Entry]]:
    """Split schedule entries into prefix groups and ungrouped leftovers.

    Groups come back in first-appearance order; members within a group are
    ordered by (rank, submission index) so the first member — the probe —
    is the one whose trigger fires earliest.  Ungrouped entries (no
    scenario, unsafe triggers) keep their submission order.  Entries come
    back keyed: a plain ``(index, scenario, seed)`` triple is keyed here,
    without a memo key.
    """
    groups: Dict[str, List[Entry]] = {}
    ungrouped: List[Entry] = []
    for entry in entries:
        if not isinstance(entry, Entry):
            entry = _keyed_entry(entry, None)
        parts = entry.parts
        if parts is None or not parts.shareable:
            ungrouped.append(entry)
            continue
        groups.setdefault(parts.base, []).append(entry)
    ordered_groups = [
        sorted(members, key=lambda entry: (entry.parts.rank, entry.index))
        for members in groups.values()
    ]
    return ordered_groups, ungrouped


def build_group_tasks(
    target: TargetAdapter,
    workload: str,
    entries: Sequence[Any],
    collect_coverage: bool = False,
    options: Optional[Dict[str, Any]] = None,
    observe_only: bool = False,
    share: bool = True,
    publish_os: bool = True,
    memo_context: Optional[bytes] = None,
) -> List["GroupTask"]:
    """Turn schedule entries into backend-ready tasks.

    With *share*, every task is a shared
    :class:`~repro.core.controller.executor.GroupTask` that runs through
    :func:`run_entry_group` and so through the suffix memo: each prefix
    group becomes one task (the worker shares the prefix internally), in
    first-appearance order, and the ungrouped entries follow as singleton
    groups — a memo lookup, one plain run on a miss, then a store when the
    run is deterministic (crash points and budget ramps are).  Without
    *share* every entry is an unshared singleton, as given, in submission
    order: the per-scenario oracle, which never reaches the suffix memo or
    :func:`run_entry_group`.

    Entries arrive in one of two forms.  A keyed :class:`Entry` — what the
    exploration engine builds from its campaign plan — already carries its
    key parts and memo key, derived under *memo_context*.  A plain
    ``(index, scenario, seed)`` triple is keyed here, once; when some
    triple needs a memo context and none was given, the context —
    everything in a memo key but the member's own scenario, the same for
    every task one call emits — is derived here, once.  Every task carries
    the context (``None`` when the memo is off or the target is not
    deterministic).
    """
    from repro.core.controller.executor import GroupTask

    options = dict(options or {})
    context: Optional[bytes] = None
    if share:
        context = memo_context
        if context is None and not all(isinstance(entry, Entry) for entry in entries):
            context = resolve_memo_context(
                target, workload, collect_coverage, options, observe_only, publish_os
            )
        groups, ungrouped = partition_entries([
            entry if isinstance(entry, Entry) else _keyed_entry(entry, context)
            for entry in entries
        ])
        units = groups + [[entry] for entry in ungrouped]
    else:
        units = [[entry] for entry in entries]
    return [
        GroupTask(
            index=task_index,
            target=target,
            workload=workload,
            entries=members,
            collect_coverage=collect_coverage,
            options=options,
            observe_only=observe_only,
            shared=share,
            publish_os=publish_os,
            memo_context=context,
        )
        for task_index, members in enumerate(units)
    ]


def sharing_supported(target: TargetAdapter) -> bool:
    """True when *target* declares deterministic, shareable execution."""
    return bool(getattr(target, "prefix_shareable", False))


def resolve_sharing(share_prefixes: Optional[bool], target: TargetAdapter) -> bool:
    """Resolve a ``share_prefixes`` knob against the target's declaration.

    ``None`` auto-detects (sharing iff the target declares
    ``prefix_shareable``); ``False`` forces the reference path; ``True``
    demands sharing and **raises** when the target does not declare
    deterministic execution — grouping a non-shareable target would
    silently produce results the per-scenario path cannot reproduce.
    """
    if share_prefixes is None:
        return sharing_supported(target)
    if share_prefixes and not sharing_supported(target):
        raise ValueError(
            f"share_prefixes=True requires a prefix_shareable target, but "
            f"{getattr(target, 'name', target)!r} does not declare "
            "deterministic (prefix-shareable) execution"
        )
    return bool(share_prefixes)


# ----------------------------------------------------------------------
# suffix memo keys
# ----------------------------------------------------------------------
#: Request options that cannot change a memoizable run's observables and
#: are therefore excluded from memo keys.  ``run_seed`` is the deliberate
#: one: memoizable scenarios are built solely from
#: :data:`SAFE_TRIGGER_CLASSES`, which never consult the seed, so keying
#: on it would split cache lines between specs/strategies that derive
#: different seeds for identical runs (the differential suite pins exactly
#: this seed-independence).  ``memo`` is a pure scheduling knob.
_MEMO_NEUTRAL_OPTIONS = frozenset({"run_seed", "memo", "engine", "snapshots"})


def _memo_context(
    target: TargetAdapter,
    workload: str,
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool,
    publish_os: bool,
) -> Optional[bytes]:
    """The member-invariant part of a memo key, or ``None`` (uncacheable).

    Everything here is constant across one pipeline call's members —
    target and binary identity, workload, resolved engine/snapshot knobs,
    the libc spec fingerprint, whether runs collect coverage or publish
    their OS, and the conservative fold of unknown request options — so
    it is derived once per call, never per task or member.  It comes back
    canonical: the ``repr`` of the context tuple, as bytes, which every
    member's digest starts from (:func:`_memo_digest`).
    """
    if not sharing_supported(target):
        return None
    # Lazy imports: cache/targets sit beside (not below) the prefix
    # scheduler in the module graph.
    from repro.core.profiler.cache import libc_spec_fingerprint
    from repro.targets.base import default_snapshots
    from repro.vm.machine import resolve_engine

    snapshots = options.get("snapshots")
    if snapshots is None:
        snapshots = default_snapshots()
    binary = target.binary() if hasattr(target, "binary") else None
    extra = tuple(
        sorted(
            (name, repr(value))
            for name, value in options.items()
            if name not in _MEMO_NEUTRAL_OPTIONS
        )
    )
    return repr((
        getattr(target, "name", str(target)),
        # The compiled image's content identity, never its `id`: a
        # recompile after `_binary_cache` is cleared may reuse the address
        # of another program's image.
        binary.content_digest() if binary is not None else None,
        workload,
        resolve_engine(options.get("engine")),
        bool(snapshots),
        libc_spec_fingerprint(),
        bool(collect_coverage),
        bool(observe_only),
        bool(publish_os),
        extra,
    )).encode("utf-8")


def resolve_memo_context(
    target: TargetAdapter,
    workload: str,
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
    publish_os: bool = True,
) -> Optional[bytes]:
    """The memo context one pipeline call keys its runs under, or ``None``
    when the memo is off (``options["memo"]``, ``REPRO_MEMO``) or the
    target is not deterministic."""
    if resolve_memo(options) is None:
        return None
    return _memo_context(
        target, workload, collect_coverage, options, observe_only, publish_os
    )


def _memo_member(scenario: Scenario, parts: ScenarioKeyParts) -> bytes:
    """The member part of *scenario*'s memo keys, canonical: the ``repr``
    of its group base and rank, every plan's fault and its metadata."""
    faults = tuple(
        None
        if plan.fault is None
        else (
            plan.fault.fault_class,
            plan.fault.return_value,
            plan.fault.errno,
            repr(plan.fault.params),
            repr(sorted(plan.fault.side_effects.items())),
        )
        for plan in scenario.plans
    )
    return repr((
        parts.base,
        parts.rank,
        faults,
        repr(getattr(scenario, "metadata", None) or None),
    )).encode("utf-8")


def scenario_keys(
    scenario: Optional[Scenario],
) -> Tuple[Optional[ScenarioKeyParts], Optional[bytes]]:
    """*scenario*'s key parts and the member part of its memo keys, one
    derivation of each (``(None, None)``: its run is not deterministic).

    Every deterministic run is memoizable — only safe trigger classes, no
    ``@`` parameters — whether or not it may join a prefix group (crash
    points and budget ramps may not, but are keyed all the same).  The
    member part is the capture identity (group base key and rank: trigger
    classes and parameters, a ramp's ``every`` and ``nth``, plan structure
    with fault classes), every plan's ``(class, return value, errno,
    params, side effects)`` and the scenario metadata (a crash point's
    recovery workload).  The rest of a key is the pipeline call's memo
    context (:func:`resolve_memo_context`), and a key is the
    :data:`MEMO_KEY_BYTES`-byte digest of both (:func:`memo_keys_of`).  The
    per-run seed stays out: safe triggers never read it.
    """
    parts = _derive_parts(scenario)
    if parts is None:
        return None, None
    return parts, _memo_member(scenario, parts)


def _memo_digest(context: bytes, member: bytes) -> bytes:
    """One run's memo key: a digest of its canonical context and member
    parts (both reprs, so the newline between them cannot occur inside
    either)."""
    return hashlib.blake2b(
        context + b"\n" + member, digest_size=MEMO_KEY_BYTES
    ).digest()


def memo_keys_of(
    context: bytes, members: Sequence[Optional[bytes]]
) -> Tuple[Optional[bytes], ...]:
    """The memo key of every member part under *context* (``None`` stays
    ``None``: that run is not memoized)."""
    return tuple(
        None if member is None else _memo_digest(context, member)
        for member in members
    )


# ----------------------------------------------------------------------
# result plumbing
# ----------------------------------------------------------------------
def seeded_options(options: Dict[str, Any], seed: Optional[int]) -> Dict[str, Any]:
    merged = dict(options)
    if seed is not None:
        merged.setdefault("run_seed", seed)
    return merged


def plain_run(
    target: TargetAdapter,
    workload: str,
    scenario: Optional[Scenario],
    seed: Optional[int],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
    publish_os: bool = True,
) -> RunResult:
    """One run on the plain per-scenario path: a single ``target.run``,
    with no memo and no prefix machinery (an unshared task's run)."""
    return target.run(
        WorkloadRequest(
            workload=workload,
            scenario=scenario,
            observe_only=observe_only,
            collect_coverage=collect_coverage,
            publish_os=publish_os,
            options=seeded_options(options, seed),
        )
    )


# ----------------------------------------------------------------------
# errno-blind suffix replication
# ----------------------------------------------------------------------
def errno_sibling_positions(
    source: Scenario, member: Scenario
) -> Optional[List[int]]:
    """Plan positions where *member* differs from *source* in errno only.

    ``None`` means the two scenarios are not errno siblings: their plans
    differ in something other than the injected errno (return value,
    structure), so a suffix replica of one cannot stand in for the other.
    An empty list means the faults are identical.
    """
    if len(source.plans) != len(member.plans):
        return None
    positions: List[int] = []
    for index, (ours, theirs) in enumerate(zip(source.plans, member.plans)):
        if ours.fault == theirs.fault:
            continue
        if ours.fault is None or theirs.fault is None:
            return None
        if ours.fault.return_value != theirs.fault.return_value:
            return None
        if ours.fault.fault_class != theirs.fault.fault_class:
            return None
        if ours.fault.params != theirs.fault.params:
            return None
        positions.append(index)
    return positions


def patch_replica_errno(
    source_result: RunResult, source: Scenario, member: Scenario
) -> Optional[RunResult]:
    """Suffix replica of *source_result* with the member's errno in the log.

    Only valid when the source's suffix never read errno (the caller checks
    the libc errno-read counter): the runs are then instruction-identical
    and differ solely in the errno recorded for the injected fault, so the
    replica is the source's result with that one record replaced — every
    other part of the value is shared.  Returns ``None`` when the log shape
    does not allow an unambiguous patch (no injection, several injections,
    or no matching plan fault).
    """
    positions = errno_sibling_positions(source, member)
    if positions is None:
        return None
    log = source_result.log
    records = log.records if log is not None else ()
    injected = [
        position for position, record in enumerate(records)
        if record.injected and record.fault is not None
    ]
    if len(injected) != 1:
        return None
    position = injected[0]
    record = records[position]
    matches = [
        index for index in positions if source.plans[index].fault == record.fault
    ]
    if positions and len(matches) != 1:
        return None
    if not matches:
        return source_result
    member_fault = member.plans[matches[0]].fault
    patched = replace(record, fault=replace(record.fault, errno=member_fault.errno))
    return replace(
        source_result,
        log=replace(
            log, records=records[:position] + (patched,) + records[position + 1:]
        ),
    )


def _errno_read_counter(libc: Any) -> Optional[int]:
    """The libc's errno-read counter, or ``None`` when it does not count."""
    reads = getattr(libc, "errno_reads", None)
    return reads if isinstance(reads, int) else None


# ----------------------------------------------------------------------
# member gate re-arming (prefix trees)
# ----------------------------------------------------------------------
def rearm_member_triggers(gate: Any, scenario: Scenario) -> None:
    """Re-apply a member's own trigger parameters after a gate graft.

    :func:`~repro.vm.snapshot.graft_gate_state` installs the *probe's*
    trigger instances (with their accumulated counters) onto a member's
    gate.  Within a flat group the configurations are identical, but a
    ranked member's call-count threshold differs — ``init`` re-applies the
    declared parameters while the stock triggers' mutable counters
    (observed calls, grants, match counts) survive untouched, which is
    exactly the state the member's own run would hold at the graft point.
    """
    runtime = getattr(gate, "runtime", None)
    if runtime is None:
        return
    instances = getattr(runtime, "_instances", None)
    if not isinstance(instances, dict):
        return
    for trigger_id, declaration in scenario.triggers.items():
        instance = instances.get(trigger_id)
        if instance is not None:
            instance.init(dict(declaration.params))


# ----------------------------------------------------------------------
# group execution (session targets)
# ----------------------------------------------------------------------
class _Divergence(NamedTuple):
    """Where a prefix tree's members resume: one injection point.

    The machine captured inside the intercepted call at which a shared
    prefix ends, the gate state snapshotted *before* that call was counted
    or decided, and the workload step the call sits in with the outcome
    accumulated before that step.
    """

    capture: MidRunCapture
    gate_state: Dict[str, Any]
    step: int
    prior_outcome: Outcome


def _arm_divergence_capture(
    session: Any,
    gate: Any,
    step: int = 0,
    prior_outcome: Optional[Outcome] = None,
) -> Tuple[Dict[str, Optional[_Divergence]], Any]:
    """Arm *gate* to capture the run at its first injection.

    Returns the mailbox whose ``"point"`` the gate's observers fill with a
    :class:`_Divergence`, and the ``execute_plan`` boundary hook that
    tracks the step index and the outcome accumulated before each step
    (*step* and *prior_outcome* seed both for a run resumed mid-step).
    The call observer snapshots the gate before every handled call — cheap
    by design, see :func:`~repro.vm.snapshot.capture_gate_state` — and the
    inject observer pairs the latest snapshot with a
    :class:`~repro.vm.snapshot.MidRunCapture`, then disarms both.  A
    session without a boot template captures nothing: its group's members
    run plain.
    """
    mailbox: Dict[str, Optional[_Divergence]] = {"point": None}
    track: Dict[str, Any] = {
        "step": step,
        "outcome": prior_outcome or Outcome(kind=OutcomeKind.NORMAL),
        "gate": None,
    }

    def hook(index: int, steps_run: int, outcome: Outcome) -> None:
        track["step"] = index
        track["outcome"] = outcome

    template = session.template
    if template is None:
        return mailbox, hook

    def observe_call(name: str, args: tuple) -> None:
        track["gate"] = capture_gate_state(gate)

    def observe_injection(name, args, count, ctx, decision) -> None:
        gate.call_observer = gate.inject_observer = None
        machine = ctx.extras.get("machine")
        if track["gate"] is None or machine is not template.machine:
            return
        mailbox["point"] = _Divergence(
            MidRunCapture(machine, base_level=template.boot.base_level),
            track["gate"],
            track["step"],
            track["outcome"],
        )

    gate.call_observer = observe_call
    gate.inject_observer = observe_injection
    return mailbox, hook


def _complete_member_run(
    target: Any,
    session: Any,
    plan: Sequence[Any],
    gate: Any,
    coverage: Any,
    status: Any,
    step_index: int,
    prior_outcome: Outcome,
    boundary_hook=None,
) -> RunResult:
    """Classify a resumed step's exit and run the remaining plan steps."""
    steps_run = step_index + 1
    outcome = prior_outcome
    step_outcome = classify_exit_status(status)
    if step_outcome.kind in (OutcomeKind.CRASH, OutcomeKind.ABORT, OutcomeKind.HANG):
        outcome = step_outcome
        if coverage is not None:
            coverage.finish_run()
    else:
        if step_outcome.kind is OutcomeKind.ERROR_EXIT and outcome.kind is OutcomeKind.NORMAL:
            outcome = step_outcome
        outcome, steps_run = target.execute_plan(
            session, plan, gate, coverage,
            start_index=step_index + 1, outcome=outcome,
            boundary_hook=boundary_hook,
        )
    return target.finalize_run(session, gate, coverage, outcome, steps_run)


def _resume_member(
    target: Any,
    session: Any,
    plan: Sequence[Any],
    point: _Divergence,
    scenario: Scenario,
    seed: Optional[int],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
    nest: bool = False,
) -> Tuple[RunResult, Optional[_Divergence]]:
    """Run one group member from *point* through its own gate.

    The capture was taken inside the intercepted call at which a shared
    prefix ends.  The machine is restored there with the gate state from
    *before* that call, grafted onto the member's own gate and re-armed
    with its own trigger parameters; then the machine is rolled back one
    instruction and resumed, so the call **re-executes** through the
    member's gate.  Counting, trigger evaluation, and the member's own
    injection — at this call for a same-rank member, at a later one for a
    member that advances the rank, which passes this call through — all
    happen on the gate's normal path, which applies every fault class as a
    full run does; that is what keeps the result bit-identical to one.
    Every instruction of the common prefix is skipped.  With *nest*, the
    member's own injection point is captured as well and returned beside
    the result (``None`` without *nest* or without an injection): it
    serves the member's rank siblings and the deeper ranks.
    """
    gate = make_gate(
        scenario, observe_only=observe_only,
        run_seed=seeded_options(options, seed).get("run_seed"),
    )
    coverage = CoverageTracker() if collect_coverage else None
    capture = point.capture
    machine = capture.restore(gate, coverage, point.gate_state)
    rearm_member_triggers(gate, scenario)

    # Roll the machine back to *before* the call instruction: the capture
    # was taken mid-call, after the step/trace/coverage bookkeeping for it
    # already ran, and re-execution repeats all three.
    machine.pc = capture.pc
    machine.steps -= 1
    if machine.trace is not None and machine.trace and machine.trace[-1] == capture.pc:
        machine.trace.pop()
    if coverage is not None:
        coverage.unrecord(capture.pc)

    mailbox: Dict[str, Optional[_Divergence]] = {"point": None}
    hook = None
    if nest:
        mailbox, hook = _arm_divergence_capture(
            session, gate, point.step, point.prior_outcome
        )
    status = machine.resume()
    result = _complete_member_run(
        target, session, plan, gate, coverage, status,
        point.step, point.prior_outcome, boundary_hook=hook,
    )
    gate.call_observer = gate.inject_observer = None
    return result, mailbox["point"]


def _run_group_with_sessions(
    target: Any,
    workload: str,
    members: Sequence[Entry],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
    publish_os: bool = True,
) -> Dict[int, RunResult]:
    """Prefix-tree execution for session-capable (compiled) targets.

    The probe (first member, lowest rank) runs in full and, on a
    snapshot-backed session, captures its first injection point
    (:func:`_arm_divergence_capture`).  Every other member is a replica —
    of the probe when it never injected, of the rank that never fired, or
    of an errno-blind sibling — or resumes from the active capture through
    its own gate (:func:`_resume_member`); a member that advances the rank
    nests a capture at its own injection point for the members after it.
    A session without a boot template (snapshots off) captures nothing,
    so its members run plain.
    """
    results: Dict[int, RunResult] = {}
    plan = target.workload_plan(workload)
    engine = options.get("engine")
    snapshots = options.get("snapshots")
    ranks = [() if entry.parts is None else entry.parts.rank for entry in members]
    probe_index, probe_scenario, probe_seed = members[0][:3]

    session = target.open_session(
        workload,
        engine=engine,
        snapshots=None if snapshots is None else bool(snapshots),
        publish_os=publish_os,
    )
    try:
        probe_gate = make_gate(
            probe_scenario,
            observe_only=observe_only,
            run_seed=seeded_options(options, probe_seed).get("run_seed"),
        )
        probe_coverage = CoverageTracker() if collect_coverage else None
        mailbox, hook = _arm_divergence_capture(session, probe_gate)
        outcome, steps_run = target.execute_plan(
            session, plan, probe_gate, probe_coverage, boundary_hook=hook
        )
        probe_gate.call_observer = probe_gate.inject_observer = None
        results[probe_index] = target.finalize_run(
            session, probe_gate, probe_coverage, outcome, steps_run
        )

        if not probe_gate.injected_calls:
            # No fault was ever applied — either the shared trigger never
            # agreed, or the gate observes without injecting.  Ranks only
            # fire later than the probe's, so no member's fault can apply
            # either and all runs are identical: every member's result is
            # the probe's value.
            for entry in members[1:]:
                results[entry.index] = results[probe_index]
            return results

        # The active divergence point, the rank it belongs to, and — for
        # errno-blind suffix replication — the run whose suffix it anchors
        # plus that suffix's errno-read delta.
        libc = getattr(session, "libc", None)
        reads_end = _errno_read_counter(libc) if libc is not None else None
        # The compiled engine counts errno reads via predecode-specialized
        # absolute loads; a program that materializes errno's address
        # (``&errno``) can read it through a pointer the specialization
        # cannot see, so the counter — and therefore blindness — is only
        # trusted for images that provably never take the address.
        binary = getattr(session, "binary", None)
        counter_reliable = binary is not None and not getattr(
            binary, "errno_address_taken", True
        )

        def suffix_blind(point: Optional[_Divergence]) -> bool:
            if point is None or not counter_reliable:
                return False
            captured = point.capture.libc_errno_reads
            if reads_end is None or captured is None:
                return False
            return reads_end == captured

        point = mailbox["point"]
        active = {
            "point": point,
            "rank": ranks[0],
            "source_index": probe_index,
            "source_scenario": probe_scenario,
            "source_blind": probe_gate.injected_calls == 1 and suffix_blind(point),
        }
        dead = False  # a later-rank member never injected: the rest cannot

        for position, (index, scenario, seed, _parts, _key) in enumerate(
            members[1:], start=1
        ):
            if dead:
                results[index] = results[active["source_index"]]
                continue
            if active["point"] is None:
                results[index] = plain_run(
                    target, workload, scenario, seed, collect_coverage,
                    options, observe_only=observe_only, publish_os=publish_os,
                )
                continue
            advances = ranks[position] != active["rank"]
            if not advances and active["source_blind"]:
                replica = patch_replica_errno(
                    results[active["source_index"]],
                    active["source_scenario"],
                    scenario,
                )
                if replica is not None:
                    results[index] = replica
                    continue
            result, nested = _resume_member(
                target, session, plan, active["point"],
                scenario, seed, collect_coverage, options,
                observe_only=observe_only, nest=advances,
            )
            results[index] = result
            reads_end = _errno_read_counter(libc) if libc is not None else None
            if not advances:
                if not active["source_blind"]:
                    active.update(
                        source_index=index,
                        source_scenario=scenario,
                        source_blind=suffix_blind(active["point"]),
                    )
                continue
            if result.injections == 0:
                # This member's (earliest-remaining) trigger never fired,
                # so no later member's can either: replicate from here on.
                dead = True
                active.update(source_index=index, source_scenario=scenario)
                continue
            # Rank advance: this member's injection point, captured on the
            # way, is where its rank siblings and the deeper ranks resume.
            active = {
                "point": nested,
                "rank": ranks[position],
                "source_index": index,
                "source_scenario": scenario,
                "source_blind": result.injections == 1 and suffix_blind(nested),
            }
        return results
    finally:
        session.close()


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
def run_entry_group(
    target: TargetAdapter,
    workload: str,
    members: Sequence[Entry],
    collect_coverage: bool = False,
    options: Optional[Dict[str, Any]] = None,
    observe_only: bool = False,
    publish_os: bool = True,
    memo_context: Optional[bytes] = None,
) -> Dict[int, RunResult]:
    """Execute one prefix group; the unit of work a shared task runs.

    Members are keyed :class:`Entry` values that share a group base key
    and are ordered by rank (what :func:`partition_entries` produces), or
    a single entry — an ungrouped entry is a group of one.  A
    single-member group runs on the plain per-scenario path, after its
    memo lookup.

    *memo_context* is the task's memo context (:func:`build_group_tasks`
    derives it once per pipeline call, and only when the memo is on);
    ``None`` bypasses the suffix memo (:mod:`repro.core.controller.memo`)
    entirely, which is the differential oracle path.  Otherwise the memo —
    the :class:`~repro.core.controller.memo.SuffixMemo` in
    ``options["memo"]`` if there is one, else the process memo — is
    consulted per member under the member's own memo key before anything
    executes: a hit is the stored result itself — results are immutable
    values, so nothing is copied — and only the missing members, still a
    rank-ordered subset of the group that the prefix-tree machinery
    executes bit-identically to the full group, actually run.  Their fresh
    results are stored on the way out.
    """
    options = options or {}
    if memo_context is None:
        return _run_entry_group_paths(
            target, workload, members, collect_coverage, options, observe_only,
            publish_os,
        )
    knob = options.get("memo")
    memo = knob if isinstance(knob, SuffixMemo) else suffix_memo()
    results: Dict[int, RunResult] = {}
    misses: List[Entry] = []
    for entry in members:
        if entry.memo_key is not None:
            hit = memo.lookup(entry.memo_key)
            if hit is not None:
                results[entry.index] = hit
                continue
        misses.append(entry)
    if misses:
        fresh = _run_entry_group_paths(
            target, workload, misses, collect_coverage, options, observe_only,
            publish_os,
        )
        for entry in misses:
            result = fresh[entry.index]
            if entry.memo_key is not None:
                memo.store(entry.memo_key, result)
            results[entry.index] = result
    return results


def _run_entry_group_paths(
    target: TargetAdapter,
    workload: str,
    members: Sequence[Entry],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
    publish_os: bool = True,
) -> Dict[int, RunResult]:
    if len(members) == 1:
        index, scenario, seed = members[0][:3]
        return {
            index: plain_run(
                target, workload, scenario, seed, collect_coverage, options,
                observe_only=observe_only, publish_os=publish_os,
            )
        }
    return _run_group_with_sessions(
        target, workload, members, collect_coverage, options,
        observe_only=observe_only, publish_os=publish_os,
    )


def iter_shared_runs(
    target: TargetAdapter,
    workload: str,
    entries: Sequence[Any],
    backend: "ExecutionBackend",
    share: bool = True,
    collect_coverage: bool = False,
    options: Optional[Dict[str, Any]] = None,
    observe_only: bool = False,
    publish_os: bool = True,
    memo_context: Optional[bytes] = None,
) -> Iterator[Tuple[int, RunResult]]:
    """Run every entry on *backend*: the one execution pipeline.

    *share* is the resolved sharing decision (:func:`resolve_sharing`):
    with it, entries in one scenario group share their prefix and every
    entry, grouped or not, goes through the suffix memo; without it,
    every entry runs on the plain per-scenario path, memo-free.  Yields
    ``(submission index, result)`` pairs as the backend drains them —
    task by task on the serial backend, batch by batch on a pool — so
    callers can checkpoint incrementally.  The pairs cover every entry
    exactly once, and each result is bit-identical to what the plain
    per-scenario path produces.  ``publish_os=False`` leaves the final OS
    out of every result's stats (explorations reduce each run to a stored
    record and never read it).  *entries* and *memo_context* are what
    :func:`build_group_tasks` takes: ``(index, scenario, seed)`` triples,
    or keyed :class:`Entry` values with the context they were keyed under.
    """
    tasks = build_group_tasks(
        target, workload, entries, collect_coverage=collect_coverage,
        options=options, observe_only=observe_only, share=share,
        publish_os=publish_os, memo_context=memo_context,
    )
    for _unit, results in backend.run_group_batches_iter(tasks):
        for index in sorted(results):
            yield index, results[index]


__all__ = [
    "MEMO_KEY_BYTES",
    "SAFE_TRIGGER_CLASSES",
    "Entry",
    "ScenarioKeyParts",
    "build_group_tasks",
    "errno_sibling_positions",
    "iter_shared_runs",
    "memo_keys_of",
    "partition_entries",
    "patch_replica_errno",
    "plain_run",
    "rearm_member_triggers",
    "resolve_memo_context",
    "resolve_sharing",
    "run_entry_group",
    "scenario_group_key",
    "scenario_group_key_parts",
    "scenario_group_rank",
    "scenario_keys",
    "seeded_options",
    "sharing_supported",
]
