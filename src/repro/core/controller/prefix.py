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
   session API, which snapshots OS/gate/coverage state at the last
   workload-step boundary before its trigger fires; every other member
   restores that boundary (its own gate is grafted with the shared
   interception state) and executes **only the post-trigger suffix**.
   Snapshot-backed sessions sharpen the resume point to the exact
   injection instruction (:class:`~repro.vm.snapshot.MidRunCapture`);
   later-rank members resume from the same capture with the call
   **passed through** instead of faulted and run on to their own (later)
   injection point, where a *nested* capture serves their own rank — each
   tree level pays only the suffix between divergence points.
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
keys on, so one derivation per scenario object (:class:`ScenarioKeyParts`)
serves two views: every deterministic run is memoizable, and those whose
fault classes are also shareable may join a group.  Crash points and
budget ramps are the first kind only: they run alone, but through the
memo.

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

import functools
import weakref
from dataclasses import replace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.controller.monitor import (
    Outcome,
    OutcomeKind,
    RunResult,
    classify_exit_status,
)
from repro.core.controller.target import TargetAdapter, WorkloadRequest, make_gate
from repro.core.faults import UNSHAREABLE_CLASSES, apply_fault_on_machine
from repro.core.controller.memo import resolve_memo
from repro.core.scenario.model import Scenario
from repro.coverage.tracker import CoverageTracker
from repro.vm.dispatch import R0_SLOT
from repro.vm.snapshot import MidRunCapture, capture_gate_state, graft_gate_state

#: Trigger classes whose behaviour is a deterministic function of the call
#: stream (no randomness, no cross-run state): scenarios composed solely of
#: these may share prefixes.
SAFE_TRIGGER_CLASSES = frozenset(
    {"CallStackTrigger", "CallCountTrigger", "SingletonTrigger"}
)

#: One scheduling entry: (submission index, scenario, derived run seed).
Entry = Tuple[int, Optional[Scenario], Optional[int]]

#: A group's identity: (base fingerprint, rank).  Members with equal base
#: fingerprints form one group; the rank orders their divergence points.
KeyParts = Tuple[str, Tuple[int, ...]]


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

    Derived once per scenario object (:func:`_key_parts`).  *Determinism*:
    a scenario that has key parts at all runs as a deterministic function
    of them, its fault values and metadata (plus the target context), so
    its run can be memoized (:func:`_member_key`).  *Shareability*: when,
    on top of that, no plan's fault class is in
    :data:`~repro.core.faults.UNSHAREABLE_CLASSES`, it may also join a
    prefix group keyed by ``base`` and ordered by ``rank``.
    """

    #: Trigger declarations and plan structure, fault values left out.
    base: str
    #: The stripped call-count threshold (empty: no rank-bearing trigger).
    rank: Tuple[int, ...]
    #: True when the scenario may join a prefix group.
    shareable: bool


#: Key parts cached per scenario object: ``id(scenario)`` maps to
#: ``(weak reference, parts)``.  ``Scenario`` is an ``eq`` dataclass and
#: therefore unhashable, so it cannot key a ``WeakKeyDictionary``; the
#: weak reference's callback drops the entry when the scenario dies, and
#: a lookup trusts an entry only while its reference still returns the
#: very object asked about.  A per-object cache, not a content identity:
#: scenarios are immutable once built (grouping already relies on that —
#: parts are derived at submit time and must hold for the run), and the
#: parts sit on every member's path three times (partitioning, memo keys,
#: ranks).
_KEY_PARTS_CACHE: Dict[int, Tuple["weakref.ref", Optional[ScenarioKeyParts]]] = {}


def _forget_key_parts(key: int, ref: "weakref.ref") -> None:
    # No lock needed: the callback runs before the dying scenario is freed,
    # so no other object can hold its id (and so write this key) meanwhile.
    entry = _KEY_PARTS_CACHE.get(key)
    if entry is not None and entry[0] is ref:
        _KEY_PARTS_CACHE.pop(key, None)


def _key_parts(scenario: Optional[Scenario]) -> Optional[ScenarioKeyParts]:
    """The cached derivation of *scenario*'s key parts, or ``None`` when
    its run is not a deterministic function of them."""
    if scenario is None:
        return None
    key = id(scenario)
    entry = _KEY_PARTS_CACHE.get(key)
    if entry is not None and entry[0]() is scenario:
        return entry[1]
    parts = _scenario_group_key_parts(scenario)
    # A stand-in that cannot be weakly referenced (a ``__slots__`` test
    # double) is not cached: it is derived afresh on every call.
    if type(scenario).__weakrefoffset__:
        ref = weakref.ref(scenario, functools.partial(_forget_key_parts, key))
        _KEY_PARTS_CACHE[key] = (ref, parts)
    return parts


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
    parts = _key_parts(scenario)
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
    """Derive *scenario*'s key parts (uncached; see :func:`_key_parts`)."""
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


def partition_entries(
    entries: Sequence[Entry],
) -> Tuple[List[List[Entry]], List[Entry]]:
    """Split schedule entries into prefix groups and ungrouped leftovers.

    Groups come back in first-appearance order; members within a group are
    ordered by (rank, submission index) so the first member — the probe —
    is the one whose trigger fires earliest.  Ungrouped entries (no
    scenario, unsafe triggers) keep their submission order.
    """
    groups: Dict[str, List[Tuple[Tuple[int, ...], Entry]]] = {}
    ordered_keys: List[str] = []
    ungrouped: List[Entry] = []
    for entry in entries:
        parts = scenario_group_key_parts(entry[1])
        if parts is None:
            ungrouped.append(entry)
            continue
        base, rank = parts
        if base not in groups:
            groups[base] = []
            ordered_keys.append(base)
        groups[base].append((rank, entry))
    ordered_groups: List[List[Entry]] = []
    for key in ordered_keys:
        members = sorted(groups[key], key=lambda item: (item[0], item[1][0]))
        ordered_groups.append([entry for _rank, entry in members])
    return ordered_groups, ungrouped


def build_group_tasks(
    target: TargetAdapter,
    workload: str,
    entries: Sequence[Entry],
    collect_coverage: bool = False,
    options: Optional[Dict[str, Any]] = None,
    observe_only: bool = False,
    share: bool = True,
    publish_os: bool = True,
) -> List["GroupTask"]:
    """Turn schedule entries into backend-ready tasks.

    With *share*, every task is a shared
    :class:`~repro.core.controller.executor.GroupTask` that runs through
    :func:`run_entry_group` and so through the suffix memo: each prefix
    group becomes one task (the worker shares the prefix internally), in
    first-appearance order, and the ungrouped entries follow as singleton
    groups — a memo lookup, one plain run on a miss, then a store when the
    run is deterministic (crash points and budget ramps are).  Without
    *share* every entry is an unshared singleton, in submission order: the
    per-scenario oracle, which never reaches the suffix memo or
    :func:`run_entry_group`.

    The memo context — everything in a memo key but the member's own
    scenario — is the same for every task one call emits, so it is
    derived here, once, and carried on each task (``None`` when the memo
    is off or the target is not deterministic).
    """
    from repro.core.controller.executor import GroupTask

    options = dict(options or {})
    context: Optional[tuple] = None
    if share:
        groups, ungrouped = partition_entries(entries)
        units = groups + [[entry] for entry in ungrouped]
        if resolve_memo(options) is not None:
            context = _memo_context(
                target, workload, collect_coverage, options, observe_only, publish_os
            )
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
) -> Optional[tuple]:
    """The member-invariant part of a memo key, or ``None`` (uncacheable).

    Everything here is constant across one pipeline call's members —
    target and binary identity, workload, resolved engine/snapshot knobs,
    the libc spec fingerprint, whether runs collect coverage or publish
    their OS, and the conservative fold of unknown request options — so
    :func:`build_group_tasks` computes it once per call instead of per
    task (the fingerprint alone is a table scan).
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
    return (
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
    )


def _member_key(context: tuple, scenario: Optional[Scenario]) -> Optional[tuple]:
    """One run's full memo key under *context*, or ``None``.

    Built from strings, numbers and ``None`` only (parameters and
    metadata by repr), so every key hashes.
    """
    parts = _key_parts(scenario)
    if parts is None:
        return None
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
    return context + (
        parts.base,
        parts.rank,
        faults,
        repr(getattr(scenario, "metadata", None) or None),
    )


def member_memo_key(
    target: TargetAdapter,
    workload: str,
    scenario: Optional[Scenario],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool,
    publish_os: bool = True,
) -> Optional[tuple]:
    """The suffix-memo key of one run, or ``None`` (uncacheable).

    Every deterministic run is memoizable — only safe trigger classes, no
    ``@`` parameters, a ``prefix_shareable`` target — whether or not it
    may join a prefix group (crash points and budget ramps may not, but
    are keyed all the same): the key is exactly what determines such a
    run's observables.  Capture identity comes from the group base key
    and rank (trigger classes and parameters, a ramp's ``every`` and
    ``nth``, plan structure with fault classes) plus the binary/libc
    fingerprints (a mutated libc spec or changed target source misses; an
    identical recompile hits); the fault identity is every plan's
    ``(class, return value, errno, params, side effects)`` tuple, and the
    scenario metadata (a crash point's recovery workload) is folded in;
    the resolved engine/snapshot knobs pin the execution path, and any
    *other* request option is folded in conservatively by repr.  The
    per-run seed stays out: safe triggers never read it.
    """
    context = _memo_context(
        target, workload, collect_coverage, options, observe_only, publish_os
    )
    if context is None:
        return None
    return _member_key(context, scenario)


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
def _install_capture_observers(
    session: Any,
    gate: Any,
    scenario: Scenario,
    step_ref: Dict[str, Any],
    want_pre_call: bool,
) -> Dict[str, Any]:
    """Arm *gate* to capture the machine at its first injection point.

    Returns the ``mid`` mailbox the observers fill: ``capture`` (the
    :class:`MidRunCapture`) and ``record`` (everything needed to replay or
    pass through the intercepted call — including, when ``want_pre_call``,
    the gate state snapshotted *before* the call was counted, which is what
    lets a later-rank member re-execute the call through its own gate).
    ``step_ref`` supplies the current workload-step index and the outcome
    accumulated before it.
    """
    mid: Dict[str, Any] = {"capture": None, "record": None}
    template = session.template
    if template is None:
        return mid
    pre: Dict[str, Any] = {"state": None}
    # Pre-call capture cost is one deep copy of the trigger instances and
    # counter dicts per intercepted call of the handled function(s) — O(1)
    # in prefix length with the default injection-only log.  A pass-through-
    # recording log would make each capture O(accumulated records); skip the
    # observer there and let later-rank members take the plain-run fallback
    # instead of paying a quadratic probe.
    if want_pre_call and getattr(gate.log, "record_passthrough", False):
        want_pre_call = False
    if want_pre_call:
        runtime = gate.runtime

        def observe_call(name: str, args: tuple) -> None:
            if mid["capture"] is not None:
                return
            if runtime is None or not runtime.handles(name):
                return
            pre["state"] = capture_gate_state(gate)

        gate.call_observer = observe_call

    def observe_injection(name, args, count, ctx, decision) -> None:
        if mid["capture"] is not None:
            return
        machine = ctx.extras.get("machine")
        if machine is not template.machine:
            return
        plan_index = next(
            (
                position
                for position, candidate in enumerate(scenario.plans)
                if candidate is decision.plan
            ),
            None,
        )
        if plan_index is None:
            return
        capture = MidRunCapture(machine, base_level=template.snapshot.memory_level)
        if capture.gate_state is None:
            return
        clock = getattr(ctx.os, "clock", None)
        mid["capture"] = capture
        mid["record"] = {
            "step": step_ref["index"],
            "name": name,
            "args": args,
            "count": count,
            "node": ctx.node,
            "module": ctx.module,
            "source": str(ctx.source) if ctx.source else "",
            "stack": tuple(ctx.stack),
            "sim_time": getattr(clock, "now", 0.0) if clock is not None else 0.0,
            "fired": tuple(decision.fired_triggers),
            "plan_index": plan_index,
            "prior_outcome": step_ref["outcome"],
            "pre_call_gate": pre["state"],
        }

    gate.inject_observer = observe_injection
    return mid


def _make_step_tracker(gate: Any) -> Tuple[Dict[str, Any], Any]:
    """A boundary hook tracking (step index, pre-injection outcome).

    The hook runs before each workload step; the outcome stops updating
    once the gate injects (or observes an injection) so ``outcome`` is the
    accumulated outcome *before* the divergence step — the prior every
    resumed member starts from.
    """
    track: Dict[str, Any] = {
        "index": 0,
        "outcome": Outcome(kind=OutcomeKind.NORMAL),
        "locked": False,
    }

    def hook(index: int, steps_run: int, outcome) -> None:
        track["index"] = index
        if track["locked"]:
            return
        if gate.injected_calls or gate.observed_injections:
            track["locked"] = True
            return
        track["outcome"] = outcome

    return track, hook


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


def _resume_member_mid(
    target: Any,
    session: Any,
    plan: Sequence[Any],
    capture: MidRunCapture,
    record: Dict[str, Any],
    scenario: Scenario,
    seed: Optional[int],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
) -> RunResult:
    """Resume one same-rank member from the probe's injection-point capture.

    The capture holds machine state at the exact moment the shared trigger
    agreed, *before* any fault was applied; the member's own fault is then
    injected by replaying the gate's inject branch — side effect (errno),
    log record, return-value write — and execution resumes at the next
    instruction.  Every instruction of the common prefix is skipped.
    """
    gate = make_gate(
        scenario, observe_only=observe_only,
        run_seed=seeded_options(options, seed).get("run_seed"),
    )
    coverage = CoverageTracker() if collect_coverage else None
    machine = capture.restore(gate, coverage)
    rearm_member_triggers(gate, scenario)

    fault = scenario.plans[record["plan_index"]].fault
    gate.injected_calls += 1
    result = apply_fault_on_machine(fault, record["name"], record["args"], machine)
    result.injected = True
    gate.log.record(
        function=record["name"],
        args=record["args"],
        injected=True,
        call_count=record["count"],
        node=record["node"],
        module=record["module"],
        fault=fault,
        trigger_ids=record["fired"],
        stack=record["stack"],
        source=record["source"],
        sim_time=record["sim_time"],
    )
    machine.regs[R0_SLOT] = int(result.value)
    machine.pc = capture.pc + 1
    status = machine.resume()
    return _complete_member_run(
        target, session, plan, gate, coverage, status,
        record["step"], record["prior_outcome"],
    )


def _resume_member_passthrough(
    target: Any,
    session: Any,
    plan: Sequence[Any],
    capture: MidRunCapture,
    record: Dict[str, Any],
    scenario: Scenario,
    seed: Optional[int],
    collect_coverage: bool,
    options: Dict[str, Any],
    observe_only: bool = False,
) -> Tuple[RunResult, Dict[str, Any]]:
    """Resume a later-rank member from an earlier rank's capture.

    The member's trigger has not fired yet at the capture point, so instead
    of replaying the inject branch the intercepted **call instruction is
    re-executed** through the member's own gate: the pre-call gate state
    (snapshotted by the probe's call observer, before the call was counted
    or decided) is grafted, the machine is rolled back one instruction, and
    execution resumes — counting, trigger evaluation, pass-through, and the
    member's own later injection all happen on the normal path, which is
    what keeps the result bit-identical to a full run.  Returns the
    member's result plus the *nested* capture mailbox taken at the member's
    own injection point, which serves its rank siblings and deeper ranks.
    """
    gate = make_gate(
        scenario, observe_only=observe_only,
        run_seed=seeded_options(options, seed).get("run_seed"),
    )
    coverage = CoverageTracker() if collect_coverage else None
    machine = capture.restore(gate, coverage, gate_state=record["pre_call_gate"])
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

    step_ref, hook = _make_step_tracker(gate)
    step_ref["index"] = record["step"]
    step_ref["outcome"] = record["prior_outcome"]
    nested = _install_capture_observers(
        session, gate, scenario, step_ref, want_pre_call=True
    )
    status = machine.resume()
    result = _complete_member_run(
        target, session, plan, gate, coverage, status,
        record["step"], record["prior_outcome"], boundary_hook=hook,
    )
    gate.inject_observer = None
    gate.call_observer = None
    return result, nested


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

    The probe (first member, lowest rank) runs in full; along the way it
    captures the state every other member needs to skip the shared prefix —
    preferring an instruction-level :class:`MidRunCapture` at the injection
    point (available on snapshot-backed sessions) and falling back to the
    last workload-step boundary before the trigger step.  Later ranks chain
    nested captures (see :func:`_resume_member_passthrough`); errno-blind
    suffixes replicate across errno siblings instead of re-running.
    """
    results: Dict[int, RunResult] = {}
    plan = target.workload_plan(workload)
    engine = options.get("engine")
    snapshots = options.get("snapshots")
    ranks = [scenario_group_rank(entry[1]) for entry in members]
    ranked = len(set(ranks)) > 1
    probe_index, probe_scenario, probe_seed = members[0]

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

        step_ref, step_hook = _make_step_tracker(probe_gate)
        light_boundaries = session.template is not None
        boundary: Dict[str, Any] = {"state": None, "locked": False}

        # The hook runs before each workload step and keeps overwriting the
        # boundary until an injection is observed: once step K injects, the
        # last capture is exactly the state before step K — where members
        # resume when no instruction-level capture is available.  On
        # snapshot-backed sessions the instruction-level capture is the
        # resume point, so only the step tracker runs (full per-step
        # OS/gate/coverage captures would be paid on every probe for
        # nothing).
        def capture_boundary(index: int, steps_run: int, outcome) -> None:
            step_hook(index, steps_run, outcome)
            if light_boundaries or boundary["locked"]:
                return
            if probe_gate.injected_calls or probe_gate.observed_injections:
                boundary["locked"] = True
                return
            gate_state = capture_gate_state(probe_gate)
            if gate_state is None:  # non-standard gate: give up on resuming
                boundary["state"] = None
                boundary["locked"] = True
                return
            boundary["state"] = {
                "index": index,
                "outcome": outcome,
                "os": session.capture_os_boundary(),
                "gate": gate_state,
                "coverage": (
                    probe_coverage.capture_state()
                    if probe_coverage is not None
                    else None
                ),
            }

        mid = _install_capture_observers(
            session, probe_gate, probe_scenario, step_ref, want_pre_call=ranked
        )
        outcome, steps_run = target.execute_plan(
            session, plan, probe_gate, probe_coverage, boundary_hook=capture_boundary
        )
        probe_gate.inject_observer = None
        probe_gate.call_observer = None
        results[probe_index] = target.finalize_run(
            session, probe_gate, probe_coverage, outcome, steps_run
        )

        if not probe_gate.injected_calls:
            # No fault was ever applied — either the shared trigger never
            # agreed, or the gate observes without injecting.  Ranks only
            # fire later than the probe's, so no member's fault can apply
            # either and all runs are identical: every member's result is
            # the probe's value.
            for index, _scenario, _seed in members[1:]:
                results[index] = results[probe_index]
            return results

        # The active divergence point: the capture, its record, the rank it
        # belongs to, and — for errno-blind suffix replication — the run
        # whose suffix it anchors plus that suffix's errno-read delta.
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

        def suffix_blind(capture: MidRunCapture) -> bool:
            if not counter_reliable:
                return False
            if reads_end is None or capture.libc_errno_reads is None:
                return False
            return reads_end == capture.libc_errno_reads

        active = {
            "capture": mid["capture"],
            "record": mid["record"],
            "rank": ranks[0],
            "source_index": probe_index,
            "source_scenario": probe_scenario,
            "source_blind": (
                mid["capture"] is not None
                and probe_gate.injected_calls == 1
                and suffix_blind(mid["capture"])
            ),
        }
        dead = False  # a later-rank member never injected: the rest cannot

        for position, (index, scenario, seed) in enumerate(members[1:], start=1):
            if dead:
                results[index] = results[active["source_index"]]
                continue
            if active["capture"] is None:
                # No instruction-level capture: resume from the last full
                # workload-step boundary, or run plainly when even that is
                # unavailable.  (The boundary path re-runs the whole
                # divergence step through the member's own gate, so it is
                # rank-agnostic by construction.)
                state = boundary["state"]
                if state is None:
                    results[index] = plain_run(
                        target, workload, scenario, seed, collect_coverage,
                        options, observe_only=observe_only, publish_os=publish_os,
                    )
                    continue
                gate = make_gate(
                    scenario,
                    observe_only=observe_only,
                    run_seed=seeded_options(options, seed).get("run_seed"),
                )
                graft_gate_state(state["gate"], gate)
                rearm_member_triggers(gate, scenario)
                coverage = CoverageTracker() if collect_coverage else None
                if coverage is not None and state["coverage"] is not None:
                    coverage.restore_state(state["coverage"])
                session.restore_os_boundary(state["os"])
                member_outcome, member_steps = target.execute_plan(
                    session, plan, gate, coverage,
                    start_index=state["index"],
                    outcome=state["outcome"],
                )
                results[index] = target.finalize_run(
                    session, gate, coverage, member_outcome, member_steps
                )
                continue

            if ranks[position] == active["rank"]:
                if active["source_blind"]:
                    replica = patch_replica_errno(
                        results[active["source_index"]],
                        active["source_scenario"],
                        scenario,
                    )
                    if replica is not None:
                        results[index] = replica
                        continue
                results[index] = _resume_member_mid(
                    target, session, plan,
                    active["capture"], active["record"],
                    scenario, seed, collect_coverage, options,
                    observe_only=observe_only,
                )
                if not active["source_blind"]:
                    reads_end = _errno_read_counter(libc) if libc is not None else None
                    active.update(
                        source_index=index,
                        source_scenario=scenario,
                        source_blind=suffix_blind(active["capture"]),
                    )
                continue

            # Rank advance: this member's trigger fires after the active
            # capture point — pass the call through and run on to its own
            # injection, nesting a fresh capture there for its siblings.
            if active["record"]["pre_call_gate"] is None:
                results[index] = plain_run(
                    target, workload, scenario, seed, collect_coverage,
                    options, observe_only=observe_only, publish_os=publish_os,
                )
                continue
            result, nested = _resume_member_passthrough(
                target, session, plan,
                active["capture"], active["record"],
                scenario, seed, collect_coverage, options,
                observe_only=observe_only,
            )
            results[index] = result
            reads_end = _errno_read_counter(libc) if libc is not None else None
            if result.injections == 0:
                # This member's (earliest-remaining) trigger never fired,
                # so no later member's can either: replicate from here on.
                dead = True
                active.update(source_index=index, source_scenario=scenario)
                continue
            active = {
                "capture": nested["capture"],
                "record": nested["record"],
                "rank": ranks[position],
                "source_index": index,
                "source_scenario": scenario,
                "source_blind": (
                    nested["capture"] is not None
                    and result.injections == 1
                    and suffix_blind(nested["capture"])
                ),
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
    memo_context: Optional[tuple] = None,
) -> Dict[int, RunResult]:
    """Execute one prefix group; the unit of work a shared task runs.

    Members must share a group base key and be ordered by rank (what
    :func:`partition_entries` produces), or be a single entry — an
    ungrouped entry is a group of one.  A single-member group runs on the
    plain per-scenario path, after its memo lookup.

    *memo_context* is the task's memo context (:func:`build_group_tasks`
    derives it once per pipeline call); ``None`` bypasses the suffix memo
    (:mod:`repro.core.controller.memo`) entirely, which is the
    differential oracle path.  Otherwise the memo is consulted per member
    before anything executes: a hit is the stored result itself — results
    are immutable values, so nothing is copied — and only the missing
    members, still a rank-ordered subset of the group that the prefix-tree
    machinery executes bit-identically to the full group, actually run.
    Their fresh results are stored on the way out.
    """
    options = options or {}
    memo = resolve_memo(options) if memo_context is not None else None
    if memo is None:
        return _run_entry_group_paths(
            target, workload, members, collect_coverage, options, observe_only,
            publish_os,
        )
    results: Dict[int, RunResult] = {}
    misses: List[Entry] = []
    miss_keys: Dict[int, Optional[tuple]] = {}
    for entry in members:
        index, scenario, _seed = entry
        key = _member_key(memo_context, scenario)
        if key is not None:
            hit = memo.lookup(key)
            if hit is not None:
                results[index] = hit
                continue
        miss_keys[index] = key
        misses.append(entry)
    if misses:
        fresh = _run_entry_group_paths(
            target, workload, misses, collect_coverage, options, observe_only,
            publish_os,
        )
        for index, result in fresh.items():
            key = miss_keys.get(index)
            if key is not None:
                memo.store(key, result)
            results[index] = result
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
        index, scenario, seed = members[0]
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
    entries: Sequence[Entry],
    backend: "ExecutionBackend",
    share: bool = True,
    collect_coverage: bool = False,
    options: Optional[Dict[str, Any]] = None,
    observe_only: bool = False,
    publish_os: bool = True,
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
    record and never read it).
    """
    tasks = build_group_tasks(
        target, workload, entries, collect_coverage=collect_coverage,
        options=options, observe_only=observe_only, share=share,
        publish_os=publish_os,
    )
    for _unit, results in backend.run_group_batches_iter(tasks):
        for index in sorted(results):
            yield index, results[index]


__all__ = [
    "SAFE_TRIGGER_CLASSES",
    "Entry",
    "build_group_tasks",
    "errno_sibling_positions",
    "iter_shared_runs",
    "member_memo_key",
    "partition_entries",
    "patch_replica_errno",
    "plain_run",
    "rearm_member_triggers",
    "resolve_sharing",
    "run_entry_group",
    "scenario_group_key",
    "scenario_group_key_parts",
    "scenario_group_rank",
    "seeded_options",
    "sharing_supported",
]
