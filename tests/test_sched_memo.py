"""Tests for suffix memoization, cross-workload boot reuse, and
cost-adaptive group scheduling (PR 9 tentpole + satellites).

The contract under test: every new layer — the suffix memo, the
boot-scope template keying, the adaptive group planner, the group-aware
fabric leases, and worker-side result batching — is a pure throughput
optimisation.  Results stay bit-identical to the memo-free per-scenario
serial oracle on every backend and through the campaignd fabric, and the
``memo=False`` knob recovers the memo-free path exactly.
"""

import collections
import dataclasses
import gc
import hashlib
import logging
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller.campaign import TestCampaign as Campaign
from repro.core.controller.controller import LFIController
from repro.core.controller.executor import (
    GroupTask,
    estimate_group_cost,
    plan_group_batches,
    split_group_task,
)
from repro.core.controller.memo import (
    SLOT_BYTES,
    SuffixMemo,
    clear_suffix_memo,
    default_memo_bytes,
    entry_size,
    resolve_memo,
    suffix_memo,
    suffix_memo_stats,
)
from repro.core.controller.monitor import ENTRY_BYTES, Outcome, OutcomeKind, RunResult
from repro.core.controller import prefix
from repro.core.controller.target import WorkloadRequest
from repro.core.controller.prefix import (
    MEMO_KEY_BYTES,
    build_group_tasks,
    memo_keys_of,
    resolve_memo_context,
    scenario_group_key,
    scenario_group_key_parts,
    scenario_keys,
)
from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.space import enumerate_structured_space
from repro.core.exploration.store import ResultStore
from repro.core.faults import FAULT_CLASSES, UNSHAREABLE_CLASSES, structured_scenario
from repro.core.profiler.cache import (
    artifact_cache_stats,
    clear_artifact_cache,
    libc_spec_fingerprint,
)
from repro.core.scenario.builder import ScenarioBuilder
from repro.distributed.campaignd import (
    MIN_LEASE_POINTS,
    CampaignCoordinator,
    cut_lease,
    group_buckets,
    lease_size,
)
from repro.distributed.client import CampaignClient
from repro.distributed.spec import CampaignSpec, build_engine
from repro.distributed.worker import CampaignWorker
from repro.oslib import libc as libc_module
from repro.targets.mini_git import MiniGitTarget
import repro.targets.base as targets_base


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _pipeline_memo_key(target, workload, scenario, options=None):
    """One run's memo key, derived as the pipeline derives it: the memo
    context of the call (memo forced on) plus the scenario's member part
    (``None`` when either is missing: the run is not memoized)."""
    context = resolve_memo_context(
        target, workload, False, dict(options or {}, memo=True), False
    )
    _parts, member = scenario_keys(scenario)
    if context is None or member is None:
        return None
    return memo_keys_of(context, [member])[0]


def _campaign_observables(campaign):
    return [
        {
            "scenario": outcome.scenario.name,
            "kind": outcome.outcome.kind,
            "detail": outcome.outcome.detail,
            "exit_code": outcome.outcome.exit_code,
            "location": outcome.outcome.location,
            "injections": outcome.result.injections,
            "log": [record.to_dict() for record in outcome.result.log.records],
        }
        for outcome in campaign.outcomes
    ]


def _fault_space_scenarios(target):
    controller = LFIController(target)
    analysis = controller.analyze_target()
    points = controller.fault_space(analysis=analysis, include_checked=True)
    return [point.scenario() for point in points]


def _group_task(index, member_indices, target=None, workload="w"):
    return GroupTask(
        index=index,
        target=target,
        workload=workload,
        entries=[(i, None, None) for i in member_indices],
    )


def _count_executions(monkeypatch):
    """Count real VM executions (probe or resumed suffix both go through
    :meth:`CompiledTarget.execute_plan`)."""
    counter = {"n": 0}
    original = targets_base.CompiledTarget.execute_plan

    def counting(self, *args, **kwargs):
        counter["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(targets_base.CompiledTarget, "execute_plan", counting)
    return counter


# ----------------------------------------------------------------------
# the SuffixMemo container
# ----------------------------------------------------------------------
class TestSuffixMemoContainer:
    def test_lru_eviction_under_byte_budget(self):
        payload = "x" * 100
        memo = SuffixMemo(max_bytes=3 * entry_size("a", payload))
        for key in ("a", "b", "c"):
            assert memo.store(key, payload)
        assert len(memo) == 3
        assert memo.stats().current_bytes == 3 * entry_size("a", payload)
        # Refresh "a", then overflow: "b" is now the least recently used.
        assert memo.lookup("a") == payload
        assert memo.store("d", payload)
        assert memo.lookup("b") is None
        assert memo.lookup("a") == payload
        assert memo.lookup("c") == payload
        assert memo.lookup("d") == payload
        stats = memo.stats()
        assert stats.evictions == 1
        assert stats.entries == 3
        assert stats.current_bytes == memo.max_bytes

    def test_oversized_results_are_rejected(self):
        result = RunResult(outcome=Outcome(kind=OutcomeKind.NORMAL))
        memo = SuffixMemo(max_bytes=entry_size("big", result) - 1)
        assert memo.store("big", result) is False
        assert memo.store("bigger", "y" * 4096) is False
        assert len(memo) == 0
        assert memo.stats().rejected == 2
        exact = SuffixMemo(max_bytes=entry_size("fits", result))
        assert exact.store("fits", result)
        assert exact.stats().current_bytes == entry_size("fits", result)

    def test_hits_are_the_stored_value(self):
        # No serialization on either side: a hit is the object stored.
        memo = SuffixMemo()
        result = RunResult(outcome=Outcome(kind=OutcomeKind.CRASH, detail="boom"))
        assert memo.store("k", result)
        assert memo.lookup("k") is result
        assert memo.lookup("k") is result

    def test_results_are_charged_a_deterministic_size(self):
        # The charge is computed from the value: the same run sizes the
        # same every time, and a published OS is charged its blob.
        target = MiniGitTarget()
        scenario = _fault_space_scenarios(target)[0]

        def run(publish_os):
            return target.run(WorkloadRequest(
                workload="status", scenario=scenario, publish_os=publish_os,
            ))

        bare, with_os = run(False), run(True)
        assert "os" not in bare.stats
        assert run(False).nbytes == bare.nbytes
        assert with_os.nbytes == bare.nbytes + with_os.stats["os"].nbytes + ENTRY_BYTES
        # An entry is charged its value, its key and its slot.
        key = bytes(MEMO_KEY_BYTES)
        assert entry_size(key, with_os) == with_os.nbytes + sys.getsizeof(key) + SLOT_BYTES

    def test_memo_bytes_env_rejects_what_it_cannot_parse(self, monkeypatch):
        for bad in ("64MB", "-1"):
            monkeypatch.setenv("REPRO_MEMO_BYTES", bad)
            with pytest.raises(ValueError, match=f"REPRO_MEMO_BYTES.*'{bad}'"):
                default_memo_bytes()
        monkeypatch.setenv("REPRO_MEMO_BYTES", "4096")
        assert default_memo_bytes() == 4096
        assert SuffixMemo().max_bytes == 4096

    def test_restore_same_key_replaces_without_leaking_bytes(self):
        memo = SuffixMemo(max_bytes=1 << 20)
        memo.store("k", "a" * 50)
        assert memo.stats().current_bytes == entry_size("k", "a" * 50)
        memo.store("k", "a" * 50)
        assert memo.stats().current_bytes == entry_size("k", "a" * 50)
        memo.store("k", "b" * 80)
        assert memo.stats().current_bytes == entry_size("k", "b" * 80)
        assert len(memo) == 1

    def test_charged_bytes_track_measured_bytes_keys_included(self):
        # The tracemalloc calibration of the charge: a cold mini_git pass
        # fills a memo that is charged at least what it holds, keys and
        # slots included, and not far above it (a member replicating its
        # probe shares the probe's result, yet each key is charged it).
        target = MiniGitTarget()
        classes = ("partial_write", "short_read", "fd_exhaustion", "heap_exhaustion",
                   "crash_point", "clock_skew", "clock_jump")
        points = LFIController(target).fault_space(include_checked=True) + list(
            enumerate_structured_space("mini_git", classes)
        )
        # Results are engine-independent: pin the fast path, and build the
        # image's plan and boot templates before measuring.
        fast = {"engine": "compiled", "snapshots": True}
        ExplorationEngine(
            target, store=ResultStore(), workload="status",
            request_options=dict(fast, memo=False),
        ).explore(points)
        memo = SuffixMemo()
        tracemalloc.start()
        try:
            for workload in target.workloads():
                ExplorationEngine(
                    target, store=ResultStore(), workload=workload,
                    request_options=dict(fast, memo=memo),
                ).explore(points)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            stats = memo.stats()
            memo.clear()
            gc.collect()
            measured = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert stats.entries > 500
        assert measured <= stats.current_bytes <= 2.5 * measured

    def test_keys_and_slots_are_charged_what_they_hold(self):
        values = [
            RunResult(outcome=Outcome(kind=OutcomeKind.NORMAL, detail=str(n)))
            for n in range(2000)
        ]
        memo = SuffixMemo()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, value in enumerate(values):
                memo.store(hashlib.blake2b(str(n).encode(), digest_size=16).digest(), value)
            measured = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        charged = memo.stats().current_bytes - sum(value.nbytes for value in values)
        assert charged == len(values) * (SLOT_BYTES + sys.getsizeof(bytes(MEMO_KEY_BYTES)))
        assert 0.8 * measured <= charged <= 1.25 * measured

    def test_resolve_memo_knobs(self, monkeypatch):
        private = SuffixMemo()
        assert resolve_memo({"memo": private}) is private
        assert resolve_memo({"memo": False}) is None
        assert resolve_memo({"memo": True}) is suffix_memo()
        monkeypatch.setenv("REPRO_MEMO", "0")
        assert resolve_memo({}) is None
        assert resolve_memo({"memo": True}) is suffix_memo()
        monkeypatch.delenv("REPRO_MEMO")
        assert resolve_memo({}) is suffix_memo()


# ----------------------------------------------------------------------
# memo keys
# ----------------------------------------------------------------------
class TestMemberMemoKey:
    def test_key_covers_fault_and_workload_but_not_seed(self, monkeypatch):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:2]

        def key(scenario, workload="status", options=None):
            return _pipeline_memo_key(target, workload, scenario, options)

        first, second = key(scenarios[0]), key(scenarios[1])
        assert first is not None and second is not None
        assert first != second  # distinct faults, distinct keys
        assert key(scenarios[0]) == first  # deterministic
        assert key(scenarios[0], workload="commit") != first
        # The per-run seed is behaviour-neutral for safe triggers and must
        # not split cache lines; a behaviour-bearing option must.
        assert key(scenarios[0], options={"run_seed": 99}) == first
        assert key(scenarios[0], options={"requests": 5}) != first

        # The image enters the key by content, not by id(): an identical
        # recompile after the binary cache is cleared keeps the key, and a
        # changed source under the same target name changes it.
        monkeypatch.setattr(targets_base.CompiledTarget, "_binary_cache", {})
        assert key(scenarios[0]) == first

        class EditedGit(MiniGitTarget):
            def source(self):
                return super().source() + "\nint unused_helper() { return 0; }\n"

        monkeypatch.setattr(targets_base.CompiledTarget, "_binary_cache", {})
        edited = _pipeline_memo_key(EditedGit(), "status", scenarios[0])
        assert edited is not None and edited != first

    def test_unshareable_scenarios_get_no_key(self):
        target = MiniGitTarget()
        builder = ScenarioBuilder("ramped")
        builder.trigger("r", "RandomTrigger", probability=0.5)
        builder.inject("read", ["r"], return_value=-1, errno="EIO")
        assert (
            _pipeline_memo_key(target, "status", builder.build())
            is None
        )
        assert _pipeline_memo_key(target, "status", None) is None
        shared = ScenarioBuilder("shared-object")
        shared.trigger("c", "CallCountTrigger", nth=1, peer="@lock")
        shared.inject("read", ["c"], return_value=-1, errno="EIO")
        assert (
            _pipeline_memo_key(target, "status", shared.build())
            is None
        )

    def test_unshareable_classes_are_keyed_but_never_grouped(self):
        # Crash points, budget ramps and network faults may not join a
        # prefix group, but their runs are deterministic: the memo keys
        # them and the grouping view still refuses them.
        target = MiniGitTarget()
        for klass in sorted(UNSHAREABLE_CLASSES):
            definition = FAULT_CLASSES[klass]
            scenario = structured_scenario(
                klass, definition.functions[0], params=definition.param_dicts()[0]
            )
            assert scenario_group_key(scenario) is None, klass
            assert scenario_group_key_parts(scenario) is None, klass
            key = _pipeline_memo_key(target, "status", scenario)
            assert key is not None, klass

    def test_keys_separate_count_crash_parameter_and_errno(self):
        target = MiniGitTarget()

        def key(scenario):
            return _pipeline_memo_key(target, "default-tests", scenario)

        def errno_scenario(errno, nth=1):
            builder = ScenarioBuilder("errno")
            builder.trigger("t", "CallCountTrigger", nth=nth)
            builder.inject("read", ["t"], return_value=-1, errno=errno)
            return builder.build()

        pairs = [
            # nth as the rank of a one-shot class
            (structured_scenario("crash_point", "write", nth=1, params={"torn": 0}),
             structured_scenario("crash_point", "write", nth=2, params={"torn": 0})),
            # nth as a ramp parameter (a budget ramp is not rankable)
            (structured_scenario("heap_exhaustion", "malloc", params={"budget": 0}),
             structured_scenario("heap_exhaustion", "malloc", params={"budget": 4})),
            # a crash parameter alone
            (structured_scenario("crash_point", "write", params={"torn": 0}, name="c"),
             structured_scenario("crash_point", "write", params={"torn": 1}, name="c")),
            # errno alone
            (errno_scenario("EIO"), errno_scenario("EINTR")),
            # nth of an errno point alone
            (errno_scenario("EIO", nth=1), errno_scenario("EIO", nth=3)),
        ]
        for first, second in pairs:
            assert key(first) is not None and key(second) is not None
            assert key(first) != key(second), (first.name, second.name)
            # The key is a function of content, not of the object.
            assert key(first) == key(dataclasses.replace(first))

    def test_every_key_hashes(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)
        scenarios += [
            point.scenario()
            for point in enumerate_structured_space("mini_git", FAULT_CLASSES)
        ]
        # Unhashable values in fault parameters and metadata still key.
        odd = structured_scenario("partial_write", "write", params={"fraction": [0.5]})
        odd.metadata["notes"] = ["a", {"b": 1}]
        scenarios.append(odd)
        keys = [
            _pipeline_memo_key(target, "status", scenario, {"requests": [1]})
            for scenario in scenarios
        ]
        for key in keys:
            assert key is not None
            hash(key)
        assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# memoized campaigns: identity + reuse
# ----------------------------------------------------------------------
class TestMemoizedCampaigns:
    def test_resweep_with_warm_memo_is_identical_and_free(self, monkeypatch):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:18]
        campaign = Campaign(target, workload="status")
        oracle = campaign.run(
            scenarios, seed=5, include_baseline=False, memo=False
        )
        reference = _campaign_observables(oracle)

        memo = SuffixMemo()
        cold = campaign.run(scenarios, seed=5, include_baseline=False, memo=memo)
        assert _campaign_observables(cold) == reference
        assert memo.stats().stores == len(scenarios)

        executions = _count_executions(monkeypatch)
        warm = campaign.run(scenarios, seed=5, include_baseline=False, memo=memo)
        assert _campaign_observables(warm) == reference
        assert executions["n"] == 0  # every member answered from the memo
        assert memo.stats().hits == len(scenarios)

    def test_memo_hits_are_frozen_values_equal_to_fresh_runs(self):
        target = MiniGitTarget()
        # Two points whose fault never fires under the workload, two whose
        # fault is injected.
        scenarios = _fault_space_scenarios(target)[13:17]
        memo = SuffixMemo()

        def sweep(memo):
            campaign = Campaign(target, workload="default-tests").run(
                scenarios, include_baseline=False, memo=memo
            )
            return [outcome.result for outcome in campaign.outcomes]

        stored, hits, fresh = sweep(memo), sweep(memo), sweep(False)
        assert memo.stats().hits == len(scenarios)
        injected = [hit for hit in hits if hit.log.records]
        assert injected  # the assignments below reach real records
        for hit, first, run in zip(hits, stored, fresh):
            assert hit is first
            # Equal to a fresh run, the published OS included.
            assert hit == run and "os" in hit.stats
            with pytest.raises(dataclasses.FrozenInstanceError):
                hit.outcome.detail = "edited"
            with pytest.raises(dataclasses.FrozenInstanceError):
                hit.outcome = Outcome(kind=OutcomeKind.CRASH)
            with pytest.raises(TypeError):
                hit.stats["steps_run"] = 0
            with pytest.raises(TypeError):
                hit.stats["calls"]["read"] = 0
        for hit in injected:
            with pytest.raises(dataclasses.FrozenInstanceError):
                hit.log.records[0].fault = None
            with pytest.raises(TypeError):
                hit.log.records[0] = hit.log.records[-1]

    def test_memo_survives_across_workload_and_option_boundaries(self):
        # Same scenarios on another workload must *miss* (the suffix runs
        # different steps), not collide.
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:6]
        memo = SuffixMemo()

        def sweep(workload, memo):
            campaign = Campaign(target, workload=workload).run(
                scenarios, include_baseline=False, memo=memo
            )
            return [outcome.result for outcome in campaign.outcomes]

        status = sweep("status", memo)
        commit = sweep("commit", memo)
        assert memo.stats().hits == 0
        plain_commit = sweep("commit", False)
        assert [r.outcome.kind for r in commit] == [
            r.outcome.kind for r in plain_commit
        ]
        assert status  # both sweeps completed

    def test_campaign_run_surfaces_cache_stats(self):
        clear_suffix_memo()
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:8]
        campaign = Campaign(target, workload="status")
        first = campaign.run(
            scenarios, seed=1, include_baseline=False, memo=True
        )
        assert first.stats["sharing"] is True
        assert first.stats["backend"] == "SerialBackend"
        assert first.stats["suffix_memo"]["stores"] == len(scenarios)
        second = campaign.run(
            scenarios, seed=1, include_baseline=False, memo=True
        )
        assert second.stats["suffix_memo"]["hits"] == len(scenarios)
        assert second.stats["suffix_memo"]["misses"] == 0
        assert {"hits", "misses", "shared_hits"} <= set(
            second.stats["boot_template"]
        )
        clear_suffix_memo()

    def test_campaign_stats_count_over_budget_rejections_silently(self, caplog):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:4]
        campaign = Campaign(target, workload="status")
        with caplog.at_level(logging.WARNING, logger="repro.core.controller.memo"):
            result = campaign.run(
                scenarios, seed=1, include_baseline=False,
                memo=SuffixMemo(max_bytes=1),
            )
        assert result.stats["suffix_memo"]["rejected"] == len(scenarios)
        assert result.stats["suffix_memo"]["stores"] == 0
        assert not caplog.records

    def test_eviction_pressure_keeps_results_identical(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:12]
        campaign = Campaign(target, workload="status")
        reference = _campaign_observables(
            campaign.run(scenarios, seed=2, include_baseline=False, memo=False)
        )
        # A budget holding only a couple of results: constant eviction, so
        # re-sweeps mix hits, misses, and re-executions.
        probe = SuffixMemo()
        campaign.run(scenarios[:1], seed=2, include_baseline=False, memo=probe)
        entry_bytes = max(1, probe.stats().current_bytes)
        tiny = SuffixMemo(max_bytes=2 * entry_bytes + entry_bytes // 2)
        for _ in range(2):
            swept = campaign.run(
                scenarios, seed=2, include_baseline=False, memo=tiny
            )
            assert _campaign_observables(swept) == reference
        stats = tiny.stats()
        assert stats.evictions > 0
        assert stats.current_bytes <= tiny.max_bytes


# ----------------------------------------------------------------------
# ungrouped deterministic runs go through the memo
# ----------------------------------------------------------------------
#: The structured classes that run alone (never in a prefix group) but
#: deterministically.
UNGROUPED_CLASSES = ("crash_point", "fd_exhaustion", "heap_exhaustion")


def _ungrouped_sweep(tmp_path, name, **engine_kwargs):
    """One mini_git sweep over :data:`UNGROUPED_CLASSES`; the store's bytes."""
    points = enumerate_structured_space("mini_git", UNGROUPED_CLASSES)
    path = tmp_path / f"{name}.jsonl"
    with ResultStore(str(path)) as store:
        engine = ExplorationEngine(
            MiniGitTarget(), store=store, seed=11, workload="default-tests",
            **engine_kwargs,
        )
        report = engine.explore(points)
    assert report.executed == len(points)
    return points, path.read_bytes()


class TestUngroupedRunsAreMemoized:
    def test_warm_sweep_answers_every_ungrouped_point_from_the_memo(
        self, tmp_path, monkeypatch
    ):
        points, oracle = _ungrouped_sweep(
            tmp_path, "oracle", share_prefixes=False, request_options={"memo": False}
        )
        assert all(scenario_group_key(point.scenario()) is None for point in points)
        memo = SuffixMemo()
        _, cold = _ungrouped_sweep(tmp_path, "cold", request_options={"memo": memo})
        assert cold == oracle
        assert memo.stats().stores == len(points)

        executions = _count_executions(monkeypatch)
        _, warm = _ungrouped_sweep(tmp_path, "warm", request_options={"memo": memo})
        assert warm == oracle
        assert executions["n"] == 0
        stats = memo.stats()
        assert (stats.hits, stats.misses) == (len(points), len(points))

    def test_pooled_sweep_equals_serial(self, tmp_path):
        clear_suffix_memo()
        _, serial = _ungrouped_sweep(tmp_path, "serial")
        clear_suffix_memo()
        _, pooled = _ungrouped_sweep(tmp_path, "pooled", parallelism="processes:2")
        clear_suffix_memo()
        # A pool checkpoints batch by batch in completion order.
        assert sorted(pooled.splitlines()) == sorted(serial.splitlines())

    def test_shared_tasks_cover_ungrouped_entries_unshared_ones_do_not(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:4] + [
            point.scenario()
            for point in enumerate_structured_space("mini_git", UNGROUPED_CLASSES)
        ]
        entries = [(index, scenario, None) for index, scenario in enumerate(scenarios)]
        shared = build_group_tasks(target, "status", entries, share=True)
        assert all(task.shared for task in shared)
        # The ungrouped entries follow the prefix groups, one task each
        # (keyed: an entry's first three fields are the submitted triple).
        ungrouped = [entry for entry in entries if scenario_group_key(entry[1]) is None]
        assert len(ungrouped) == len(scenarios) - 4
        assert [
            [entry[:3] for entry in task.entries] for task in shared[-len(ungrouped):]
        ] == [[entry] for entry in ungrouped]
        unshared = build_group_tasks(target, "status", entries, share=False)
        assert [task.shared for task in unshared] == [False] * len(scenarios)
        assert [task.entries for task in unshared] == [[entry] for entry in entries]


# ----------------------------------------------------------------------
# the memo context is derived once per pipeline call
# ----------------------------------------------------------------------
class TestMemoContext:
    def test_one_derivation_per_serial_campaign(self, monkeypatch):
        contexts = []
        original_context = prefix._memo_context

        def counting_context(*args, **kwargs):
            contexts.append(args)
            return original_context(*args, **kwargs)

        groups = []
        original_group = prefix.run_entry_group

        def counting_group(*args, **kwargs):
            groups.append(kwargs["memo_context"])
            return original_group(*args, **kwargs)

        monkeypatch.setattr(prefix, "_memo_context", counting_context)
        monkeypatch.setattr(prefix, "run_entry_group", counting_group)
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:18] + [
            point.scenario()
            for point in enumerate_structured_space("mini_git", UNGROUPED_CLASSES)
        ]
        memo = SuffixMemo()
        Campaign(target, workload="status").run(
            scenarios, include_baseline=False, memo=memo
        )
        assert len(groups) > 1
        assert len(contexts) == 1
        # Every task carried the one context, and the memo was in use.
        assert all(context is groups[0] for context in groups)
        assert memo.stats().stores == len(scenarios)

    def test_no_context_without_a_memo(self):
        target = MiniGitTarget()
        entries = [
            (index, scenario, None)
            for index, scenario in enumerate(_fault_space_scenarios(target)[:4])
        ]
        for tasks in (
            build_group_tasks(target, "status", entries, options={"memo": False}),
            build_group_tasks(target, "status", entries, share=False),
        ):
            assert [task.memo_context for task in tasks] == [None] * len(tasks)
        tasks = build_group_tasks(target, "status", entries, options={"memo": True})
        assert tasks[0].memo_context is not None
        assert {id(task.memo_context) for task in tasks} == {id(tasks[0].memo_context)}


# ----------------------------------------------------------------------
# key parts are derived once per scenario per pipeline call
# ----------------------------------------------------------------------
class TestKeyPartsCache:
    @staticmethod
    def _count_derivations(monkeypatch):
        derived = []
        original = prefix._scenario_group_key_parts

        def counting(scenario):
            # Holding the scenario keeps its id unique for the test.
            derived.append(scenario)
            return original(scenario)

        monkeypatch.setattr(prefix, "_scenario_group_key_parts", counting)
        return derived

    def test_one_derivation_per_scenario_over_a_shared_campaign(self, monkeypatch):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:24] + [
            point.scenario()
            for point in enumerate_structured_space("mini_git", UNGROUPED_CLASSES)
        ]
        derived = self._count_derivations(monkeypatch)
        result = Campaign(target, workload="default-tests").run(
            scenarios, seed=3, include_baseline=False, memo=SuffixMemo()
        )
        assert len(result.outcomes) == len(scenarios)
        counts = collections.Counter(map(id, derived))
        assert set(counts) == set(map(id, scenarios))
        assert set(counts.values()) == {1}

    def test_stand_ins_without_weak_references_are_derived_each_time(self, monkeypatch):
        class SlottedScenario:
            __slots__ = ("name", "triggers", "plans", "metadata")

        source = structured_scenario("partial_write", "write", params={"fraction": 0.5})
        stand_in = SlottedScenario()
        for name in SlottedScenario.__slots__:
            setattr(stand_in, name, getattr(source, name))
        derived = self._count_derivations(monkeypatch)
        first = scenario_group_key_parts(stand_in)
        assert first == scenario_group_key_parts(source)
        assert scenario_group_key_parts(stand_in) == first
        assert derived.count(stand_in) == 2
        # Keyed as an entry, it gets the key parts and memo key of the
        # scenario it copies, from one more derivation.
        target = MiniGitTarget()
        tasks = build_group_tasks(
            target, "status", [(0, stand_in, None), (1, source, None)],
            options={"memo": SuffixMemo()},
        )
        keyed = {entry.index: entry for task in tasks for entry in task.entries}
        assert keyed[0].parts == keyed[1].parts
        assert keyed[0].memo_key == keyed[1].memo_key is not None
        assert derived.count(stand_in) == 3


# ----------------------------------------------------------------------
# store resume must not poison the memo
# ----------------------------------------------------------------------
class TestStoreResumeMemoSafety:
    def test_replayed_records_never_enter_the_memo(self):
        target = MiniGitTarget()
        controller = LFIController(target)
        analysis = controller.analyze_target()
        points = controller.fault_space(analysis=analysis, include_checked=True)
        store = ResultStore()
        first_memo = SuffixMemo()
        engine = ExplorationEngine(
            target, store=store, seed=3, workload="status",
            request_options={"memo": first_memo},
        )
        engine.explore(points)
        assert first_memo.stats().stores > 0

        # Replay-only resume: everything is answered from the store, so a
        # fresh memo must end the run exactly as empty as it began — the
        # lossy stored records (no logs, no coverage) can never be mistaken
        # for runnable results.
        replay_memo = SuffixMemo()
        resumed = ExplorationEngine(
            target, store=store, seed=3, workload="status",
            request_options={"memo": replay_memo},
        )
        report = resumed.explore(points)
        assert report.resumed == len(points)
        assert report.executed == 0
        assert len(replay_memo) == 0
        assert replay_memo.stats().stores == 0


# ----------------------------------------------------------------------
# cross-workload boot-template sharing
# ----------------------------------------------------------------------
class TestCrossWorkloadBootSharing:
    WORKLOADS = ("status", "commit", "gc")

    def test_workloads_share_one_boot_template(self):
        clear_artifact_cache()
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:6]
        references = {}
        for workload in self.WORKLOADS:
            references[workload] = _campaign_observables(
                Campaign(target, workload=workload).run(
                    scenarios, include_baseline=False,
                    memo=False, snapshots=True,
                )
            )
        stats = artifact_cache_stats()
        # One template build serves every workload of the target: the
        # fixture-prefix key collapses what used to be one boot per
        # workload name.
        assert stats.boot_misses == 1
        assert stats.boot_shared_hits >= len(self.WORKLOADS) - 1
        # And sharing the boot state changed nothing observable.
        for workload in self.WORKLOADS:
            fresh = Campaign(target, workload=workload).run(
                scenarios, include_baseline=False,
                memo=False, snapshots=False,
            )
            assert _campaign_observables(fresh) == references[workload]

    def test_boot_scope_override_splits_templates(self):
        class SplitScopeTarget(MiniGitTarget):
            def boot_scope(self, workload):
                return ("boot", workload)

        clear_artifact_cache()
        target = SplitScopeTarget()
        scenarios = _fault_space_scenarios(target)[:2]
        for workload in ("status", "commit"):
            Campaign(target, workload=workload).run(
                scenarios, include_baseline=False, memo=False, snapshots=True
            )
        stats = artifact_cache_stats()
        assert stats.boot_misses == 2
        assert stats.boot_shared_hits == 0

    def test_libc_fingerprint_change_invalidates_shared_templates(self):
        clear_artifact_cache()
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:2]

        def sweep():
            Campaign(target, workload="status").run(
                scenarios, include_baseline=False, memo=False, snapshots=True
            )

        sweep()
        assert artifact_cache_stats().boot_misses == 1
        before = libc_spec_fingerprint()
        original = libc_module.LIBC_FUNCTIONS["read"]
        libc_module.LIBC_FUNCTIONS["read"] = dataclasses.replace(
            original, success="mutated-for-test"
        )
        try:
            assert libc_spec_fingerprint() != before
            sweep()
            # The mutated spec missed the template cache instead of serving
            # boot state built against the old spec.
            assert artifact_cache_stats().boot_misses == 2
        finally:
            libc_module.LIBC_FUNCTIONS["read"] = original
            clear_artifact_cache()
        assert libc_spec_fingerprint() == before


# ----------------------------------------------------------------------
# adaptive group scheduling
# ----------------------------------------------------------------------
class TestAdaptivePlanning:
    def test_no_empty_batches_when_workers_exceed_groups(self):
        tasks = [_group_task(0, [0, 1]), _group_task(1, [2])]
        batches = plan_group_batches(tasks, 8)
        assert batches
        assert all(batch.groups for batch in batches)
        covered = sorted(
            i
            for batch in batches
            for group in batch.groups
            for i, _s, _seed in group.entries
        )
        assert covered == [0, 1, 2]
        assert plan_group_batches([], 4) == []

    def test_split_preserves_rank_order_and_membership(self):
        task = _group_task(0, list(range(10)))
        chunks = split_group_task(task, 3)
        assert [len(c.entries) for c in chunks] == [4, 3, 3]
        flattened = [i for chunk in chunks for i, _s, _seed in chunk.entries]
        assert flattened == list(range(10))
        assert split_group_task(task, 1) == [task]
        # More parts than members clamps to one member per chunk.
        assert [len(c.entries) for c in split_group_task(task, 99)] == [1] * 10

    def test_adaptive_splits_oversized_family_and_beats_static(self):
        # A skewed distribution: one 24-member errno family plus eight
        # singletons.  A packer that keeps the family whole puts at least
        # its whole cost on one shard; the plan splits it across the fleet.
        tasks = [_group_task(0, list(range(24)))] + [
            _group_task(1 + n, [24 + n]) for n in range(8)
        ]
        shards = 4

        def makespan(batches):
            return max(
                sum(estimate_group_cost(group) for group in batch.groups)
                for batch in batches
            )

        adaptive = plan_group_batches(tasks, shards)
        covered = sorted(
            i
            for batch in adaptive
            for group in batch.groups
            for i, _s, _seed in group.entries
        )
        assert covered == list(range(32))
        assert len(adaptive) == shards
        assert makespan(adaptive) < estimate_group_cost(tasks[0])
        # Deterministic: the plan is a pure function of its inputs.
        again = plan_group_batches(tasks, shards)
        assert [
            [(g.index, [e[0] for e in g.entries]) for g in b.groups]
            for b in again
        ] == [
            [(g.index, [e[0] for e in g.entries]) for g in b.groups]
            for b in adaptive
        ]

    def test_packing_does_not_depend_on_process_history(self):
        # A group's cost is a constant function of its size, so a campaign
        # run earlier in the same process cannot change the next plan.
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)
        entries = [(index, scenario, None) for index, scenario in enumerate(scenarios)]
        tasks = build_group_tasks(target, "default-tests", entries)
        assert any(len(task.entries) > 1 for task in tasks)

        def batch_plan():
            return [
                [(g.index, [e[0] for e in g.entries]) for g in batch.groups]
                for batch in plan_group_batches(tasks, 4)
            ]

        before = batch_plan()
        Campaign(target, workload="default-tests").run(
            scenarios, include_baseline=False, parallelism="serial",
            share_prefixes=True, memo=False,
        )
        assert batch_plan() == before
        for task in tasks:
            members = len(task.entries)
            assert estimate_group_cost(task) == pytest.approx(
                1 + 0.35 * (members - 1)
            )

    def test_adaptive_campaign_bit_identical_on_every_backend(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:20]
        campaign = Campaign(target, workload="status")
        reference = _campaign_observables(
            campaign.run(
                scenarios, seed=9, include_baseline=False,
                share_prefixes=False, memo=False,
            )
        )
        for parallelism in ("processes:2", "processes:3"):
            swept = campaign.run(
                scenarios, seed=9, include_baseline=False,
                share_prefixes=True, parallelism=parallelism, memo=False,
            )
            assert _campaign_observables(swept) == reference, parallelism


# ----------------------------------------------------------------------
# group-aware fabric leases + result batching
# ----------------------------------------------------------------------
GIT_SPEC_KWARGS = dict(
    target="mini_git", workload="status", seed=7, functions=["close", "malloc"],
)


def _drain_round(keys, cap=None, workers=(1,)):
    """Every lease a round of points with group *keys* goes out as, one
    ``fetch`` after another; fetch n sees ``workers[n % len(workers)]``
    connected workers."""
    queue = collections.deque(group_buckets(list(range(len(keys))), keys))
    queued = len(keys)
    leases = []
    while queue:
        lease = cut_lease(queue, lease_size(queued, workers[len(leases) % len(workers)], cap))
        queued -= len(lease)
        leases.append(lease)
    return leases


class TestLeasePlanning:
    def test_without_keys_degrades_to_contiguous_chunks(self):
        assert _drain_round([None] * 7, cap=3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert group_buckets([], []) == []
        assert cut_lease(collections.deque(), 3) == []

    def test_group_members_are_colocated(self):
        keys = ["a", "b", "a", None, "b", "a"]
        plan = _drain_round(keys, cap=4)
        shard_of = {i: n for n, shard in enumerate(plan) for i in shard}
        assert shard_of[0] == shard_of[2] == shard_of[5]  # the "a" family
        assert shard_of[1] == shard_of[4]  # the "b" family
        assert sorted(i for shard in plan for i in shard) == list(range(6))
        assert all(len(shard) <= 4 for shard in plan)

    def test_oversized_groups_split_at_shard_size(self):
        plan = _drain_round(["a"] * 10, cap=4)
        assert [len(shard) for shard in plan] == [4, 4, 2]
        assert [i for shard in plan for i in shard] == list(range(10))

    def test_lease_size_is_half_a_workers_share_of_the_round(self):
        assert lease_size(142, workers=1) == 71
        assert lease_size(142, workers=3) == 24
        # The fleet counts as at least one worker; the floor holds at a
        # round's end, and a cap bounds every size.
        assert lease_size(142, workers=0) == 71
        assert lease_size(16, workers=1) == MIN_LEASE_POINTS
        assert lease_size(0, workers=4) == MIN_LEASE_POINTS
        assert lease_size(142, workers=1, cap=16) == 16
        assert lease_size(20, workers=1, cap=3) == 3
        # A lease that would leave fewer than the floor queued takes the
        # rest, unless the cap forbids it.
        assert lease_size(9, workers=1) == 9
        assert lease_size(15, workers=3) == 15
        assert lease_size(9, workers=1, cap=8) == 8
        # One worker takes a 142-point round of singletons in five leases,
        # and a 41-point one in three: the last takes the 2 points a floor
        # lease would have left.
        assert [len(lease) for lease in _drain_round([None] * 142)] == [71, 36, 18, 9, 8]
        assert [len(lease) for lease in _drain_round([None] * 41)] == [21, 10, 10]
        # Two families that fill a floor lease and one more point go out
        # together, not as a lease of 5 and a lease of 4.
        assert _drain_round(["a"] * 5 + ["b"] * 4) == [list(range(9))]

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.one_of(st.none(), st.sampled_from("abcdef")), max_size=90),
        workers=st.lists(st.integers(0, 6), min_size=1, max_size=6),
        cap=st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_a_drained_round_leases_every_point_once(self, keys, workers, cap):
        queue = collections.deque(group_buckets(list(range(len(keys))), keys))
        queued = len(keys)
        # The queue holds the round's buckets in schedule order.
        firsts = [bucket[0] for bucket in queue]
        assert firsts == sorted(firsts)
        initial = [index for bucket in queue for index in bucket]
        leased = []
        while queue:
            size = lease_size(queued, workers[len(leased) % len(workers)], cap)
            order = [index for bucket in queue for index in bucket]
            family_size = {
                keys[bucket[0]]: len(bucket) for bucket in queue if keys[bucket[0]]
            }
            front = list(queue[0])
            lease = cut_lease(queue, size)
            queued -= len(lease)
            left = [index for bucket in queue for index in bucket]
            # Taken off the front of the queue, in queue order, and never
            # past the size, so never past the cap.
            assert 0 < len(lease) <= size and (cap is None or size <= cap)
            assert lease == order[:len(lease)]
            assert left == order[len(lease):] and queued == len(left)
            # It stops only when the queue is empty or the next bucket
            # would take it past the size.
            assert not queue or len(lease) + len(queue[0]) > size
            # Uncapped, it leaves nothing or at least a floor lease.
            assert cap is not None or not left or len(left) >= MIN_LEASE_POINTS
            # Only a family larger than the size is split, and then the
            # lease is that family's first chunk alone.
            for family in {keys[index] for index in lease} & {keys[i] for i in left} - {None}:
                assert family_size[family] > size and lease == front[:size]
            leased.append(lease)
        # Every point leased once, the round's buckets in schedule order.
        assert [index for lease in leased for index in lease] == initial
        assert sorted(initial) == list(range(len(keys)))


class TestFabricIntegration:
    def _run_fabric(self, tmp_path, store_name):
        coordinator = CampaignCoordinator(port=0, shard_size=4, lease_timeout=10.0)
        address = coordinator.start()
        client = CampaignClient(address)
        workers = [
            CampaignWorker(address, worker_id=f"w{n}") for n in range(2)
        ]
        try:
            spec = CampaignSpec(
                store_path=str(tmp_path / store_name), **GIT_SPEC_KWARGS
            )
            reply = client.submit(spec)
            worked = True
            while worked:
                worked = False
                for worker in workers:
                    worked |= worker.run_once()
            status = client.status(reply["campaign_id"])
            records = client.results(reply["campaign_id"])
            return status, records, workers
        finally:
            client.close()
            for worker in workers:
                worker.close()
            coordinator.stop()

    @staticmethod
    def _record_signature(records):
        return [
            (r["key"], r["outcome"], r["detail"], r["exit_code"], r["location"],
             r["injections"], r["fingerprint"], r["run_seed"])
            for r in records
        ]

    def _serial_signature(self):
        spec = CampaignSpec(**GIT_SPEC_KWARGS)
        engine, points = build_engine(spec, store=ResultStore())
        report = engine.explore(points)
        return [
            (engine.run_key(o.point), o.outcome.kind.value, o.outcome.detail,
             o.outcome.exit_code, o.outcome.location, o.injections,
             o.fingerprint, o.run_seed)
            for o in report.outcomes
        ]

    def test_batched_fabric_bit_identical_to_serial(self, tmp_path):
        reference = self._serial_signature()
        status, records, workers = self._run_fabric(tmp_path, "batched.jsonl")
        assert status["state"] == "complete"
        assert status["executed"] == status["total"]
        assert self._record_signature(records) == reference
        assert sum(w.results_streamed for w in workers) == status["total"]
        # Worker-reported cache deltas surfaced through `status` (the CLI
        # prints this payload verbatim).
        assert "memo_hits" in status["cache"]
        assert "boot_hits" in status["cache"]
