"""Tests for suffix memoization, cross-workload boot reuse, and
cost-adaptive group scheduling (PR 9 tentpole + satellites).

The contract under test: every new layer — the suffix memo, the
boot-scope template keying, the adaptive group planner, the group-aware
fabric leases, and worker-side result batching — is a pure throughput
optimisation.  Results stay bit-identical to the memo-free per-scenario
serial oracle on every backend and through the campaignd fabric, and the
``memo=False`` knob recovers the memo-free path exactly.
"""

import dataclasses
import logging
import pickle

import pytest

from repro.core.controller.campaign import TestCampaign as Campaign
from repro.core.controller.controller import LFIController
from repro.core.controller.executor import (
    GroupTask,
    estimate_group_cost,
    plan_group_batches,
    split_group_task,
)
from repro.core.controller.memo import (
    SuffixMemo,
    clear_suffix_memo,
    default_memo_bytes,
    resolve_memo,
    suffix_memo,
    suffix_memo_stats,
)
from repro.core.controller.monitor import Outcome, OutcomeKind, RunResult
from repro.core.controller.prefix import build_group_tasks, member_memo_key
from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.store import ResultStore
from repro.core.profiler.cache import (
    artifact_cache_stats,
    clear_artifact_cache,
    libc_spec_fingerprint,
)
from repro.core.scenario.builder import ScenarioBuilder
from repro.distributed.campaignd import CampaignCoordinator, plan_lease_shards
from repro.distributed.client import CampaignClient
from repro.distributed.spec import CampaignSpec, build_engine
from repro.distributed.worker import CampaignWorker
from repro.oslib import libc as libc_module
from repro.targets.mini_git import MiniGitTarget
import repro.targets.base as targets_base


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
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
        one_size = SuffixMemo(max_bytes=1 << 20)
        one_size.store("probe", payload)
        entry_bytes = one_size.stats().current_bytes
        memo = SuffixMemo(max_bytes=3 * entry_bytes)
        for key in ("a", "b", "c"):
            assert memo.store(key, payload)
        assert len(memo) == 3
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
        assert stats.current_bytes <= memo.max_bytes

    def test_oversized_and_unpicklable_results_are_rejected(self):
        memo = SuffixMemo(max_bytes=64)
        assert memo.store("big", "y" * 4096) is False
        assert memo.store("bad", lambda: None) is False  # unpicklable
        assert len(memo) == 0
        assert memo.stats().rejected == 2

    def test_unpicklable_result_is_logged_and_counted(self, caplog):
        memo = SuffixMemo()
        result = RunResult(
            outcome=Outcome(kind=OutcomeKind.NORMAL), stats={"hook": lambda: None}
        )
        with pytest.raises(Exception) as expected:
            pickle.dumps(result)
        with caplog.at_level(logging.WARNING, logger="repro.core.controller.memo"):
            assert memo.store("bad", result) is False
        assert memo.lookup("bad") is None
        assert memo.stats().rejected == 1
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert type(expected.value).__name__ in record.getMessage()

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
        once = memo.stats().current_bytes
        memo.store("k", "a" * 50)
        assert memo.stats().current_bytes == once
        assert len(memo) == 1

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
            return member_memo_key(
                target, workload, scenario, False, dict(options or {}), False
            )

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
        edited = member_memo_key(EditedGit(), "status", scenarios[0], False, {}, False)
        assert edited is not None and edited != first

    def test_unshareable_scenarios_get_no_key(self):
        target = MiniGitTarget()
        builder = ScenarioBuilder("ramped")
        builder.trigger("r", "RandomTrigger", probability=0.5)
        builder.inject("read", ["r"], return_value=-1, errno="EIO")
        assert (
            member_memo_key(target, "status", builder.build(), False, {}, False)
            is None
        )
        assert member_memo_key(target, "status", None, False, {}, False) is None


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

    def test_memo_hits_are_detached_copies(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:4]
        memo = SuffixMemo()

        def sweep():
            campaign = Campaign(target, workload="status").run(
                scenarios, include_baseline=False, memo=memo
            )
            return [outcome.result for outcome in campaign.outcomes]

        first, second = sweep(), sweep()
        for a, b in zip(first, second):
            assert a is not b
            assert a.outcome is not b.outcome
            assert a.log is not b.log

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


class TestLeasePlanning:
    def test_without_keys_degrades_to_contiguous_chunks(self):
        plan = plan_lease_shards(list(range(7)), [None] * 7, 3)
        assert plan == [[0, 1, 2], [3, 4, 5], [6]]
        assert plan_lease_shards([], [], 3) == []

    def test_group_members_are_colocated(self):
        keys = ["a", "b", "a", None, "b", "a"]
        plan = plan_lease_shards(list(range(6)), keys, 4)
        shard_of = {i: n for n, shard in enumerate(plan) for i in shard}
        assert shard_of[0] == shard_of[2] == shard_of[5]  # the "a" family
        assert shard_of[1] == shard_of[4]  # the "b" family
        assert sorted(i for shard in plan for i in shard) == list(range(6))
        assert all(len(shard) <= 4 for shard in plan)

    def test_oversized_groups_split_at_shard_size(self):
        keys = ["a"] * 10
        plan = plan_lease_shards(list(range(10)), keys, 4)
        assert [len(shard) for shard in plan] == [4, 4, 2]
        assert [i for shard in plan for i in shard] == list(range(10))


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
