"""Tests for the campaign plan: one fault space prepared once per image.

The contract: a plan is derived once per (image content, libc spec,
``once``, ordered points) and every role reads it — serial ``explore()``,
pooled batches, the fabric coordinator and the worker — without deriving
scenarios, key parts or memo keys of its own.  Plans live as long as
their images, and records stay byte-identical to the oracle path.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import pytest

from repro.core.controller import memo as memo_module
from repro.core.controller import prefix
from repro.core.controller.controller import LFIController
from repro.core.controller.memo import SuffixMemo, clear_suffix_memo
from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.plan import CampaignPlan, campaign_plan
from repro.core.exploration.space import (
    FaultPoint,
    StructuredFaultPoint,
    enumerate_structured_space,
)
from repro.core.exploration.store import ResultStore
from repro.core.profiler import cache as cache_module
from repro.core.profiler.cache import (
    PLANS_PER_IMAGE,
    artifact_cache_stats,
    cached_merged_profile,
    clear_artifact_cache,
)
from repro.distributed.campaignd import CampaignCoordinator
from repro.distributed.client import CampaignClient
from repro.distributed.spec import CampaignSpec, build_engine
from repro.distributed.worker import CampaignWorker
from repro.minicc import compile_source
from repro.oslib import libc as libc_module
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
import repro.targets.base as targets_base

CLASSES = ("short_read", "partial_write", "crash_point", "heap_exhaustion")
ORACLE = {"engine": "reference", "snapshots": False, "memo": False}


def _space(target, functions=None):
    points = LFIController(target).fault_space(functions=functions, include_checked=True)
    return points + enumerate_structured_space(target.name, CLASSES, functions=functions)


def _records(store):
    """A store's records in schedule order (stores keep completion order)."""
    return sorted(
        (record.to_dict() for record in store.results()), key=lambda r: r["index"]
    )


def _explore(target, points, workload, **kwargs):
    spec = dict(seed=11, workload=workload)
    spec.update(kwargs)
    store = ResultStore()
    ExplorationEngine(target, store=store, **spec).explore(points)
    return _records(store)


class _Counts:
    """Counts scenario builds, key-part derivations and memo digests."""

    def __init__(self, monkeypatch):
        self.scenarios = 0
        self.parts = 0
        self.digests = 0
        for owner in (FaultPoint, StructuredFaultPoint):
            monkeypatch.setattr(owner, "scenario", self._counting(owner.scenario, "scenarios"))
        monkeypatch.setattr(
            prefix, "_scenario_group_key_parts",
            self._counting(prefix._scenario_group_key_parts, "parts"),
        )
        monkeypatch.setattr(
            prefix, "_memo_digest", self._counting(prefix._memo_digest, "digests")
        )

    def _counting(self, original, name):
        def counting(*args, **kwargs):
            setattr(self, name, getattr(self, name) + 1)
            return original(*args, **kwargs)

        return counting

    def snapshot(self):
        return (self.scenarios, self.parts, self.digests)


# ----------------------------------------------------------------------
# one derivation per space per image
# ----------------------------------------------------------------------
class TestOneDerivation:
    def test_second_explore_derives_nothing(self, monkeypatch):
        clear_artifact_cache()
        counts = _Counts(monkeypatch)
        memo = SuffixMemo()
        first = _explore(
            MiniGitTarget(), _space(MiniGitTarget()), "status",
            request_options={"memo": memo},
        )
        assert min(counts.snapshot()) > 0
        before = counts.snapshot()
        stats = artifact_cache_stats()
        # A fresh target instance, a freshly enumerated (equal) space and a
        # fresh engine: the plan, its scenarios and memo keys are reused.
        second = _explore(
            MiniGitTarget(), _space(MiniGitTarget()), "status",
            request_options={"memo": memo},
        )
        assert counts.snapshot() == before
        assert second == first
        after = artifact_cache_stats()
        assert after.plan_misses == stats.plan_misses
        assert after.plan_hits == stats.plan_hits + 1

    def test_fault_space_is_served_from_the_cache(self):
        controller = LFIController(MiniBindTarget())
        points = controller.fault_space(include_checked=True)
        again = LFIController(MiniBindTarget()).fault_space(include_checked=True)
        assert again == points and again is not points
        assert all(new is old for new, old in zip(again, points))
        assert LFIController(MiniBindTarget()).fault_space() != points  # other switches

    def test_fabric_submit_and_drain_builds_one_plan(self, tmp_path):
        clear_artifact_cache()
        clear_suffix_memo()
        kwargs = dict(target="mini_git", workload="default-tests", seed=3,
                      functions=["read", "write", "close"],
                      fault_classes=["short_read", "crash_point"])
        coordinator = CampaignCoordinator(port=0, shard_size=4, durable_stores=False)
        address = coordinator.start()
        client = CampaignClient(address)
        worker = CampaignWorker(address)
        try:
            reply = client.submit(CampaignSpec(store_path=str(tmp_path / "f.jsonl"), **kwargs))
            while worker.run_once():
                pass
            assert client.status(reply["campaign_id"])["state"] == "complete"
            records = client.results(reply["campaign_id"])
        finally:
            client.close()
            worker.close()
            coordinator.stop()
        assert artifact_cache_stats().plan_misses == 1
        engine, points = build_engine(CampaignSpec(**kwargs), store=ResultStore())
        engine.explore(points)
        assert artifact_cache_stats().plan_misses == 1
        assert sorted(records, key=lambda r: r["index"]) == _records(engine.store)


# ----------------------------------------------------------------------
# content identity and lifetime
# ----------------------------------------------------------------------
class TestPlanIdentity:
    def test_identical_recompiled_image_hits(self, monkeypatch):
        target = MiniGitTarget()
        points = _space(target, functions=["read", "close"])
        image = target.binary()
        plan = campaign_plan(target, points)
        monkeypatch.setattr(targets_base.CompiledTarget, "_binary_cache", {})
        recompiled = MiniGitTarget()
        assert recompiled.binary() is not image
        assert recompiled.binary().content_digest() == image.content_digest()
        hits = artifact_cache_stats().plan_hits
        assert campaign_plan(recompiled, points) is plan
        assert artifact_cache_stats().plan_hits == hits + 1

    def test_once_point_set_and_libc_spec_each_miss(self, monkeypatch):
        target = MiniGitTarget()
        points = _space(target, functions=["read", "close"])
        plan = campaign_plan(target, points)
        misses = artifact_cache_stats().plan_misses
        assert campaign_plan(target, points, once=False) is not plan
        assert campaign_plan(target, points[:-1]) is not plan
        assert campaign_plan(target, list(reversed(points))) is not plan
        spec = libc_module.LIBC_FUNCTIONS["close"]
        monkeypatch.setitem(
            libc_module.LIBC_FUNCTIONS, "close", replace(spec, errno_via_return=True)
        )
        assert campaign_plan(target, points) is not plan
        assert artifact_cache_stats().plan_misses == misses + 4
        monkeypatch.undo()
        assert campaign_plan(target, points) is plan

    def test_clear_artifact_cache_drops_plans(self):
        target = MiniGitTarget()
        points = _space(target, functions=["read"])
        ref = weakref.ref(campaign_plan(target, points))
        clear_artifact_cache()
        gc.collect()
        assert ref() is None
        misses = artifact_cache_stats().plan_misses
        campaign_plan(target, points)
        assert artifact_cache_stats().plan_misses == misses + 1

    def test_a_plan_dies_with_its_image(self):
        clear_artifact_cache()
        source = MiniGitTarget()
        points = _space(source, functions=["read"])

        class OwnImage:
            name = "mini_git"

            def __init__(self):
                self.image = compile_source(source.source(), name="mini_git")

            def binary(self):
                return self.image

        holder = OwnImage()
        ref = weakref.ref(campaign_plan(holder, points))
        assert campaign_plan(holder, points) is ref()
        del holder
        gc.collect()
        assert ref() is None

    def test_threads_racing_on_one_space_share_one_plan(self):
        # A coordinator's connection threads and an in-process worker may
        # plan the same space at once: one build, one plan, one key tuple
        # per memo context.
        clear_artifact_cache()
        target = MiniGitTarget()
        points = _space(target, functions=["read", "write"])
        plans, keys, errors = [], [], []
        barrier = threading.Barrier(8)

        def work():
            try:
                barrier.wait(timeout=30)
                for round_ in range(20):
                    plan = campaign_plan(target, list(points))
                    plans.append(plan)
                    keys.append(plan.memo_keys(b"context-%d" % (round_ % 2)))
            except Exception as exc:  # a crashed thread fails the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(plans) == 160 and all(plan is plans[0] for plan in plans)
        assert artifact_cache_stats().plan_misses == 1
        assert len({id(tuple_) for tuple_ in keys}) == 2

    def test_plans_per_image_are_bounded(self):
        target = MiniGitTarget()
        points = _space(target, functions=["read", "write", "close"])
        refs = [
            weakref.ref(campaign_plan(target, points[: len(points) - cut]))
            for cut in range(PLANS_PER_IMAGE + 2)
        ]
        gc.collect()
        assert [ref() is None for ref in refs] == [True, True] + [False] * PLANS_PER_IMAGE

    def test_a_plan_is_frozen_and_maps_keys_to_points(self):
        target = MiniGitTarget()
        points = _space(target, functions=["read"])
        plan = campaign_plan(target, points)
        assert isinstance(plan, CampaignPlan)
        assert set(plan) == {point.key for point in points}
        assert all(plan[point.key] == point for point in points)
        with pytest.raises(AttributeError):
            plan.points = ()
        with pytest.raises(AttributeError):
            points[0].key = "other"


# ----------------------------------------------------------------------
# warm plan == cold plan == oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "target_class, workload, functions",
    [(MiniGitTarget, "default-tests", ["read", "write", "close", "malloc"]),
     (MiniBindTarget, "queries", ["read", "open", "malloc"])],
    ids=["mini_git", "mini_bind"],
)
@pytest.mark.parametrize(
    "strategy", [None, "coverage:round=6,patience=1"], ids=["static", "coverage"]
)
def test_warm_cold_and_oracle_records_are_identical(
    target_class, workload, functions, strategy
):
    points = _space(target_class(), functions=functions)
    oracle = _explore(
        target_class(), points, workload, strategy=strategy,
        share_prefixes=False, request_options=dict(ORACLE),
    )
    assert len(oracle) > 10
    for parallelism in ("serial", "processes:2"):
        clear_artifact_cache()
        clear_suffix_memo()
        for temperature in ("cold", "warm"):
            records = _explore(
                target_class(), points, workload, strategy=strategy,
                parallelism=parallelism,
            )
            assert records == oracle, (parallelism, temperature)


# ----------------------------------------------------------------------
# the memo decision and the spec fingerprints
# ----------------------------------------------------------------------
def test_groups_take_the_memo_from_their_task(monkeypatch):
    reads = []
    original = memo_module.default_memo_enabled

    def counting():
        reads.append(1)
        return original()

    monkeypatch.setattr(memo_module, "default_memo_enabled", counting)
    target = MiniGitTarget()
    engine = ExplorationEngine(target, store=ResultStore(), workload="status")
    report = engine.explore(_space(target, functions=["read", "write", "close"]))
    assert report.executed > 10
    assert len(reads) == 1  # one decision for the whole pipeline call


def test_spec_fingerprints_are_computed_once_per_table(monkeypatch):
    computed = []
    original = cache_module.library_spec_fingerprint

    def counting(library):
        computed.append(library)
        return original(library)

    merged = cached_merged_profile()
    monkeypatch.setattr(cache_module, "library_spec_fingerprint", counting)
    assert cached_merged_profile() is merged
    assert cached_merged_profile() is merged
    assert computed == []
    spec = libc_module.LIBC_FUNCTIONS["read"]
    monkeypatch.setitem(
        libc_module.LIBC_FUNCTIONS, "read", replace(spec, errno_via_return=True)
    )
    misses = artifact_cache_stats().merged_misses
    assert cached_merged_profile() is not merged
    assert artifact_cache_stats().merged_misses == misses + 1
    assert sorted(computed) == sorted(cache_module.known_libraries())
