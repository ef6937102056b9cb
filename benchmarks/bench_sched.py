#!/usr/bin/env python3
"""Scheduling + memoization benchmark — writes ``BENCH_sched.json``.

Three measurements for the suffix-memo / cross-workload-reuse /
cost-adaptive-scheduling layer:

1. **resweep_memo** — a coverage-collecting mini_git sweep executed twice
   against one private :class:`SuffixMemo` on a fresh target instance:
   the cold pass builds every capture and runs every suffix, the warm
   pass answers every member from the memo.  The target (asserted in
   full mode) is a >= 5x warm-over-cold speedup.  Both passes, and the
   memo-off oracle they are compared against, must be bit-identical.
2. **cross_workload** — the same multi-workload smoke sweep on two
   targets that differ only in boot-template keying: one with the
   fixture-prefix scope (all workloads share one boot+fixture capture)
   and one pinned to the historical per-workload scope.  The speedup is
   what sharing the boot capture across ``status``/``commit``/``gc``/...
   buys on short sweeps, where boot cost is not amortised away.
3. **adaptive_sched** — a skewed group distribution (one large
   count×errno family that genuinely fires mid-workload, two medium
   families, singletons) planned with the static round-robin policy vs
   the cost-adaptive splitter.  Each batch is drained serially against a
   **fresh target instance** — process-shard semantics, every shard owns
   its caches — and the makespan is the slowest batch (robust on starved
   CI runners).  Adaptive must not lose, and on the skew it should win.

Every leg asserts bit-identical results against the memo-free serial
oracle, and a small campaignd fabric round trip (coordinator + worker in
process, batched results, group-aware leases) is checked against the same
oracle as well.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sched.py [--smoke] \
        [--output BENCH_sched.json]

``--smoke`` shrinks the sweeps for CI; the JSON schema is identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace as dc_replace

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.controller.campaign import TestCampaign  # noqa: E402
from repro.core.controller.controller import LFIController  # noqa: E402
from repro.core.controller.executor import (  # noqa: E402
    estimate_group_cost,
    execute_group_batch,
    plan_group_batches,
)
from repro.core.controller.memo import SuffixMemo  # noqa: E402
from repro.core.controller.prefix import build_group_tasks  # noqa: E402
from repro.core.exploration.store import ResultStore  # noqa: E402
from repro.core.profiler.cache import artifact_cache_stats  # noqa: E402
from repro.core.scenario.builder import ScenarioBuilder  # noqa: E402
from repro.distributed.campaignd import CampaignCoordinator  # noqa: E402
from repro.distributed.client import CampaignClient  # noqa: E402
from repro.distributed.spec import CampaignSpec, build_engine  # noqa: E402
from repro.distributed.worker import CampaignWorker  # noqa: E402
from repro.targets.mini_git import MiniGitTarget  # noqa: E402


class PerWorkloadScopeMiniGit(MiniGitTarget):
    """mini_git with the historical per-workload boot-template keying.

    The cross-workload control: same binary, same workloads, but every
    workload boots its own template — exactly what the old key
    ``(workload, engine, fingerprint)`` produced.
    """

    def boot_scope(self, workload):
        return ("boot", workload)


def _fault_scenarios(target):
    controller = LFIController(target)
    analysis = controller.analyze_target()
    points = controller.fault_space(analysis=analysis, include_checked=True)
    return [point.scenario() for point in points]


def _observables(campaign):
    return [
        (o.scenario.name, o.outcome.kind.value, o.outcome.detail,
         o.outcome.exit_code, o.result.injections)
        for o in campaign.outcomes
    ]


# ----------------------------------------------------------------------
# 1. resweep_memo: warm memo vs cold
# ----------------------------------------------------------------------
def bench_resweep(scenario_cap, repeats) -> dict:
    scenarios = _fault_scenarios(MiniGitTarget())[:scenario_cap]

    def sweep(target, **options):
        campaign = TestCampaign(target, workload="default-tests")
        start = time.perf_counter()
        result = campaign.run(
            scenarios, seed=3, include_baseline=False,
            collect_coverage=True, **options
        )
        return time.perf_counter() - start, result

    _oracle_seconds, oracle = sweep(MiniGitTarget(), memo=False)
    reference = _observables(oracle)

    cold_seconds = warm_seconds = None
    stats = None
    for _ in range(repeats):
        # Fresh instance and memo per repeat: each cold pass pays its own
        # boot template and capture tree, exactly as a new campaign would.
        target = MiniGitTarget()
        memo = SuffixMemo()
        elapsed, cold = sweep(target, memo=memo)
        cold_seconds = min(cold_seconds or elapsed, elapsed)
        assert _observables(cold) == reference, "cold memoized sweep diverged"
        for _ in range(3):  # warm sweeps are cheap: take the best
            elapsed, warm = sweep(target, memo=memo)
            warm_seconds = min(warm_seconds or elapsed, elapsed)
            assert _observables(warm) == reference, "warm memoized sweep diverged"
        stats = memo.stats()
        assert stats.hits == 3 * len(scenarios), "warm passes must hit on every member"
    return {
        "runs": len(scenarios),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup_warm_vs_cold": round(cold_seconds / warm_seconds, 2),
        "memo_hits": stats.hits,
        "memo_stores": stats.stores,
        "memo_bytes": stats.current_bytes,
    }


# ----------------------------------------------------------------------
# 2. cross_workload: fixture-prefix boot scope vs per-workload scope
# ----------------------------------------------------------------------
def bench_cross_workload(workloads, scenario_cap, repeats) -> dict:
    scenarios = _fault_scenarios(MiniGitTarget())[:scenario_cap]

    def sweep(target):
        observed = []
        start = time.perf_counter()
        for workload in workloads:
            observed.append(
                _observables(
                    TestCampaign(target, workload=workload).run(
                        scenarios, seed=3, include_baseline=False,
                        memo=False, snapshots=True,
                    )
                )
            )
        return time.perf_counter() - start, observed

    shared_seconds = split_seconds = None
    reference = None
    boot = {}
    for _ in range(repeats):
        # Fresh instances per repeat: boot templates are keyed per target
        # instance, so each pass pays (and measures) its own boot builds.
        before = artifact_cache_stats()
        elapsed, observed = sweep(PerWorkloadScopeMiniGit())
        split_seconds = min(split_seconds or elapsed, elapsed)
        mid = artifact_cache_stats()
        elapsed, shared_observed = sweep(MiniGitTarget())
        shared_seconds = min(shared_seconds or elapsed, elapsed)
        after = artifact_cache_stats()
        boot = {
            "boot_misses_per_workload_scope": mid.boot_misses - before.boot_misses,
            "boot_misses_shared_scope": after.boot_misses - mid.boot_misses,
            "boot_shared_hits": after.boot_shared_hits - mid.boot_shared_hits,
        }
        if reference is None:
            reference = observed
        assert shared_observed == observed, (
            "shared-fixture boot templates changed sweep results"
        )
    assert boot["boot_misses_shared_scope"] == 1
    assert boot["boot_misses_per_workload_scope"] == len(workloads)
    return {
        "workloads": list(workloads),
        "runs": len(scenarios) * len(workloads),
        "per_workload_scope_seconds": round(split_seconds, 4),
        "shared_scope_seconds": round(shared_seconds, 4),
        "speedup_shared_vs_per_workload": round(split_seconds / shared_seconds, 2),
        **boot,
    }


# ----------------------------------------------------------------------
# 3. adaptive_sched: skewed groups, static vs adaptive makespan
# ----------------------------------------------------------------------
#: Every count in the big family genuinely fires on ``default-tests``
#: (malloc is called 7 times there), so each member pays a real suffix.
_FAMILY_ERRNOS = (
    "ENOMEM", "EAGAIN", "EINTR", "EIO", "ENOSPC", "EACCES", "EFAULT",
    "EINVAL", "ENFILE", "EMFILE", "ENODEV", "EPERM", "ENOENT", "EBADF",
    "EROFS", "EISDIR",
)


def _fault_family(function, counts, errnos, return_value):
    scenarios = []
    for nth in counts:
        for errno in errnos:
            builder = ScenarioBuilder(f"{function}-{nth}-{errno}")
            builder.trigger("count", "CallCountTrigger", nth=nth)
            builder.inject(function, ["count"], return_value=return_value,
                           errno=errno)
            scenarios.append(builder.build())
    return scenarios


def _skewed_scenarios(family_errnos):
    return (
        _fault_family("malloc", range(1, 8), family_errnos, 0)
        + _fault_family("open", range(1, 6), ("EACCES", "ENOENT"), -1)
        + _fault_family("close", range(1, 6), ("EIO",), -1)
        + _fault_family("write", range(1, 4), ("ENOSPC",), -1)
    )


def bench_adaptive(shards, family_errnos, repeats) -> dict:
    scenarios = _skewed_scenarios(family_errnos)
    entries = [(index, s, None) for index, s in enumerate(scenarios)]
    options = {"memo": False, "snapshots": True}

    def make_tasks():
        return build_group_tasks(
            MiniGitTarget(), "default-tests", entries, options=options
        )

    ref_tasks = make_tasks()
    family_size = max(len(task.entries) for task in ref_tasks)

    def drain(policy, timed=True):
        batches = plan_group_batches(ref_tasks, shards, policy=policy)
        merged = {}
        makespan = 0.0
        for batch in batches:
            # Each batch gets a fresh target instance: process-shard
            # semantics, where every shard owns its boot/capture caches.
            by_index = {task.index: task for task in make_tasks()}
            fallback = MiniGitTarget()
            fresh = dc_replace(batch, groups=[
                dc_replace(group, target=by_index[group.index].target
                           if group.index in by_index else fallback)
                for group in batch.groups
            ])
            start = time.perf_counter()
            merged.update(execute_group_batch(fresh))
            makespan = max(makespan, time.perf_counter() - start)
        signature = [
            (merged[i].outcome.kind.value, merged[i].outcome.detail,
             merged[i].injections)
            for i in sorted(merged)
        ]
        return makespan, signature, batches

    drain("static")  # warm process-global caches (predecode, profiles)
    static_makespan = adaptive_makespan = None
    static_signature = adaptive_signature = None
    static_batches = adaptive_batches = None
    for _ in range(repeats):
        makespan, static_signature, static_batches = drain("static")
        static_makespan = min(static_makespan or makespan, makespan)
        makespan, adaptive_signature, adaptive_batches = drain("adaptive")
        adaptive_makespan = min(adaptive_makespan or makespan, makespan)
    assert static_signature == adaptive_signature, (
        "adaptive schedule changed sweep results"
    )
    fired = sum(1 for kind, _detail, injections in static_signature if injections)

    def modeled_makespan(batches):
        return max(
            sum(estimate_group_cost(group) for group in batch.groups)
            for batch in batches
        )

    return {
        "shards": shards,
        "groups": len(ref_tasks),
        "largest_family": family_size,
        "runs": len(scenarios),
        "injections_fired": fired,
        "static_makespan_seconds": round(static_makespan, 4),
        "adaptive_makespan_seconds": round(adaptive_makespan, 4),
        "speedup_adaptive_vs_static": round(
            static_makespan / adaptive_makespan, 2
        ),
        "modeled_static_makespan": round(modeled_makespan(static_batches), 2),
        "modeled_adaptive_makespan": round(modeled_makespan(adaptive_batches), 2),
    }


# ----------------------------------------------------------------------
# 4. fabric_check: the same oracle through campaignd
# ----------------------------------------------------------------------
def check_fabric(tmp_store) -> dict:
    spec_kwargs = dict(
        target="mini_git", workload="status", seed=7, functions=["close"],
    )
    engine, points = build_engine(
        CampaignSpec(**spec_kwargs), store=ResultStore()
    )
    reference = [
        (engine.run_key(o.point), o.outcome.kind.value, o.outcome.detail,
         o.injections, o.fingerprint, o.run_seed)
        for o in engine.explore(points).outcomes
    ]

    coordinator = CampaignCoordinator(port=0, shard_size=4)
    address = coordinator.start()
    client = CampaignClient(address)
    worker = CampaignWorker(address, worker_id="bench")
    try:
        reply = client.submit(CampaignSpec(store_path=tmp_store, **spec_kwargs))
        while worker.run_once():
            pass
        status = client.status(reply["campaign_id"])
        records = client.results(reply["campaign_id"])
    finally:
        client.close()
        worker.close()
        coordinator.stop()
    fabric = [
        (r["key"], r["outcome"], r["detail"], r["injections"],
         r["fingerprint"], r["run_seed"])
        for r in records
    ]
    assert status["state"] == "complete"
    assert fabric == reference, "fabric results diverged from serial oracle"
    return {
        "records": len(records),
        "identical_to_serial": True,
        "batched_messages": True,
        "worker_cache_stats": status.get("cache", {}),
    }


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="shrink for CI")
    parser.add_argument("--output", default="BENCH_sched.json")
    args = parser.parse_args()

    if args.smoke:
        scenario_cap, cross_cap = 48, 4
        workloads = ("status", "commit", "gc")
        # The family must stay large even in smoke: splitting only beats
        # round-robin when suffix work dominates per-batch fixed costs.
        family_errnos, repeats = _FAMILY_ERRNOS, 1
    else:
        scenario_cap, cross_cap = 200, 4
        workloads = ("default-tests", "status", "commit", "merge", "gc")
        family_errnos, repeats = _FAMILY_ERRNOS, 3

    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "benchmark": "sched",
            "mode": "smoke" if args.smoke else "full",
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "resweep_memo": bench_resweep(scenario_cap, max(repeats, 2)),
            "cross_workload": bench_cross_workload(workloads, cross_cap, max(repeats, 2)),
            "adaptive_sched": bench_adaptive(4, family_errnos, repeats),
            "fabric_check": check_fabric(os.path.join(tmp, "bench_sched.jsonl")),
        }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    resweep = payload["resweep_memo"]
    cross = payload["cross_workload"]
    adaptive = payload["adaptive_sched"]
    print(f"resweep_memo: cold {resweep['cold_seconds']}s, warm "
          f"{resweep['warm_seconds']}s -> {resweep['speedup_warm_vs_cold']}x "
          f"({resweep['memo_hits']} hits)")
    print(f"cross_workload ({len(cross['workloads'])} workloads): "
          f"per-workload boots {cross['per_workload_scope_seconds']}s, shared "
          f"boot {cross['shared_scope_seconds']}s -> "
          f"{cross['speedup_shared_vs_per_workload']}x "
          f"({cross['boot_misses_shared_scope']} boot build vs "
          f"{cross['boot_misses_per_workload_scope']})")
    print(f"adaptive_sched: static makespan "
          f"{adaptive['static_makespan_seconds']}s, adaptive "
          f"{adaptive['adaptive_makespan_seconds']}s -> "
          f"{adaptive['speedup_adaptive_vs_static']}x on "
          f"{adaptive['groups']} groups (largest family "
          f"{adaptive['largest_family']}, {adaptive['injections_fired']} "
          f"of {adaptive['runs']} runs fired)")
    print(f"fabric_check: {payload['fabric_check']['records']} records "
          f"bit-identical through campaignd")
    print(f"wrote {args.output}")

    below = []
    if resweep["speedup_warm_vs_cold"] < 5.0:
        below.append("warm memo re-sweep below the 5x target")
    if cross["speedup_shared_vs_per_workload"] < 1.0:
        below.append("cross-workload sharing slower than per-workload boots")
    if adaptive["speedup_adaptive_vs_static"] < 1.0:
        below.append("adaptive scheduling slower than static round-robin")
    for line in below:
        print(f"WARNING: {line}", file=sys.stderr)
    if below and not args.smoke:
        # Smoke runs on shared CI runners are noisy: warn without failing
        # so the trajectory artifact still gets uploaded.
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
