#!/usr/bin/env python3
"""Forkserver snapshot/restore benchmark — writes ``BENCH_snapshot.json``.

Measures the boot-amortized campaign throughput of the snapshot engine
(PR 4) against the PR 3 rebuild path, which rebuilt the OS fixture, libc,
and machine for every scenario run:

1. **mini_git campaign sweep** — the automatic-testing shape (every
   analyzer fault-space scenario x every workload), rebuild path
   (``snapshots=False, share_prefixes=False``) vs the snapshot engine
   (boot-template restore + copy-on-write rewinds + prefix-sharing
   scheduler with instruction-level mid-run resume).  The headline
   campaign number: must clear 2x.
2. **mini_git exploration** — the same comparison through
   ``LFIController.explore`` (fault-space exploration with result-store
   checkpointing).
3. **mini_apache trigger campaign** — the paper's §7.4/Table 5
   methodology: per-call-site trigger compositions evaluated observe-only
   under ``ab``, where the prefix-sharing scheduler collapses each
   scenario family onto one probe run.  Must clear 2x.  An *injecting*
   variant of the same campaign is reported alongside (its runs diverge at
   the fault, so only the pre-trigger prefix is shareable via the
   capture/restore fork path).
4. **boot restore micro** — restores/sec of a boot template vs fresh
   session builds, plus the dirty-word count a restore actually rewinds.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_snapshot.py [--smoke] [--output BENCH_snapshot.json]

``--smoke`` shrinks the workloads for CI; the JSON schema is identical, so
the perf trajectory accumulates across runs either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.controller.campaign import TestCampaign  # noqa: E402
from repro.core.controller.controller import LFIController  # noqa: E402
from repro.core.controller.prefix import run_scenarios_shared  # noqa: E402
from repro.core.controller.target import WorkloadRequest  # noqa: E402
from repro.core.exploration.store import ResultStore  # noqa: E402
from repro.core.scenario.builder import ScenarioBuilder  # noqa: E402
from repro.targets.mini_apache.target import MiniApacheTarget  # noqa: E402
from repro.targets.mini_git import MiniGitTarget  # noqa: E402


# ----------------------------------------------------------------------
# mini_git: campaign sweep + exploration
# ----------------------------------------------------------------------
def _git_fixture():
    target = MiniGitTarget()
    controller = LFIController(target)
    analysis = controller.analyze_target()
    points = controller.fault_space(analysis=analysis, include_checked=True)
    scenarios = [point.scenario() for point in points]
    return target, controller, analysis, scenarios


def bench_mini_git_campaign(workloads, repeats: int) -> dict:
    target, _controller, _analysis, scenarios = _git_fixture()

    def sweep(snapshots: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for workload in workloads:
                TestCampaign(target, workload=workload).run(
                    scenarios, seed=3, include_baseline=False,
                    share_prefixes=snapshots, snapshots=snapshots,
                )
            best = min(best, time.perf_counter() - start)
        return best

    sweep(True)  # warm caches + boot templates outside the timed region
    runs = len(scenarios) * len(workloads)
    rebuild = sweep(False)
    snapshot = sweep(True)
    return {
        "scenarios": len(scenarios),
        "workloads": list(workloads),
        "runs": runs,
        "rebuild": {"runs_per_sec": round(runs / rebuild, 1)},
        "snapshot": {"runs_per_sec": round(runs / snapshot, 1)},
        "speedup": round(rebuild / snapshot, 2),
    }


def bench_mini_git_exploration(workload: str, repeats: int) -> dict:
    target, controller, analysis, _scenarios = _git_fixture()

    def explore(snapshots: bool) -> tuple:
        best = float("inf")
        executed = 0
        for _ in range(repeats):
            start = time.perf_counter()
            report = controller.explore(
                store=ResultStore(), workload=workload, seed=3,
                analysis=analysis, include_checked=True,
                share_prefixes=snapshots,
                request_options={"snapshots": snapshots},
            )
            best = min(best, time.perf_counter() - start)
            executed = report.executed
        return executed, best

    explore(True)  # warm
    runs, rebuild = explore(False)
    _, snapshot = explore(True)
    return {
        "workload": workload,
        "runs": runs,
        "rebuild": {"runs_per_sec": round(runs / rebuild, 1)},
        "snapshot": {"runs_per_sec": round(runs / snapshot, 1)},
        "speedup": round(rebuild / snapshot, 2),
    }


# ----------------------------------------------------------------------
# mini_apache: §7.4-style per-call-site trigger campaigns
# ----------------------------------------------------------------------
#: (caller frame, library function, error return, errnos) — the per-site
#: scenario families an analyzer sweep produces for the Apache analog.
_APACHE_SITES = [
    ("map_to_storage", "apr_stat", -1, ["ENOENT", "EACCES", "EIO"]),
    ("_read_whole_file", "open", -1, ["ENOENT", "EACCES", "EMFILE", "EINTR"]),
    ("_read_whole_file", "apr_file_read", -1, ["EIO", "EINTR", "EAGAIN"]),
    ("_read_whole_file", "close", -1, ["EBADF", "EIO", "EINTR"]),
    ("php_handler", "apr_file_read", -1, ["EIO", "EINTR", "EAGAIN"]),
    ("php_handler", "malloc", 0, ["ENOMEM"]),
    ("log_request", "open", -1, ["ENOENT", "EACCES", "EMFILE"]),
    ("log_request", "write", -1, ["EIO", "ENOSPC", "EAGAIN"]),
    ("log_request", "close", -1, ["EBADF", "EIO"]),
]


def _apache_scenarios(nths):
    scenarios = []
    for caller, function, value, errnos in _APACHE_SITES:
        for nth in nths:
            for errno in errnos:
                builder = ScenarioBuilder(f"{caller}-{function}-{nth}-{errno}")
                builder.trigger_with_params(
                    "site", "CallStackTrigger",
                    {"frame": {"module": "httpd_core", "function": caller}},
                )
                builder.trigger("count", "CallCountTrigger", nth=nth)
                builder.trigger("once", "SingletonTrigger")
                builder.inject(function, ["site", "count", "once"],
                               return_value=value, errno=errno)
                scenarios.append(builder.build())
    return scenarios


def bench_mini_apache_campaign(requests: int, nths, repeats: int) -> dict:
    target = MiniApacheTarget()
    scenarios = _apache_scenarios(nths)
    workloads = target.workloads()
    options = {"requests": requests}

    def observe_plain() -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for workload in workloads:
                for scenario in scenarios:
                    target.run(WorkloadRequest(
                        workload=workload, scenario=scenario,
                        observe_only=True, options=dict(options),
                    ))
            best = min(best, time.perf_counter() - start)
        return best

    def observe_shared() -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for workload in workloads:
                run_scenarios_shared(target, workload, scenarios,
                                     options=dict(options), observe_only=True)
            best = min(best, time.perf_counter() - start)
        return best

    def inject(shared: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for workload in workloads:
                TestCampaign(target, workload=workload).run(
                    scenarios, include_baseline=False,
                    share_prefixes=shared, **options,
                )
            best = min(best, time.perf_counter() - start)
        return best

    runs = len(scenarios) * len(workloads)
    observe_rebuild = observe_plain()
    observe_snapshot = observe_shared()
    inject_rebuild = inject(False)
    inject_snapshot = inject(True)
    return {
        "scenarios": len(scenarios),
        "workloads": list(workloads),
        "requests_per_run": requests,
        "runs": runs,
        "observe_only": {
            "rebuild": {"runs_per_sec": round(runs / observe_rebuild, 1)},
            "snapshot": {"runs_per_sec": round(runs / observe_snapshot, 1)},
            "speedup": round(observe_rebuild / observe_snapshot, 2),
        },
        "injecting": {
            "rebuild": {"runs_per_sec": round(runs / inject_rebuild, 1)},
            "snapshot": {"runs_per_sec": round(runs / inject_snapshot, 1)},
            "speedup": round(inject_rebuild / inject_snapshot, 2),
        },
    }


# ----------------------------------------------------------------------
# boot restore micro-benchmark
# ----------------------------------------------------------------------
def bench_boot_restore(iterations: int) -> dict:
    target = MiniGitTarget()
    target.run(WorkloadRequest(workload="default-tests"))  # build the template

    session = target.open_session("default-tests")
    assert session.snapshotted, "boot template unavailable"
    template = session.template

    # One representative workload step ("git status") to measure the dirty
    # footprint a restore actually rewinds.
    machine = template.fork_step(gate=None, coverage=None)
    machine.run(args=(1,))
    dirty_words = machine.memory.dirty_word_count()
    start = time.perf_counter()
    for _ in range(iterations):
        template.restore_boot()
    restore_elapsed = time.perf_counter() - start
    session.close()

    start = time.perf_counter()
    for _ in range(iterations):
        fresh = target.open_session("default-tests", snapshots=False)
        fresh.close()
    fresh_elapsed = time.perf_counter() - start

    return {
        "iterations": iterations,
        "dirty_words_after_main": dirty_words,
        "restores_per_sec": round(iterations / restore_elapsed, 1),
        "fresh_builds_per_sec": round(iterations / fresh_elapsed, 1),
        "speedup": round(fresh_elapsed / restore_elapsed, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads for CI; identical JSON schema")
    parser.add_argument("--output", default="BENCH_snapshot.json",
                        help="where to write the JSON result")
    args = parser.parse_args(argv)

    if args.smoke:
        git_workloads = ["default-tests", "status", "gc"]
        git_repeats, apache_repeats = 1, 1
        apache_requests, apache_nths = 16, (1, 12)
        restore_iterations = 200
    else:
        git_workloads = ["default-tests", "status", "commit", "merge", "gc"]
        git_repeats, apache_repeats = 3, 2
        apache_requests, apache_nths = 40, (1, 20, 39)
        restore_iterations = 2000

    payload = {
        "benchmark": "snapshot",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "mini_git_campaign": bench_mini_git_campaign(git_workloads, git_repeats),
        "mini_git_exploration": bench_mini_git_exploration("default-tests", git_repeats),
        "mini_apache_campaign": bench_mini_apache_campaign(
            apache_requests, apache_nths, apache_repeats
        ),
        "boot_restore": bench_boot_restore(restore_iterations),
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    git = payload["mini_git_campaign"]
    print(f"mini_git campaign sweep: rebuild {git['rebuild']['runs_per_sec']} runs/s, "
          f"snapshot {git['snapshot']['runs_per_sec']} runs/s ({git['speedup']}x)")
    explore = payload["mini_git_exploration"]
    print(f"mini_git exploration: rebuild {explore['rebuild']['runs_per_sec']} runs/s, "
          f"snapshot {explore['snapshot']['runs_per_sec']} runs/s ({explore['speedup']}x)")
    apache = payload["mini_apache_campaign"]
    print(f"mini_apache trigger campaign (observe-only, Table 5 shape): "
          f"{apache['observe_only']['rebuild']['runs_per_sec']} -> "
          f"{apache['observe_only']['snapshot']['runs_per_sec']} runs/s "
          f"({apache['observe_only']['speedup']}x); injecting variant "
          f"{apache['injecting']['speedup']}x")
    restore = payload["boot_restore"]
    print(f"boot restore: {restore['restores_per_sec']:,.0f} restores/s vs "
          f"{restore['fresh_builds_per_sec']:,.0f} fresh builds/s "
          f"({restore['speedup']}x), {restore['dirty_words_after_main']} dirty words")
    print(f"wrote {args.output}")

    below_target = [
        name
        for name, speedup in [
            ("mini_git_campaign", git["speedup"]),
            ("mini_apache_observe", apache["observe_only"]["speedup"]),
        ]
        if speedup < 2.0
    ]
    if below_target:
        # Smoke runs are tiny and shared CI runners are noisy: warn without
        # failing the job so the trajectory artifact still gets uploaded.
        print(f"WARNING: below the 2x target: {', '.join(below_target)}",
              file=sys.stderr)
        return 0 if args.smoke else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
