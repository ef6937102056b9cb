#!/usr/bin/env python3
"""Quickstart: find recovery-code bugs in a program with zero annotations.

The script walks the full LFI pipeline on a small program compiled from
mini-C:

1. profile the simulated shared libraries (what errors can they return?);
2. run the call-site analyzer on the program binary to find call sites that
   do not check those errors;
3. let the analyzer generate injection scenarios (call-stack triggers pinned
   to each suspicious site);
4. run the program's workload once per scenario and report the crashes the
   injections exposed.

Knobs and subsystems worth knowing about:

* ``parallelism=`` — every campaign entry point
  (``LFIController.test_automatically`` / ``run_campaign``,
  ``TestCampaign.run``, the experiment harnesses) accepts ``"serial"``
  (default), an integer worker count (a process pool — the backend that
  scales these CPU-bound targets), ``"processes[:N]"`` or an
  ``ExecutionBackend`` instance.  Scenario runs are independent, so
  parallel campaigns return bit-identical results to serial ones — results
  keep submission order and per-run seeds are derived deterministically.
* the **artifact cache** — library binaries and their static fault profiles
  are memoized process-wide (``repro.core.profiler.cache``), so the first
  controller pays the assemble + profile cost and every later controller,
  experiment, or benchmark in the same process reuses the artifacts.  Since
  the VM's predecoded program is cached on the image itself, the cache now
  also shares the compiled closure array across every run of a campaign.
* the **execution engine** — ``Machine(..., engine=...)`` picks between
  ``"compiled"`` (the default: instructions predecoded once per image into
  specialized closures, then straight-line blocks fused into single
  *superclosure* functions with dead CMP/Jcc flag work elided and a
  coverage-off hot loop for untracked runs; see
  ``tests/test_dataplane.py``) and ``"reference"`` (the original
  decode-as-you-go interpreter, the differential-testing ground truth).
  Compiled targets accept the same knob through
  ``WorkloadRequest(options={"engine": ...})``, and ``REPRO_ENGINE`` sets
  the process-wide default.
* ``explore()`` — instead of one scenario per suspicious site,
  systematically cover the whole (call site x error return x errno) space
  with a pluggable strategy, deduplicated failures, and a resumable
  JSON-lines result store (see the walkthrough at the bottom and
  ``repro.core.exploration``).
* **snapshot-accelerated campaigns** — compiled-target runs are
  forkserver-style by default (``repro.vm.snapshot``): a resident boot
  template is restored per request in O(dirty words) via copy-on-write
  memory instead of rebuilding the OS fixture/libc/machine, and campaigns
  additionally *share prefixes*: the analyzer's (site x errno) scenario
  families differ only in the injected fault, so the group's common
  prefix — boot plus every instruction up to the trigger site — executes
  once, a ``MidRunCapture`` freezes the machine at the injection point,
  and each sibling scenario resumes there with its own fault (or, if the
  trigger never fires under the workload, simply inherits the probe run's
  result).  Results are bit-identical to the per-scenario rebuild path
  (``tests/test_snapshot.py``), which stays selectable via
  ``WorkloadRequest(options={"snapshots": False})`` and
  ``campaign.run(..., share_prefixes=False)``; the end-to-end benchmark's
  ``sweep`` workload (``e2ebench/``) times the campaign-throughput win.
* **parallel prefix groups, prefix trees, errno-blind suffixes** — prefix
  sharing composes with the pool backends: ``share_prefixes=True`` with
  ``parallelism="processes:4"`` packs the scenario groups into one batch
  per worker (``GroupBatchTask`` / ``run_group_batches_iter`` in
  ``repro.core.controller.executor``); each worker drains its batch
  back-to-back on a warm boot template, running every group's probe and
  resuming its siblings locally, so the two throughput levers multiply
  instead of cancelling.  Groups are hierarchical: call-count variants of
  one site share the sub-prefix up to their earliest divergence via nested
  mid-run captures, and suffixes that never read ``errno`` (a libc
  errno-read counter proves it) collapse errno-only variants into patched
  replicas of one run.  The mini_apache
  server world forks by capture/restore.  A run's result is an immutable
  value, shared rather than copied by replicated members and the suffix
  memo; campaign runs publish their final OS in ``stats["os"]`` as a
  ``LazyOSClone`` (one immutable blob, hydrated on first access), while
  ``explore()`` runs skip capturing it.
  Bit-identity across serial/threads/processes schedules is enforced by
  ``tests/test_prefix_parallel.py`` and ``tests/test_dataplane.py``, and
  ``e2ebench/`` measures the pooled path end to end.  See the "Execution
  pipeline architecture" section of the package docstring
  (``repro/__init__.py``) for the four-layer walk.
* **the campaign fabric** — for explorations that outlive one process,
  a resident coordinator (``repro-campaignd serve``) accepts campaign
  specs over a line-oriented JSON protocol (``doc/PROTOCOL.md``),
  shards the schedule across pull-model worker nodes
  (``repro-campaignd worker``), streams results as they complete, and
  checkpoints every record in the same JSON-lines store ``explore()``
  uses — so killing the daemon, a worker, or both mid-campaign loses
  nothing: resubmit the same spec (``repro-campaign submit ...
  --store X.jsonl``) and only unfinished points run.  Results are
  bit-identical to a local serial ``explore()``.  See the walkthrough
  at the bottom and ``repro.distributed``.

Run with::

    python examples/quickstart.py
"""

import os
import tempfile

from repro import ExhaustiveStrategy, LFIController, ResultStore, compile_source
from repro.core.controller.monitor import RunResult, classify_exit_status
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.oslib.os_model import SimOS
from repro.vm.machine import Machine

# A small "log shipper": it rotates a log file and uploads it.  Two of its
# library calls are not checked — exactly the kind of low-probability error
# path that input testing never reaches.
PROGRAM = r"""
int rotate_log() {
    int fd;
    int n;
    int buffer[64];
    fd = open("/var/log/app.log", 0);
    if (fd < 0) {
        puts("nothing to rotate");
        return 0;
    }
    n = read(fd, buffer, 32);          /* BUG: read error not checked */
    write(fd, buffer, n);
    close(fd);
    return n;
}

int upload(int size) {
    int payload;
    payload = malloc(size);            /* BUG: allocation not checked */
    *payload = 42;
    puts("uploaded");
    free(payload);
    return 0;
}

int main() {
    int rotated;
    rotated = rotate_log();
    if (rotated < 0) {
        return 1;
    }
    return upload(256);
}
"""


class LogShipperTarget:
    """Minimal target adapter: how to build and run the program under test."""

    name = "log_shipper"

    def binary(self):
        return compile_source(PROGRAM, name=self.name)

    def workloads(self):
        return ["default"]

    def run(self, request: WorkloadRequest) -> RunResult:
        os = SimOS(self.name)
        os.fs.add_file("/var/log/app.log", b"2026-06-14 INFO started\n" * 4)
        gate = make_gate(request.scenario, observe_only=request.observe_only)
        machine = Machine(self.binary(), os=os, gate=gate)
        status = machine.run()
        return RunResult(outcome=classify_exit_status(status), log=gate.log)


def main() -> None:
    controller = LFIController(LogShipperTarget())

    profile = controller.profile_libraries()
    print(f"profiled {len(profile)} library functions "
          f"(e.g. read can fail with {profile.function('read').all_errnos()})")

    analysis = controller.analyze_target()
    print()
    print(analysis.summary())

    scenarios = controller.generate_scenarios(analysis)
    print(f"\nanalyzer generated {len(scenarios)} injection scenarios")

    # The campaign fans out over a process pool (the backend that scales
    # these CPU-bound targets with cores); an integer worker count does the
    # same.  The result is bit-identical to a serial run.
    report = controller.test_automatically(workloads=["default"], parallelism="processes:2")
    print()
    print(report.summary())

    # ------------------------------------------------------------------
    # Fault-space exploration: the systematic alternative to step 3-4.
    #
    # ``explore()`` enumerates EVERY (call site x error return x errno)
    # combination, schedules it in priority order (unchecked sites first,
    # novel fault classes before repeats), deduplicates equivalent failures
    # by (function, errno, outcome, stack fingerprint), and checkpoints
    # each completed run in a JSON-lines store.
    store_path = os.path.join(tempfile.gettempdir(), "quickstart-exploration.jsonl")
    if os.path.exists(store_path):
        os.unlink(store_path)
    exploration = controller.explore(
        strategy=ExhaustiveStrategy(),      # or BoundarySampleStrategy(),
        store=ResultStore(store_path),      # RandomSampleStrategy(seed=0)
        analysis=analysis,                  # reuse step 2's analysis
        seed=7,
    )
    print()
    print(exploration.summary())

    # The store makes exploration resumable: running again with the same
    # store replays everything from disk and executes nothing new.  Kill a
    # long campaign at any point and it picks up where it left off.
    resumed = controller.explore(
        strategy=ExhaustiveStrategy(), store=ResultStore(store_path),
        analysis=analysis, seed=7,
    )
    print(
        f"\nresumed exploration: {resumed.executed} scenario runs executed, "
        f"{resumed.resumed} replayed from {store_path}"
    )
    os.unlink(store_path)

    # ------------------------------------------------------------------
    # Snapshot-accelerated campaigns (forkserver-style execution).
    #
    # Compiled targets run from a resident boot template by default, and
    # serial campaigns group scenarios that differ only in the injected
    # fault so their common prefix executes once.  Both accelerations are
    # bit-identical to the reference rebuild path — prove it here.
    from repro.core.controller.campaign import TestCampaign
    from repro.targets.mini_git import MiniGitTarget

    git = MiniGitTarget()
    git_controller = LFIController(git)
    git_scenarios = git_controller.generate_scenarios(git_controller.analyze_target())
    campaign = TestCampaign(git, workload="status")
    accelerated = campaign.run(git_scenarios, seed=1, include_baseline=False)
    reference = campaign.run(git_scenarios, seed=1, include_baseline=False,
                             share_prefixes=False, snapshots=False)
    assert [o.outcome.kind for o in accelerated.outcomes] == \
           [o.outcome.kind for o in reference.outcomes]
    print(f"\nsnapshot-accelerated campaign over {len(git_scenarios)} mini_git "
          f"scenarios: outcomes identical to the rebuild path "
          f"(e2ebench's sweep workload times the throughput win)")

    # ------------------------------------------------------------------
    # Parallel prefix groups: sharing composes with the pool backends.
    #
    # The scenario groups are packed into one batch per worker — each
    # worker runs its groups' probes and resumes the siblings locally — so
    # a pooled shared campaign stays bit-identical to the serial one.
    fanout = campaign.run(git_scenarios, seed=1, include_baseline=False,
                          share_prefixes=True, parallelism="processes:2")
    assert [o.outcome.kind for o in fanout.outcomes] == \
           [o.outcome.kind for o in reference.outcomes]
    print(f"batched pool fan-out over {len(git_scenarios)} scenarios "
          f"(processes:2): outcomes identical to the rebuild path "
          f"(see e2ebench/ for the pooled throughput)")

    # ------------------------------------------------------------------
    # The campaign fabric: a resident coordinator + worker nodes.
    #
    # Everything above runs inside one process.  The fabric runs the same
    # exploration as a service: submit a campaign *spec* (target name,
    # workload, seed, filters — JSON, no pickled objects) to a resident
    # coordinator, which shards the deterministic schedule across worker
    # nodes and checkpoints every streamed-in record to the same
    # JSON-lines store before acknowledging it.  Shell version:
    #
    #   repro-campaignd serve --port 7070 &
    #   repro-campaignd worker --port 7070 &
    #   repro-campaign submit --target mini_git --workload status \
    #       --seed 7 --store /tmp/git.jsonl --wait
    #
    # Kill the daemon (or a worker, or both) mid-campaign and resubmit
    # the same command: the reply's "resumed" count shows how much was
    # served from the store; only unfinished points execute, and the
    # merged store is bit-identical to a serial explore().  Protocol
    # reference: doc/PROTOCOL.md.  The same moving parts, in-process:
    from repro.distributed import (
        CampaignClient, CampaignCoordinator, CampaignSpec, CampaignWorker,
    )

    coordinator = CampaignCoordinator(port=0)       # kernel-picked port
    address = coordinator.start()
    store_path = os.path.join(tempfile.gettempdir(), "quickstart-fabric.jsonl")
    if os.path.exists(store_path):
        os.unlink(store_path)
    try:
        with CampaignClient(address) as fabric_client:
            submitted = fabric_client.submit(CampaignSpec(
                target="mini_git", workload="status", seed=7,
                store_path=store_path,
            ))
            worker = CampaignWorker(address, worker_id="quickstart-w0")
            while worker.run_once():                # drain the shard queue
                pass
            worker.close()
            final = fabric_client.status(submitted["campaign_id"])
            print(f"\ncampaign fabric: {final['completed']}/{final['total']} "
                  f"points complete via worker nodes (state={final['state']}); "
                  f"resubmitting resumes from {store_path}")
    finally:
        coordinator.stop()
        if os.path.exists(store_path):
            os.unlink(store_path)


if __name__ == "__main__":
    main()
