"""One workload process of the end-to-end campaign benchmark.

``run.py`` starts this script once per set-up sample.  Each process sets up
from scratch — imports, artifact builds, the pool or coordinator, and one
untimed warm-up pass — and reports how long that took.  The last process of
a run (``--role measure``) then runs timed passes for ``--seconds`` and
reports the end-to-end metrics, or with ``--trace 1`` the per-layer ones.

Workloads (a closed loop: one client runs the nine campaigns of a pass back
to back):

* ``sweep``   — serial and cold: the suffix memo is cleared and the targets
  are rebuilt every pass;
* ``retest``  — ``sweep`` with the memo kept from the warm-up pass (about
  1,190 entries, 2 MB, far inside its 64 MiB budget, so nothing is
  evicted);
* ``pooled``  — ``parallelism="processes:2"``, cold, one fresh pool per pass;
* ``fabric``  — an in-process coordinator with durable stores, one worker
  driven with ``run_once`` and one client over loopback; one fresh
  coordinator, worker and client per pass, each campaign a submitted spec
  with its own store file.

The CPU-bound share of every campaign's time is scaled by the calibration
taken just before it (in both pool workers for ``pooled``); ``sweep``,
``retest`` and ``fabric`` are pinned to one vCPU.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import socket
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.controller.executor import resolve_backend  # noqa: E402
from repro.core.controller.memo import clear_suffix_memo  # noqa: E402
from repro.core.controller.monitor import OutcomeKind  # noqa: E402
from repro.core.exploration.store import ResultStore  # noqa: E402
from repro.core.profiler.cache import artifact_cache_stats  # noqa: E402
from repro.distributed.campaignd import CampaignCoordinator  # noqa: E402
from repro.distributed.client import CampaignClient  # noqa: E402
from repro.distributed.spec import CampaignSpec  # noqa: E402
from repro.distributed.worker import CampaignWorker  # noqa: E402
from repro.targets import resolve_target  # noqa: E402

import campaigns  # noqa: E402
import tracing  # noqa: E402
from calibration import REFERENCE_S, calibrate, timed_calibrate  # noqa: E402

WORKLOADS = ("sweep", "retest", "pooled", "fabric")
POOL_WORKERS = 2
#: Calibrations timed on each side of set-up (about 80 ms each side).
SETUP_CALIBRATIONS = 5


@dataclass
class CampaignRun:
    """One timed campaign: raw seconds plus the calibration taken before it."""

    target: str
    workload: str
    seconds: float
    #: Raw seconds from the campaign's start until its first
    #: injection-exposed failure was in its result store (None: no failure).
    first_failure: Optional[float]
    calibration: float
    #: Share of the wall time this process spent on a CPU.
    cpu_share: float
    attempted: int
    failed: int

    @property
    def scale(self) -> float:
        return drift_scale(self.calibration, self.cpu_share)


def drift_scale(calibration: float, cpu_share: float) -> float:
    """The factor that turns raw seconds into reference-host seconds.

    Only the CPU-bound share of a time drifts with the host; waits (fsync,
    idle threads) do not, and scaling them would over-correct.
    """
    return 1.0 - cpu_share + cpu_share * REFERENCE_S / calibration


class OwnWork:
    """Wall and CPU seconds the benchmark spends on its own work: the
    calibrations, loading the oracle reference and checking records.
    ``setup_s`` leaves them out, so that it counts only the program."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu

    def calibrate(self) -> float:
        with self.timed():
            return calibrate()


class FailureClock:
    """Notes when each result store first holds an injection-exposed failure.

    Wraps ``ResultStore.record`` once per process, so the moment is taken
    right after the record is stored (and fsynced, for durable stores),
    whichever thread stores it.
    """

    def __init__(self) -> None:
        self.first: Dict[Any, float] = {}
        original = ResultStore.record
        first = self.first

        def record(store, result):
            original(store, result)
            if result.injections > 0 and OutcomeKind(result.outcome).is_failure:
                first.setdefault(store.path or id(store), time.perf_counter())

        ResultStore.record = record

    def since(self, store_key: Any, started: float) -> Optional[float]:
        moment = self.first.pop(store_key, None)
        return None if moment is None else moment - started


class Bench:
    """Runs passes of one workload and checks every record they produce."""

    def __init__(self, workload: str, seed: int, work_dir: str, own: OwnWork) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.own = own
        self.campaigns = campaigns.campaigns()
        #: Reshuffles the campaign order every pass, so no single order's
        #: cost (which campaign builds the boot templates) stands for a run.
        self.rng = random.Random(seed)
        with own.timed():
            self.reference = campaigns.load_reference()
        self.clock = FailureClock()
        self.tracer: Optional[tracing.Tracer] = None

    # ------------------------------------------------------------------
    def run_pass(self) -> List[CampaignRun]:
        order = self.rng.sample(self.campaigns, len(self.campaigns))
        if self.workload != "retest":
            clear_suffix_memo()
        boot_before = artifact_cache_stats()
        if self.workload == "pooled":
            runs = self._pooled_pass(order)
        elif self.workload == "fabric":
            runs = self._fabric_pass(order)
        else:
            runs = self._serial_pass(order)
        if self.tracer is not None:
            tracing.count_boot_builds(self.tracer, boot_before)
        return runs

    def _timed(self, fn: Callable, *args: Any) -> Tuple[float, float, float]:
        """Run one campaign body; returns its start time, duration and the
        CPU time this process spent on it."""
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.run(tracing.ROOT_SPAN, fn, *args)
            else:
                fn(*args)
        except Exception:
            # The oracle check counts the campaign's missing records as
            # failed runs; keep measuring the rest of the pass.
            traceback.print_exc()
        elapsed = time.perf_counter() - started
        return started, elapsed, time.process_time() - cpu

    def _finish(
        self, campaign, timing: Tuple[float, float, float], store_key: Any,
        calibration: float, records: Callable[[], Iterable],
    ) -> CampaignRun:
        started, elapsed, cpu = timing
        expected = self.reference.get(campaign, {})
        with self.own.timed():
            failed = campaigns.count_mismatches(
                expected, self.seed, [record.to_dict() for record in records()]
            )
        return CampaignRun(
            target=campaign[0],
            workload=campaign[1],
            seconds=elapsed,
            first_failure=self.clock.since(store_key, started),
            calibration=calibration,
            # Pool workers do the pooled work; their CPU time is not
            # visible here until the pool is reaped, and they never wait.
            cpu_share=1.0 if self.workload == "pooled" else min(1.0, cpu / elapsed),
            attempted=len(expected),
            failed=failed,
        )

    def _explore(self, target, workload: str, store: ResultStore, parallelism=None) -> None:
        engine, points = campaigns.campaign_engine(
            target, workload, self.seed, store, parallelism=parallelism
        )
        engine.explore(points)

    # ------------------------------------------------------------------
    def _serial_pass(self, order: List[campaigns.Campaign]) -> List[CampaignRun]:
        targets = {name: resolve_target(name) for name in campaigns.TARGETS}
        runs = []
        for campaign in order:
            calibration = self.own.calibrate()
            store = ResultStore()
            timing = self._timed(self._explore, targets[campaign[0]], campaign[1], store)
            runs.append(self._finish(campaign, timing, id(store), calibration, store.results))
        return runs

    def _pooled_pass(self, order: List[campaigns.Campaign]) -> List[CampaignRun]:
        targets = {name: resolve_target(name) for name in campaigns.TARGETS}
        backend = resolve_backend(f"processes:{POOL_WORKERS}")
        runs = []
        try:
            for campaign in order:
                # Calibrate where the work runs: in the pool workers.  They
                # calibrate side by side, so the parent waits for the slower
                # one; the first map of a pass also starts the pool, which
                # is the program's work and stays in.
                calibrations = backend.map(timed_calibrate, [()] * POOL_WORKERS)
                calibration = statistics.fmean(value for value, _, _ in calibrations)
                self.own.wall += max(wall for _, wall, _ in calibrations)
                self.own.cpu += sum(cpu for _, _, cpu in calibrations)
                store = ResultStore()
                timing = self._timed(
                    self._explore, targets[campaign[0]], campaign[1], store, backend
                )
                runs.append(
                    self._finish(campaign, timing, id(store), calibration, store.results)
                )
        finally:
            backend.close()
        return runs

    def _fabric_pass(self, order: List[campaigns.Campaign]) -> List[CampaignRun]:
        pass_dir = tempfile.mkdtemp(prefix="fabric-", dir=self.work_dir)
        coordinator = CampaignCoordinator(durable_stores=True)
        address = coordinator.start()
        worker = CampaignWorker(address)
        client: Optional[CampaignClient] = None
        runs = []
        try:
            client = CampaignClient(address)
            worker.run_once()  # dial and greet outside the timed region
            for position, campaign in enumerate(order):
                calibration = self.own.calibrate()
                # One store file per campaign and pass: the coordinator
                # deduplicates identical specs, so a spec must never repeat.
                path = os.path.join(pass_dir, f"{position}-{campaign[0]}-{campaign[1]}.jsonl")
                spec = CampaignSpec(
                    target=campaign[0],
                    workload=campaign[1],
                    seed=self.seed,
                    include_checked=True,
                    fault_classes=list(campaigns.FAULT_CLASSES),
                    store_path=path,
                )
                timing = self._timed(self._submit_and_drain, client, worker, spec)
                runs.append(self._finish(
                    campaign, timing, path, calibration,
                    lambda path=path: ResultStore(path).results() if os.path.exists(path) else [],
                ))
        finally:
            if client is not None:
                client.close()
            worker.close()
            coordinator.stop()
            # stop() closes the listener, but an accept() already blocked on
            # it does not return on Linux; one throwaway connection lets the
            # accept thread exit and release the pass's coordinator.
            try:
                socket.create_connection(address, timeout=1.0).close()
            except OSError:
                pass
            shutil.rmtree(pass_dir, ignore_errors=True)
        return runs

    @staticmethod
    def _submit_and_drain(client: CampaignClient, worker: CampaignWorker, spec) -> None:
        client.submit(spec)
        # Drive the worker directly: its idle poll sleep never enters the
        # timed region, and the campaign is done when no shard is left.
        while worker.run_once():
            pass


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def pass_rate(runs: List[CampaignRun], scaled: bool = True) -> float:
    seconds = sum(run.seconds * (run.scale if scaled else 1.0) for run in runs)
    return sum(run.attempted for run in runs) / seconds


def tail(values: List[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it."""
    count = len(values)
    if count <= 10:
        return None
    percentile = math.floor(100 * (count - 10) / count)
    ordered = sorted(values)
    return {
        "percentile": percentile,
        "value": ordered[max(0, math.ceil(percentile / 100 * count) - 1)],
    }


def end_to_end(passes: List[List[CampaignRun]]) -> Dict[str, Any]:
    runs = [run for runs in passes for run in runs]
    scaled = [run.first_failure * run.scale for run in runs if run.first_failure is not None]
    raw = [run.first_failure for run in runs if run.first_failure is not None]
    return {
        "passes": len(passes),
        "records_per_s": statistics.median(pass_rate(runs) for runs in passes),
        "raw_records_per_s": statistics.median(pass_rate(runs, False) for runs in passes),
        "first_failure_s": statistics.median(scaled) if scaled else None,
        "raw_first_failure_s": statistics.median(raw) if raw else None,
        "first_failure_samples": len(scaled),
        "first_failure_tail": tail(scaled),
        "campaign_seconds": statistics.median(
            sum(run.seconds * run.scale for run in runs) for runs in passes
        ),
    }


def cpu_seconds() -> float:
    """CPU time of this process and of every child it reaped."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it reaped (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pin_to_one_cpu() -> None:
    """Keep the process, and the coordinator threads of ``fabric``, on one
    vCPU: the calibration then measures the vCPU the campaign runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def traced_passes(bench: Bench, seconds: float) -> List[Dict[str, float]]:
    """Install the layer wrappers and run traced passes for *seconds*."""
    spill_dir = tempfile.mkdtemp(prefix="spans-", dir=bench.work_dir)
    bench.tracer = tracing.Tracer(spill_dir)
    tracing.install_layer_wrappers(bench.tracer)
    workers = POOL_WORKERS if bench.workload == "pooled" else 0
    layers = []
    deadline = time.perf_counter() + seconds
    while True:
        runs = bench.run_pass()
        totals = bench.tracer.fold()
        for key, value in bench.tracer.collect_spills().items():
            totals[key] = totals.get(key, 0) + value
        scale = statistics.fmean(run.scale for run in runs)
        metrics = tracing.layer_metrics(
            totals, scale, workers, sum(run.seconds for run in runs)
        )
        metrics["campaign_seconds"] = sum(run.seconds * run.scale for run in runs)
        metrics["attempted"] = sum(run.attempted for run in runs)
        metrics["failed"] = sum(run.failed for run in runs)
        layers.append(metrics)
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(spill_dir, ignore_errors=True)
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one workload process of e2ebench")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default="measure")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    args = parser.parse_args(argv)

    if args.workload != "pooled":
        pin_to_one_cpu()
    own = OwnWork()
    before = [own.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    bench = Bench(args.workload, args.seed, args.work_dir, own)
    warmup = bench.run_pass()
    # The set-up window ends here; the benchmark's own work inside it (the
    # calibration chain's build included) is taken out.
    setup_raw = time.monotonic() - args.spawned_at - own.wall
    setup_cpu = cpu_seconds() - own.cpu
    after = [own.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    # Every calibration around the set-up window, the warm-up pass's
    # included, so a slow spell anywhere in it is seen.
    setup_calibration = statistics.fmean(
        before + [run.calibration for run in warmup] + after
    )
    result: Dict[str, Any] = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * drift_scale(setup_calibration, min(1.0, setup_cpu / setup_raw)),
        "attempted": sum(run.attempted for run in warmup),
        "failed": sum(run.failed for run in warmup),
    }
    if args.role == "measure":
        measured: List[List[CampaignRun]] = []
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        deadline = time.perf_counter() + untraced_seconds
        while True:
            measured.append(bench.run_pass())
            if time.perf_counter() >= deadline:
                break
        result.update(end_to_end(measured))
        result["attempted"] += sum(run.attempted for runs in measured for run in runs)
        result["failed"] += sum(run.failed for runs in measured for run in runs)
        result["host_calib_s"] = statistics.median(
            [run.calibration for runs in measured for run in runs] + before + after
        )
        result["peak_rss_mb"] = peak_rss_mb()
        if args.trace:
            layers = traced_passes(bench, args.seconds / 2)
            result["attempted"] += sum(layer.pop("attempted") for layer in layers)
            result["failed"] += sum(layer.pop("failed") for layer in layers)
            result["trace_overhead"] = (
                statistics.median(layer.pop("campaign_seconds") for layer in layers)
                / result["campaign_seconds"]
            )
            result["layers"] = {
                name: statistics.median(layer[name] for layer in layers)
                for name in layers[0]
            }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
