"""Span tracing for the benchmark's traced run.

The program itself carries no spans yet, so the traced run wraps the public
functions of each layer from the outside: every call becomes a span with a
name, a start, an end and the span that was open on the same thread when it
began.  Spans stay in memory while a pass runs and are folded into per-layer
totals when it ends, so memory stays bounded however long the run is.

A span's *self time* is its duration minus the time covered by its child
spans; a layer's busy time is the self time of all its spans.  Generators
are traced per step (each ``next`` is one span), so a lazily consumed
iterator is charged for the work it does, not for the time its consumer
holds it.

Process-pool children inherit the wrappers through ``fork``.  After each
batch a child folds its spans and appends the totals to a file named after
its pid; the parent merges those files after the pool has been shut down.
Coordinator threads keep one span stack per thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import sys
import threading
import time
import types
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The span that times one whole campaign from the benchmark's side; its
#: self time is the part of a campaign no layer accounts for.
ROOT_SPAN = "bench.campaign"


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self, spill_dir: str) -> None:
        #: Where pool children write their folded totals (``<pid>.jsonl``).
        self.spill_dir = spill_dir
        self.owner_pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: Closed spans: ``(id, name, start, end, parent id, on main thread)``.
        self.spans: List[Tuple[int, str, float, float, int, bool]] = []
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _frame(self) -> list:
        frame = getattr(self._local, "frame", None)
        if frame is None:
            # [open span ids, is the main thread, time of the last recv]
            frame = [[], threading.current_thread() is threading.main_thread(), None]
            self._local.frame = frame
        return frame

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack, main, _ = self._frame()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, main))

    def _iterate(self, name: str, iterator) -> Any:
        """Re-yield *iterator*, timing each step as one span."""
        try:
            while True:
                try:
                    item = self._call(name, next, (iterator,), {})
                except StopIteration:
                    return
                yield item
        finally:
            iterator.close()

    def run(self, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span (the benchmark's own regions)."""
        return self._call(name, fn, args, {})

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        after: Optional[Callable[[tuple, Any, Any], None]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (and every module alias of a
        function) with a traced wrapper.

        ``before(args)`` runs just outside the span and its value is handed
        to ``after(args, result, state)``, which also runs outside it, so
        counter bookkeeping is not charged to the layer.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            result = tracer._call(name, original, args, kwargs)
            if isinstance(result, types.GeneratorType):
                result = tracer._iterate(name, result)
            if after is not None:
                after(args, result, state)
            return result

        setattr(owner, attribute, traced)
        if isinstance(owner, type):
            return
        # ``from module import function`` copies the binding: patch every
        # alias in the program's modules too.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, traced)

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def fold(self) -> Dict[str, float]:
        """Fold the closed spans into totals and forget them.

        Keys: ``count:<span>``, ``total:<span>``, ``self:<span>`` and
        ``main_self:<span>`` (self time on the main thread), plus the
        counters under their own names.
        """
        spans, self.spans = self.spans, []
        child_time: Dict[int, float] = {}
        for _span_id, _name, start, end, parent, _main in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Counter = Counter()
        for span_id, name, start, end, _parent, main in spans:
            duration = end - start
            own = duration - child_time.get(span_id, 0.0)
            totals["count:" + name] += 1
            totals["total:" + name] += duration
            totals["self:" + name] += own
            if main:
                totals["main_self:" + name] += own
        totals.update(self.counts)
        self.counts.clear()
        return dict(totals)

    def spill(self) -> None:
        """Append this (child) process's folded totals to its spill file."""
        path = os.path.join(self.spill_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.fold()) + "\n")

    def collect_spills(self) -> Counter:
        """Merge and delete every child's spill file (parent side)."""
        merged: Counter = Counter()
        for entry in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    merged.update(json.loads(line))
            os.remove(path)
        return merged


# ----------------------------------------------------------------------
# the layer map
# ----------------------------------------------------------------------
def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are timed around."""
    from repro.core.analysis.analyzer import CallSiteAnalyzer
    from repro.core.controller import executor, prefix
    from repro.core.controller.controller import LFIController
    from repro.core.controller.memo import SuffixMemo
    from repro.core.exploration.engine import ExplorationEngine, RoundPlanner
    from repro.core.exploration.store import ResultStore
    from repro.core.injection.gate import LibraryCallGate
    from repro.core.profiler import cache
    from repro.distributed import spec
    from repro.distributed.protocol import MessageStream
    from repro.distributed.worker import CampaignWorker
    from repro.oslib.libc import SimLibc
    from repro.targets.base import CompiledTarget
    from repro.vm.machine import Machine
    from repro.vm.snapshot import BootTemplate, MidRunCapture

    counts = tracer.counts
    wrap = tracer.wrap

    wrap(LFIController, "fault_space", "analysis.fault_space")
    wrap(CallSiteAnalyzer, "analyze", "analysis.analyze")

    wrap(CompiledTarget, "boot_template", "profiler.boot_template")
    wrap(cache, "cached_merged_profile", "profiler.merged_profile")

    wrap(ExplorationEngine, "explore", "exploration.explore")
    wrap(RoundPlanner, "next_round", "exploration.next_round")
    wrap(ExplorationEngine, "stored_result", "exploration.stored_result")

    def stored(args, _result, fresh):
        store, record = args[0], args[1]
        if fresh and store.path is not None:
            counts["store.bytes"] += len(json.dumps(record.to_dict(), sort_keys=True)) + 1

    wrap(
        ResultStore, "record", "store.record",
        before=lambda args: args[1].key not in args[0], after=stored,
    )

    def group_ran(args, _result, _state):
        counts["prefix.members"] += len(args[2])

    wrap(prefix, "run_entry_group", "prefix.run_entry_group", after=group_ran)
    wrap(prefix, "iter_shared_runs", "prefix.iter_shared_runs")
    wrap(prefix, "build_group_tasks", "prefix.build_group_tasks")

    def looked_up(_args, result, _state):
        counts["memo.hits" if result is not None else "memo.misses"] += 1

    def memoized(args, result, bytes_before):
        if result:
            counts["memo.stores"] += 1
            counts["memo.bytes"] += args[0].stats().current_bytes - bytes_before

    wrap(SuffixMemo, "lookup", "memo.lookup", after=looked_up)
    wrap(
        SuffixMemo, "store", "memo.store",
        before=lambda args: args[0].stats().current_bytes, after=memoized,
    )

    wrap(executor.ExecutionBackend, "run_group_batches_iter", "executor.wait")
    wrap(executor, "plan_group_batches", "executor.plan")

    def batch_done(_args, result, boot_before):
        counts["executor.result_bytes"] += len(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )
        count_boot_builds(tracer, boot_before)
        if os.getpid() != tracer.owner_pid:
            tracer.spill()

    wrap(
        executor, "execute_group_batch", "executor.batch",
        before=lambda _args: cache.artifact_cache_stats(), after=batch_done,
    )

    wrap(CompiledTarget, "open_session", "targets.open_session")
    wrap(CompiledTarget, "execute_plan", "targets.execute_plan")
    wrap(CompiledTarget, "finalize_run", "targets.finalize_run")
    wrap(BootTemplate, "restore_boot", "snapshot.restore_boot")
    wrap(BootTemplate, "fork_step", "snapshot.fork_step")
    wrap(MidRunCapture, "restore", "snapshot.restore")

    def stepped(args, _result, steps_before):
        counts["vm.steps"] += args[0].steps - steps_before

    for method in ("run", "resume"):
        wrap(Machine, method, "vm." + method, before=lambda args: args[0].steps, after=stepped)

    wrap(SimLibc, "call", "libc.call")

    def gated(args, _result, injected_before):
        counts["injection.injections"] += args[0].injected_calls - injected_before

    wrap(
        LibraryCallGate, "call", "injection.call",
        before=lambda args: args[0].injected_calls, after=gated,
    )

    def replying(_args):
        # On a coordinator thread the time from a request's arrival to the
        # first send after it is the time spent handling the request.
        frame = tracer._frame()
        if not frame[1] and frame[2] is not None:
            counts["campaignd.busy_s"] += time.perf_counter() - frame[2]
            frame[2] = None

    def sent(args, _result, _state):
        message = args[1]
        counts["protocol.bytes"] += (
            len(json.dumps(message, sort_keys=True, separators=(",", ":"))) + 1
        )
        if not tracer._frame()[1] and message.get("type") == "shard":
            counts["campaignd.leases"] += 1

    def received(_args, _result, _state):
        frame = tracer._frame()
        if not frame[1]:
            frame[2] = time.perf_counter()

    wrap(MessageStream, "send", "protocol.send", before=replying, after=sent)
    wrap(MessageStream, "recv", "protocol.recv", after=received)

    def fetched(_args, result, _state):
        if result:
            counts["worker.shards"] += 1

    def built(_args, _result, _state):
        if tracer._frame()[1]:
            counts["worker.engine_builds"] += 1

    wrap(CampaignWorker, "run_once", "worker.run_once", after=fetched)
    wrap(spec, "build_engine", "worker.build_engine", after=built)


def count_boot_builds(tracer: Tracer, before) -> None:
    """Add this process's boot-template builds and shared hits since the
    *before* snapshot of the artifact-cache counters."""
    from repro.core.profiler.cache import artifact_cache_stats

    after = artifact_cache_stats()
    tracer.counts["profiler.boot_builds"] += after.boot_misses - before.boot_misses
    tracer.counts["profiler.boot_shared_hits"] += (
        after.boot_shared_hits - before.boot_shared_hits
    )


def layer_metrics(
    totals: Dict[str, float], scale: float, workers: int, campaign_wall: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its folded totals.

    Times are multiplied by *scale* (the pass's host-drift factor).
    *workers* and *campaign_wall* (raw seconds of campaign time) give the
    pool's capacity for ``executor.worker_idle_share``.
    """

    def count(*names: str) -> float:
        return sum(totals.get("count:" + name, 0) for name in names)

    def own(*names: str) -> float:
        return scale * sum(totals.get("self:" + name, 0.0) for name in names)

    def value(name: str) -> float:
        return totals.get(name, 0)

    groups = count("prefix.run_entry_group")
    lookups = value("memo.hits") + value("memo.misses")
    worker_busy = totals.get("total:executor.batch", 0.0)
    capacity = workers * campaign_wall
    root_total = totals.get("total:" + ROOT_SPAN, 0.0)
    return {
        "analysis.calls": count("analysis.analyze"),
        "analysis.busy_s": own("analysis.fault_space", "analysis.analyze"),
        "profiler.boot_builds": value("profiler.boot_builds"),
        "profiler.boot_shared_hits": value("profiler.boot_shared_hits"),
        "profiler.busy_s": own("profiler.boot_template", "profiler.merged_profile"),
        "exploration.points": count("exploration.stored_result"),
        "exploration.busy_s": own(
            "exploration.explore", "exploration.next_round", "exploration.stored_result"
        ),
        "store.records": count("store.record"),
        "store.bytes": value("store.bytes"),
        "store.busy_s": own("store.record"),
        "prefix.groups": groups,
        "prefix.members_per_group": value("prefix.members") / groups if groups else 0.0,
        "prefix.busy_s": own(
            "prefix.run_entry_group", "prefix.iter_shared_runs", "prefix.build_group_tasks"
        ),
        "memo.hits": value("memo.hits"),
        "memo.misses": value("memo.misses"),
        "memo.hit_ratio": value("memo.hits") / lookups if lookups else 0.0,
        "memo.stores": value("memo.stores"),
        "memo.bytes": value("memo.bytes"),
        "memo.lookup_s": own("memo.lookup"),
        "memo.store_s": own("memo.store"),
        "executor.batches": count("executor.batch"),
        "executor.wait_s": own("executor.wait"),
        "executor.worker_busy_s": scale * worker_busy,
        "executor.worker_idle_share": (
            max(0.0, 1.0 - worker_busy / capacity) if capacity and worker_busy else 0.0
        ),
        "executor.result_bytes": value("executor.result_bytes"),
        "targets.sessions": count("targets.open_session"),
        "targets.busy_s": own(
            "targets.open_session", "targets.execute_plan", "targets.finalize_run"
        ),
        "snapshot.restores": count(
            "snapshot.restore_boot", "snapshot.fork_step", "snapshot.restore"
        ),
        "snapshot.busy_s": own(
            "snapshot.restore_boot", "snapshot.fork_step", "snapshot.restore"
        ),
        "vm.runs": count("vm.run"),
        "vm.resumes": count("vm.resume"),
        "vm.steps": value("vm.steps"),
        "vm.busy_s": own("vm.run", "vm.resume"),
        "libc.calls": count("libc.call"),
        "libc.busy_s": own("libc.call"),
        "injection.gate_calls": count("injection.call"),
        "injection.injections": value("injection.injections"),
        "injection.busy_s": own("injection.call"),
        "protocol.messages": count("protocol.send"),
        "protocol.bytes": value("protocol.bytes"),
        "protocol.send_s": own("protocol.send"),
        "protocol.recv_wait_s": scale * totals.get("main_self:protocol.recv", 0.0),
        "campaignd.leases": value("campaignd.leases"),
        "campaignd.busy_s": scale * value("campaignd.busy_s"),
        "worker.shards": value("worker.shards"),
        "worker.engine_builds": value("worker.engine_builds"),
        "trace.unattributed_share": (
            totals.get("main_self:" + ROOT_SPAN, 0.0) / root_total if root_total else 0.0
        ),
    }


__all__ = [
    "ROOT_SPAN",
    "Tracer",
    "count_boot_builds",
    "install_layer_wrappers",
    "layer_metrics",
]
