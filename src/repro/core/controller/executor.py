"""Execution backends for campaign runs.

LFI's evaluation (§7) is embarrassingly parallel: every injection scenario
runs against a *fresh* instance of the target, so nothing but wall-clock
time couples one run to the next.  The executor makes that parallelism an
explicit, swappable policy:

* :class:`SerialBackend` — run everything inline, in submission order (the
  reference semantics);
* :class:`ProcessPoolBackend` — a process pool (fork-based where the
  platform allows it) that scales CPU-bound campaigns with cores.

Two properties make parallel campaigns **bit-identical** to serial ones:

1. **Deterministic ordering** — every result is keyed by its *submission*
   index, never by completion order, so a campaign's ``outcomes`` list is
   independent of scheduling.
2. **Per-run seed threading** — when a campaign seed is given, each run's
   seed is derived from ``(campaign seed, submission index)`` via
   :func:`derive_run_seed` *before* the run is handed to the backend, so a
   run's randomness does not depend on which worker picks it up or when.

Backends are context managers; pools are created lazily on first use and
can be shared across campaigns (the experiment harnesses create one backend
per table and reuse it for every target).

One task shape reaches a backend, the :class:`GroupTask`, and one entry
point drains it, :meth:`ExecutionBackend.run_group_batches_iter`.  A
*shared* task is one prefix group (see :mod:`repro.core.controller.prefix`):
its worker consults the suffix memo, runs the group's probe once and
resumes the siblings locally; an ungrouped entry is a shared group of one.
An *unshared* task is a single scenario run with one ``target.run`` and no
memo — the per-scenario path behind ``share_prefixes=False`` and
:func:`run_requests`.  The serial backend drains the tasks one at a time; a
pool plans them into at most one :class:`GroupBatchTask` per worker up
front (:func:`plan_group_batches`) and each worker drains its batch
back-to-back — on a warm boot template, with one result message — so
prefix sharing and pool parallelism compose instead of cancelling.
"""

from __future__ import annotations

import heapq
import math
import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.controller.monitor import RunResult
from repro.core.controller.target import TargetAdapter, WorkloadRequest
from repro.isa.binary import BinaryImage
from repro.vm.dispatch import (
    block_code_digests,
    install_block_code,
    marshalled_block_code,
)
from repro.vm.machine import resolve_engine

#: Spec values accepted wherever a ``parallelism=`` knob is exposed.
ParallelismSpec = Union[None, int, str, "ExecutionBackend"]


# ----------------------------------------------------------------------
# tasks and seed threading
# ----------------------------------------------------------------------
def derive_run_seed(base_seed: Optional[int], index: int) -> Optional[int]:
    """Derive the seed for the *index*-th submitted run of a campaign.

    The derivation depends only on the campaign seed and the submission
    index — never on worker identity or completion order — which is what
    keeps parallel campaigns bit-identical to serial ones.
    """
    if base_seed is None:
        return None
    # splitmix64-style finalizer: decorrelates adjacent indices.
    value = (base_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 27
    return value & 0x7FFFFFFF


@dataclass
class GroupTask:
    """The unit of work every backend drains: a prefix group or one run.

    A shared task is a prefix group: the whole group — probe plus
    resumable siblings — executes inside one worker (:func:`execute_group`),
    so prefix sharing (:mod:`repro.core.controller.prefix`) composes with
    the pool backends instead of forcing a serial campaign.  An ungrouped
    entry under sharing is a shared group of one: it still runs through
    :func:`~repro.core.controller.prefix.run_entry_group`, so the suffix
    memo answers it when its run is deterministic.  An unshared task is a
    singleton that runs with one ``target.run``, never touching the suffix
    memo or the prefix machinery (``share_prefixes=False`` and
    :func:`run_requests`).  ``entries`` carries the members' original
    submission indices (with per-run seeds already derived), which is what
    keeps pooled results reassemblable into submission order and
    bit-identical to serial ones; a shared task's entries are keyed
    (:class:`~repro.core.controller.prefix.Entry`: key parts and memo key
    ride along, so the worker derives neither).  ``memo_context`` is the
    memo context :func:`~repro.core.controller.prefix.build_group_tasks`
    derived once for every task of its call (``None``: the memo is off).
    """

    index: int
    target: TargetAdapter
    workload: str
    #: ``(index, scenario, seed)`` first; keyed entries add parts and key.
    entries: List[Tuple[Any, ...]]
    collect_coverage: bool = False
    options: Dict[str, Any] = field(default_factory=dict)
    observe_only: bool = False
    shared: bool = True
    publish_os: bool = True
    memo_context: Optional[bytes] = None


def execute_group(task: GroupTask) -> Dict[int, RunResult]:
    """Run one task inside the current worker, keyed by submission index.

    The serial drain calls it per task, :func:`execute_group_batch` per
    group of its batch.
    """
    # Imported lazily: the prefix scheduler sits above the executor in the
    # module graph (campaigns import both), so the executor must not import
    # it at module load.
    from repro.core.controller.prefix import plain_run, run_entry_group

    if not task.shared:
        return {
            entry[0]: plain_run(
                task.target, task.workload, entry[1], entry[2],
                task.collect_coverage, task.options, observe_only=task.observe_only,
                publish_os=task.publish_os,
            )
            for entry in task.entries
        }
    return run_entry_group(
        task.target,
        task.workload,
        task.entries,
        collect_coverage=task.collect_coverage,
        options=task.options,
        observe_only=task.observe_only,
        publish_os=task.publish_os,
        memo_context=task.memo_context,
    )


@dataclass
class GroupBatchTask:
    """A batch of tasks one worker drains run-to-completion.

    The unit of every pooled fan-out: a batch ships many tasks in one pool
    submission and the worker runs them back-to-back — warm boot template,
    warm predecoded program, one result message — instead of a pool round
    trip (submit, pickle the target, return the results, pick up the next
    task) per task.  Tasks in a batch keep their submission order, so
    per-run seeds and member indices are untouched and the merged results
    stay bit-identical to the serial path.
    """

    index: int
    groups: List[GroupTask] = field(default_factory=list)
    #: Marshalled superclosure code by image content digest, for images the
    #: receiving pool's children did not inherit at fork (see
    #: :class:`ProcessPoolBackend`); installed before the groups run.
    block_code: Dict[str, bytes] = field(default_factory=dict)


def execute_group_batch(batch: GroupBatchTask) -> Dict[int, RunResult]:
    """Drain one batch of tasks (module-level for process pools).

    The batch's block code is installed first, so its tasks bind their
    image's superclosures instead of generating them.
    """
    for digest, code in batch.block_code.items():
        install_block_code(digest, code)
    merged: Dict[int, RunResult] = {}
    for group in batch.groups:
        merged.update(execute_group(group))
    return merged


# ----------------------------------------------------------------------
# cost-adaptive group scheduling
# ----------------------------------------------------------------------
#: Relative cost of a resumed suffix: a group of *m* members costs one
#: full probe plus ``m - 1`` suffixes at ~35% of a probe each.  Costs only
#: steer packing (which worker drains which groups), never results.
SUFFIX_COST_FRACTION = 0.35


def estimate_group_cost(task: GroupTask) -> float:
    """Estimated cost of draining *task*, in units of one full run.

    One full probe run plus :data:`SUFFIX_COST_FRACTION` per additional
    member.  Workload length scales every group of one campaign equally,
    so it cancels out of the packing decision and is left out.
    """
    members = len(task.entries)
    if members <= 0:
        return 0.0
    return 1.0 + (members - 1) * SUFFIX_COST_FRACTION


def split_group_task(task: GroupTask, parts: int) -> List[GroupTask]:
    """Split one oversized group into up to *parts* contiguous sub-groups.

    Members stay in rank order and each chunk's first member becomes its
    own probe, re-resuming from the shared boot/fixture state — the
    prefix machinery executes any rank-ordered subset of a group
    bit-identically to the full group (the invariant the memo's
    miss-subgroups rely on too), so splitting trades one extra prefix run
    per chunk for parallelism across workers.  Sub-group ``index`` values
    are the parent's; callers re-number before packing.
    """
    entries = task.entries
    parts = max(1, min(int(parts), len(entries)))
    if parts == 1:
        return [task]
    base, extra = divmod(len(entries), parts)
    chunks: List[GroupTask] = []
    start = 0
    for position in range(parts):
        size = base + (1 if position < extra else 0)
        chunks.append(replace(task, entries=list(entries[start : start + size])))
        start += size
    return chunks


def plan_group_batches(
    tasks: Sequence[GroupTask], shards: int
) -> List[GroupBatchTask]:
    """Plan the per-worker batches for a campaign's tasks.

    Cost estimates (:func:`estimate_group_cost`) steer the packing: any
    group whose estimated cost exceeds the fair per-worker share is split
    into rank-ordered sub-groups (:func:`split_group_task`) so one huge
    errno family does not serialize a whole campaign on a single worker,
    and the resulting tasks are LPT-packed (longest processing time first
    onto the least loaded shard) into at most *shards* batches.  The plan
    is a pure function of ``(tasks, shards)`` — deterministic tie-breaking
    by task index — and never emits an empty batch, so every dispatched
    batch does real work and every member index appears exactly once.
    Results are keyed by submission index, so the packing can never
    change a result.
    """
    ordered = sorted(tasks, key=lambda task: task.index)
    if not ordered:
        return []
    shards = max(1, int(shards))
    fair = sum(estimate_group_cost(task) for task in ordered) / shards
    expanded: List[GroupTask] = []
    for task in ordered:
        cost = estimate_group_cost(task)
        if shards > 1 and len(task.entries) > 1 and cost > fair:
            expanded.extend(split_group_task(task, math.ceil(cost / max(fair, 1e-9))))
        else:
            expanded.append(task)
    expanded = [replace(task, index=position) for position, task in enumerate(expanded)]
    heap: List[Tuple[float, int]] = [(0.0, shard) for shard in range(shards)]
    heapq.heapify(heap)
    assignment: List[List[GroupTask]] = [[] for _ in range(shards)]
    for task in sorted(expanded, key=lambda task: (-estimate_group_cost(task), task.index)):
        load, shard = heapq.heappop(heap)
        assignment[shard].append(task)
        heapq.heappush(heap, (load + estimate_group_cost(task), shard))
    return [
        GroupBatchTask(index=position, groups=sorted(groups, key=lambda task: task.index))
        for position, groups in enumerate(groups for groups in assignment if groups)
    ]


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ExecutionBackend(ABC):
    """Strategy for executing a campaign's tasks."""

    name: str = "backend"

    @abstractmethod
    def map(self, fn: Callable[..., Any], argument_tuples: Sequence[Tuple]) -> List[Any]:
        """Apply *fn* to every argument tuple; results in submission order."""

    def _pair_iter(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(item, fn(item))`` pairs incrementally.

        Pools override this to yield in completion order; the base
        implementation degrades to the eager :meth:`map`.
        """
        yield from zip(items, self.map(fn, [(item,) for item in items]))

    def worker_count(self) -> int:
        """How many tasks this backend can execute concurrently.

        The run-to-completion scheduler plans a campaign's tasks into
        exactly this many batches, so each worker receives one batch and
        drains it without returning to the pool between groups.
        """
        return 1

    def _planned_batches(self, tasks: Sequence[GroupTask]) -> List[GroupBatchTask]:
        """The batches :meth:`run_group_batches_iter` dispatches: one per
        worker (:func:`plan_group_batches`)."""
        return plan_group_batches(tasks, self.worker_count())

    def run_group_batches_iter(
        self, tasks: Sequence[GroupTask]
    ) -> Iterator[Tuple[Any, Dict[int, RunResult]]]:
        """Drain *tasks*, yielding ``(unit, member results)`` as units finish.

        The one execution entry point.  Instead of a pool round trip
        (submit, pickle, result, repeat) per task, the tasks are planned
        into at most :meth:`worker_count` batches up front
        (:func:`plan_group_batches`) and each worker drains its whole batch
        before returning, so the unit is a :class:`GroupBatchTask` and
        checkpoint cadence is one batch.  Units arrive in completion order;
        results are keyed by member submission index, so the merged mapping
        is deterministic regardless of that order.
        """
        batches = self._planned_batches(tasks)
        return self._pair_iter(execute_group_batch, batches)

    def close(self) -> None:
        """Release pool resources (no-op for poolless backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Run every task inline, in submission order (reference semantics)."""

    name = "serial"

    def map(self, fn: Callable[..., Any], argument_tuples: Sequence[Tuple]) -> List[Any]:
        return [fn(*arguments) for arguments in argument_tuples]

    def run_group_batches_iter(
        self, tasks: Sequence[GroupTask]
    ) -> Iterator[Tuple[Any, Dict[int, RunResult]]]:
        # No batches: one task at a time, in the order given, so the unit
        # is the task and the caller sees (and checkpoints) each task's
        # results before the next one starts.
        for task in tasks:
            yield task, execute_group(task)


class ProcessPoolBackend(ExecutionBackend):
    """Process-pool execution for CPU-bound campaigns.

    Targets, requests, and results cross process boundaries, so they must be
    picklable (every shipped target is).  The fork start method is preferred
    so workers inherit already-built artifacts: compiled binaries, profiles,
    and the superclosure code this process generated for each image (see
    :mod:`repro.vm.dispatch`).

    Group batches are how children get that code.  Before dispatching
    batches, this process generates, once, the marshalled block code of
    every image their tasks run on the compiled engine, then starts the
    pool if it has none, noting at fork which codes the children inherit.
    Each batch carries only the codes its pool did not inherit (all of them
    for a pool forked earlier, none for one forked now, all for a pool not
    started with ``fork``), and :func:`execute_group_batch` installs them
    before draining.  Children therefore only bind superclosures; they still
    build their own per-instruction closures, which cannot be marshalled.

    Each child ends itself once this process is gone (see
    :func:`_exit_with_parent`): a child blocked on the pool's call queue
    would otherwise outlive a parent killed without a chance to shut the
    pool down.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Optional[futures.Executor] = None
        #: Content digests of the block code this pool's children inherited.
        self._inherited: FrozenSet[str] = frozenset()

    def worker_count(self) -> int:
        return self.workers or _available_cpus()

    def _make_pool(self) -> futures.Executor:
        workers = self.worker_count()
        mp_context = None
        try:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
        except (ImportError, ValueError):  # pragma: no cover - exotic platforms
            mp_context = None
        # Children fork from the pool's first submit on, which follows at
        # once: they inherit at least the code this process holds now.
        self._inherited = block_code_digests() if mp_context is not None else frozenset()
        return futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context,
            initializer=_exit_with_parent, initargs=(os.getpid(),),
        )

    def _ensure_pool(self) -> futures.Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def map(self, fn: Callable[..., Any], argument_tuples: Sequence[Tuple]) -> List[Any]:
        if not argument_tuples:
            return []
        pool = self._ensure_pool()
        # Submit in order, collect in order: completion order never leaks
        # into the result list.
        pending = [pool.submit(fn, *arguments) for arguments in argument_tuples]
        try:
            return [future.result() for future in pending]
        except BaseException:
            # An early failure must not leak the batch: cancel everything
            # still queued before re-raising (running/finished futures
            # ignore the cancel).
            for future in pending:
                future.cancel()
            raise

    def _pair_iter(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[Any, Any]]:
        """Submit every item, yield ``(item, result)`` in completion order.

        Completion order, not submission order: a slow head-of-line item
        must not delay checkpointing of items that already finished.
        Outstanding futures are cancelled when the consumer stops early
        (generator close) or a result raises — a half-consumed iteration
        must not keep the pool grinding through abandoned work.
        """
        if not items:
            return
        pool = self._ensure_pool()
        future_to_item = {pool.submit(fn, item): item for item in items}
        try:
            for future in futures.as_completed(future_to_item):
                yield future_to_item[future], future.result()
        finally:
            for future in future_to_item:
                future.cancel()

    def _planned_batches(self, tasks: Sequence[GroupTask]) -> List[GroupBatchTask]:
        batches = super()._planned_batches(tasks)
        if not batches:
            return batches
        # Generated before the pool exists, so a pool forked now inherits it.
        codes = [
            {
                image.content_digest(): marshalled_block_code(image)
                for image in map(_superclosure_image, batch.groups)
                if image is not None
            }
            for batch in batches
        ]
        self._ensure_pool()
        for batch, code in zip(batches, codes):
            batch.block_code = {
                digest: data for digest, data in code.items()
                if digest not in self._inherited
            }
        return batches

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


#: How often a pool child checks that its parent still lives, in seconds.
_PARENT_POLL_S = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-child initializer: end this child once *parent_pid* is gone.

    A daemon thread polls the parent pid, which changes when the parent
    dies.  Linux's parent-death signal would not do: it fires when the
    forking *thread* ends, and a pool forks from whichever thread submits
    to it first, which may end long before the pool does.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="lfi-parent-watch", daemon=True).start()


def _superclosure_image(group: GroupTask) -> Optional[BinaryImage]:
    """The image whose superclosures *group*'s runs bind: only a VM target
    on the compiled engine has one."""
    target = group.target
    engine = resolve_engine(group.options.get("engine"))
    if engine != "compiled" or not hasattr(target, "binary"):
        return None
    image = target.binary()
    return image if isinstance(image, BinaryImage) else None


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a process pinned to one CPU gets one), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# spec resolution
# ----------------------------------------------------------------------
def resolve_backend(spec: ParallelismSpec) -> ExecutionBackend:
    """Turn a ``parallelism=`` spec into a backend.

    Accepted specs:

    * ``None``, ``0``, ``1``, ``"serial"`` — :class:`SerialBackend`;
    * an ``int > 1`` (or ``True``) — :class:`ProcessPoolBackend` with that
      many workers: the targets are pure-Python and CPU-bound, so processes
      are what scales with cores;
    * ``"processes"`` / ``"processes:N"`` — :class:`ProcessPoolBackend`;
    * an :class:`ExecutionBackend` instance — returned unchanged (the caller
      keeps ownership of its pool).

    Any other kind raises ``ValueError`` naming the accepted ones.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        return SerialBackend()
    if isinstance(spec, bool):  # guard against parallelism=True accidents
        return ProcessPoolBackend() if spec else SerialBackend()
    if isinstance(spec, int):
        if spec < 0:
            # A negative count is a caller bug (e.g. a sign slip computing
            # workers); quietly degrading to serial would hide it.
            raise ValueError(f"negative worker count in parallelism spec {spec!r}")
        return SerialBackend() if spec <= 1 else ProcessPoolBackend(spec)
    if isinstance(spec, str):
        kind, _, count = spec.partition(":")
        workers = None
        if count:
            try:
                workers = int(count)
            except ValueError:
                raise ValueError(
                    f"invalid worker count in parallelism spec {spec!r}"
                ) from None
            if workers < 0:
                raise ValueError(f"negative worker count in parallelism spec {spec!r}")
        kind = kind.strip().lower()
        if kind in ("", "serial", "none"):
            return SerialBackend()
        if kind in ("process", "processes", "procs"):
            # Consistent with the integer spec: zero workers means serial.
            return SerialBackend() if workers == 0 else ProcessPoolBackend(workers)
        raise ValueError(
            f"unknown parallelism spec {spec!r}; accepted kinds: "
            "serial, processes[:N]"
        )
    raise TypeError(f"unsupported parallelism spec {spec!r}")


def backend_scope(spec: ParallelismSpec) -> Tuple[ExecutionBackend, bool]:
    """Resolve *spec* and report whether the caller owns the backend.

    Returns ``(backend, owned)``: ``owned`` is True when the backend was
    created here (the caller should ``close()`` it after use) and False when
    the caller passed an existing backend in (its pool is left alone).
    """
    if isinstance(spec, ExecutionBackend):
        return spec, False
    return resolve_backend(spec), True


def run_requests(
    target: TargetAdapter,
    requests: Sequence[WorkloadRequest],
    parallelism: ParallelismSpec = None,
) -> List[RunResult]:
    """Run a batch of workload requests against *target* on a backend.

    The one-stop entry point for experiment harnesses: each request becomes
    one unshared task, results come back in request order, and a backend
    created here from a spec is closed afterwards (a passed-in
    :class:`ExecutionBackend` instance is reused and left open).
    """
    tasks = [
        GroupTask(
            index=index,
            target=target,
            workload=request.workload,
            entries=[(index, request.scenario, None)],
            collect_coverage=request.collect_coverage,
            options=dict(request.options),
            observe_only=request.observe_only,
            shared=False,
            publish_os=request.publish_os,
        )
        for index, request in enumerate(requests)
    ]
    collected: Dict[int, RunResult] = {}
    backend, owned = backend_scope(parallelism)
    try:
        for _unit, results in backend.run_group_batches_iter(tasks):
            collected.update(results)
    finally:
        if owned:
            backend.close()
    return [collected[index] for index in range(len(tasks))]


__all__ = [
    "ExecutionBackend",
    "GroupBatchTask",
    "GroupTask",
    "ParallelismSpec",
    "ProcessPoolBackend",
    "SUFFIX_COST_FRACTION",
    "SerialBackend",
    "backend_scope",
    "derive_run_seed",
    "estimate_group_cost",
    "execute_group",
    "execute_group_batch",
    "plan_group_batches",
    "resolve_backend",
    "run_requests",
    "split_group_task",
]
