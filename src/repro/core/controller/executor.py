"""Execution backends for scenario x workload batches.

LFI's evaluation (§7) is embarrassingly parallel: every injection scenario
runs against a *fresh* instance of the target, so nothing but wall-clock
time couples one run to the next.  The executor makes that parallelism an
explicit, swappable policy:

* :class:`SerialBackend` — run tasks inline, in submission order (the
  historical behaviour, and the reference semantics);
* :class:`ThreadPoolBackend` — a ``concurrent.futures`` thread pool, useful
  when target runs block on anything other than the interpreter;
* :class:`ProcessPoolBackend` — a process pool (fork-based where the
  platform allows it) that scales CPU-bound campaigns with cores.

Two properties make parallel campaigns **bit-identical** to serial ones:

1. **Deterministic ordering** — results are returned sorted by *submission*
   index, never by completion order.  A campaign's ``outcomes`` list is
   therefore independent of scheduling.
2. **Per-run seed threading** — when a campaign seed is given, each task's
   seed is derived from ``(campaign seed, submission index)`` via
   :func:`derive_run_seed` *before* the task is handed to the backend, so a
   run's randomness does not depend on which worker picks it up or when.

Backends are context managers; pools are created lazily on first use and
can be shared across campaigns (the experiment harnesses create one backend
per table and reuse it for every target).

Two task shapes reach a backend.  :class:`ExecutionTask` is one scenario
run — the plain per-scenario fan-out (``run_tasks`` / ``run_tasks_iter``).
:class:`GroupBatchTask` is the run-to-completion shape for prefix sharing
(see :mod:`repro.core.controller.prefix`): the campaign's
:class:`GroupTask` prefix groups are planned into at most one batch per
worker up front (:func:`plan_group_batches`) and each worker drains its
batch back-to-back — running every group's probe once and resuming its
siblings locally, on a warm boot template, with one result message — so
prefix sharing and pool parallelism compose instead of cancelling;
``run_group_batches`` / ``run_group_batches_iter`` are its entry points.
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
@dataclass
class ExecutionTask:
    """One workload run: a target, a request, and its submission index."""

    index: int
    target: TargetAdapter
    request: WorkloadRequest
    #: Per-run seed (already derived from the campaign seed and ``index``);
    #: ``None`` leaves the request untouched.
    seed: Optional[int] = None


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


def execute_task(task: ExecutionTask) -> RunResult:
    """Run one task (module-level so process pools can import it)."""
    request = task.request
    if task.seed is not None:
        options = dict(request.options)
        options.setdefault("run_seed", task.seed)
        request = replace(request, options=options)
    return task.target.run(request)


@dataclass
class GroupTask:
    """One prefix group: the unit a :class:`GroupBatchTask` is packed from.

    The whole scenario group — probe plus resumable siblings — executes
    inside one worker (:func:`execute_group`), so prefix sharing
    (:mod:`repro.core.controller.prefix`) composes with the pool backends
    instead of forcing a serial campaign.  ``entries`` carries the members'
    original submission indices (with per-run seeds already derived), which
    is what keeps pooled-shared results reassemblable into submission order
    and bit-identical to the serial shared path.
    """

    index: int
    target: TargetAdapter
    workload: str
    entries: List[Tuple[int, Any, Optional[int]]]
    collect_coverage: bool = False
    options: Dict[str, Any] = field(default_factory=dict)
    observe_only: bool = False


def execute_group(task: GroupTask) -> Dict[int, RunResult]:
    """Run one prefix group inside the current worker.

    :func:`execute_group_batch` calls it once per group of its batch.
    """
    # Imported lazily: the prefix scheduler sits above the executor in the
    # module graph (campaigns import both), so the executor must not import
    # it at module load.
    from repro.core.controller.prefix import run_entry_group

    return run_entry_group(
        task.target,
        task.workload,
        task.entries,
        collect_coverage=task.collect_coverage,
        options=dict(task.options),
        observe_only=task.observe_only,
    )


@dataclass
class GroupBatchTask:
    """A batch of prefix groups one worker drains run-to-completion.

    The pooled fan-out unit for shared campaigns: a batch ships many groups
    in a single task and the worker runs them back-to-back — warm boot
    template, warm predecoded program, one result message — instead of a
    pool round trip (submit, pickle the target, return the results, pick
    up the next task) per group.  Groups in a batch keep their submission
    order, so per-run seeds and member indices are untouched and the merged
    results stay bit-identical to the serial shared path.
    """

    index: int
    groups: List[GroupTask] = field(default_factory=list)
    #: Marshalled superclosure code by image content digest, for images the
    #: receiving pool's children did not inherit at fork (see
    #: :class:`ProcessPoolBackend`); installed before the groups run.
    block_code: Dict[str, bytes] = field(default_factory=dict)


def execute_group_batch(batch: GroupBatchTask) -> Dict[int, RunResult]:
    """Drain one batch of groups (module-level for process pools).

    The batch's block code is installed first, so its groups bind their
    image's superclosures instead of generating them.
    """
    for digest, code in batch.block_code.items():
        install_block_code(digest, code)
    merged: Dict[int, RunResult] = {}
    for group in batch.groups:
        merged.update(execute_group(group))
    return merged


def shard_group_tasks(
    tasks: Sequence[GroupTask], shards: int
) -> List[GroupBatchTask]:
    """Interleave *tasks* round-robin into at most *shards* batches.

    The static ("round-robin") scheduling policy.  Round-robin rather than
    contiguous slicing: campaign builders emit groups in fault-space
    order, which correlates neighbouring groups' sizes, so contiguous
    shards would load-balance poorly.  Interleaving by sorted group index
    keeps the assignment deterministic (independent of completion order)
    while spreading heavy neighbourhoods across workers.  Every returned
    batch is non-empty — with more workers than groups the surplus
    workers get no batch at all rather than a no-op dispatch.
    """
    ordered = sorted(tasks, key=lambda task: task.index)
    if not ordered:
        return []
    shards = max(1, min(shards, len(ordered)))
    batches = [GroupBatchTask(index=index) for index in range(shards)]
    for position, task in enumerate(ordered):
        batches[position % shards].groups.append(task)
    return [batch for batch in batches if batch.groups]


# ----------------------------------------------------------------------
# cost-adaptive group scheduling
# ----------------------------------------------------------------------
#: Relative cost of a resumed suffix: a group of *m* members costs one
#: full probe plus ``m - 1`` suffixes at ~35% of a probe each.  Costs only
#: steer packing (which worker drains which groups), never results.
SUFFIX_COST_FRACTION = 0.35

#: Accepted ``group_sched`` / ``REPRO_GROUP_SCHED`` policy names.
GROUP_SCHEDULE_POLICIES = ("adaptive", "static")


def resolve_group_schedule(policy: Optional[str] = None) -> str:
    """Normalise a group-scheduling policy name (``None`` = environment).

    ``adaptive`` (the default) is cost-estimated splitting + LPT
    packing (:func:`plan_group_batches`); ``static`` is the historical
    round-robin :func:`shard_group_tasks` interleaving.
    ``REPRO_GROUP_SCHED`` sets the process default.
    """
    if policy is None:
        policy = os.environ.get("REPRO_GROUP_SCHED") or "adaptive"
    name = str(policy).strip().lower()
    if name not in GROUP_SCHEDULE_POLICIES:
        raise ValueError(
            f"unknown group schedule policy {policy!r}; known policies: "
            f"{', '.join(GROUP_SCHEDULE_POLICIES)}"
        )
    return name


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
    tasks: Sequence[GroupTask],
    shards: int,
    policy: Optional[str] = None,
) -> List[GroupBatchTask]:
    """Plan the per-worker batches for a campaign's groups.

    The ``adaptive`` policy replaces static round-robin with cost
    estimates (:func:`estimate_group_cost`): any group whose estimated
    cost exceeds the fair per-worker share is split into rank-ordered
    sub-groups (:func:`split_group_task`) so one huge errno family no
    longer serializes a whole campaign on a single worker, and the
    resulting tasks are LPT-packed (longest processing time first onto
    the least loaded shard) into at most *shards* batches.  The plan is a
    pure function of ``(tasks, shards, policy)`` — deterministic
    tie-breaking by task index — and never emits an empty batch, so every
    dispatched batch does real work and every member index appears
    exactly once.
    """
    name = resolve_group_schedule(policy)
    ordered = sorted(tasks, key=lambda task: task.index)
    if not ordered:
        return []
    shards = max(1, int(shards))
    if name == "static":
        batches = shard_group_tasks(ordered, shards)
    else:
        fair = sum(estimate_group_cost(task) for task in ordered) / shards
        expanded: List[GroupTask] = []
        for task in ordered:
            cost = estimate_group_cost(task)
            if shards > 1 and len(task.entries) > 1 and cost > fair:
                expanded.extend(
                    split_group_task(task, math.ceil(cost / max(fair, 1e-9)))
                )
            else:
                expanded.append(task)
        expanded = [
            replace(task, index=position) for position, task in enumerate(expanded)
        ]
        heap: List[Tuple[float, int]] = [(0.0, shard) for shard in range(shards)]
        heapq.heapify(heap)
        assignment: List[List[GroupTask]] = [[] for _ in range(shards)]
        for task in sorted(
            expanded, key=lambda task: (-estimate_group_cost(task), task.index)
        ):
            load, shard = heapq.heappop(heap)
            assignment[shard].append(task)
            heapq.heappush(heap, (load + estimate_group_cost(task), shard))
        batches = [
            GroupBatchTask(index=0, groups=sorted(groups, key=lambda task: task.index))
            for groups in assignment
            if groups
        ]
    return [
        GroupBatchTask(index=position, groups=batch.groups)
        for position, batch in enumerate(batches)
    ]


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ExecutionBackend(ABC):
    """Strategy for executing a batch of independent tasks."""

    name: str = "backend"

    @abstractmethod
    def map(self, fn: Callable[..., Any], argument_tuples: Sequence[Tuple]) -> List[Any]:
        """Apply *fn* to every argument tuple; results in submission order."""

    def run_tasks(self, tasks: Sequence[ExecutionTask]) -> List[RunResult]:
        """Execute campaign tasks; results ordered by submission index."""
        ordered = sorted(tasks, key=lambda task: task.index)
        return self.map(execute_task, [(task,) for task in ordered])

    def _pair_iter(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(item, fn(item))`` pairs incrementally.

        The single delivery policy behind every ``*_iter`` entry point
        (tasks, group batches): backends override *this* — the
        serial backend yields lazily after each item, pools yield in
        completion order — and the entry points stay one-liners instead of
        three near-copies per backend.  The base implementation degrades to
        the eager :meth:`map`.
        """
        yield from zip(items, self.map(fn, [(item,) for item in items]))

    def run_tasks_iter(
        self, tasks: Sequence[ExecutionTask]
    ) -> Iterator[Tuple[ExecutionTask, RunResult]]:
        """Yield ``(task, result)`` pairs incrementally, as runs complete.

        Unlike :meth:`run_tasks`, pairs arrive in **completion** order
        (pools yield whatever finishes first; the serial backend yields
        after each task) — the caller gets each pair while the rest of the
        batch is still running, which is what lets the exploration engine
        checkpoint completed runs the moment they exist.  Callers needing
        submission order must reassemble by ``task.index``.
        """
        ordered = sorted(tasks, key=lambda task: task.index)
        return self._pair_iter(execute_task, ordered)

    def worker_count(self) -> int:
        """How many tasks this backend can execute concurrently.

        The run-to-completion scheduler shards a campaign's groups into
        exactly this many batches, so each worker receives one batch and
        drains it without returning to the pool between groups.
        """
        return 1

    def _planned_batches(
        self, tasks: Sequence[GroupTask], schedule: Optional[str]
    ) -> List[GroupBatchTask]:
        """The batches :meth:`run_group_batches` and its streaming face
        dispatch: one per worker (:func:`plan_group_batches`)."""
        return plan_group_batches(tasks, self.worker_count(), policy=schedule)

    def run_group_batches(
        self, tasks: Sequence[GroupTask], schedule: Optional[str] = None
    ) -> Dict[int, RunResult]:
        """Drain *tasks* run-to-completion: one batch of groups per worker.

        Instead of a pool round trip (submit, pickle, result, repeat) per
        group, the groups are planned into at most :meth:`worker_count`
        batches up front (:func:`plan_group_batches`, cost-adaptive by
        default; ``schedule="static"`` selects the round-robin interleave)
        and each worker drains its whole batch before returning.  Results come back
        keyed by member submission index, so the merged mapping is
        deterministic regardless of batch completion order.
        """
        batches = self._planned_batches(tasks, schedule)
        merged: Dict[int, RunResult] = {}
        for results in self.map(execute_group_batch, [(batch,) for batch in batches]):
            merged.update(results)
        return merged

    def run_group_batches_iter(
        self, tasks: Sequence[GroupTask], schedule: Optional[str] = None
    ) -> Iterator[Tuple["GroupBatchTask", Dict[int, RunResult]]]:
        """Yield ``(batch, member results)`` pairs as batches drain.

        The streaming face of :meth:`run_group_batches`: checkpoint cadence
        is one batch (several groups) rather than one group — the price of
        eliminating the per-group pool round trips.
        """
        batches = self._planned_batches(tasks, schedule)
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

    def _pair_iter(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[Any, Any]]:
        # Lazily, one item at a time: the caller sees each result before
        # the next item starts (the base class would run the whole batch
        # eagerly through ``map`` first).
        for item in items:
            yield item, fn(item)


class _PoolBackend(ExecutionBackend):
    """Shared plumbing for the ``concurrent.futures`` backends."""

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Optional[futures.Executor] = None

    def _make_pool(self) -> futures.Executor:
        raise NotImplementedError

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

    def _completed_iter(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[Any, Any]]:
        """Submit every item, yield ``(item, result)`` in completion order.

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

    def _pair_iter(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> Iterator[Tuple[Any, Any]]:
        # Completion order, not submission order: a slow head-of-line item
        # must not delay checkpointing of items that already finished.
        yield from self._completed_iter(fn, items)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadPoolBackend(_PoolBackend):
    """Thread-pool execution (shared interpreter, shared artifact cache)."""

    name = "threads"

    def worker_count(self) -> int:
        return self.workers or min(32, _available_cpus() * 2)

    def _make_pool(self) -> futures.Executor:
        return futures.ThreadPoolExecutor(
            max_workers=self.worker_count(), thread_name_prefix="lfi-campaign"
        )


class ProcessPoolBackend(_PoolBackend):
    """Process-pool execution for CPU-bound campaigns.

    Targets, requests, and results cross process boundaries, so they must be
    picklable (every shipped target is).  The fork start method is preferred
    so workers inherit already-built artifacts: compiled binaries, profiles,
    and the superclosure code this process generated for each image (see
    :mod:`repro.vm.dispatch`).

    Group batches are how children get that code.  Before dispatching
    batches, this process generates, once, the marshalled block code of
    every image their groups run on the compiled engine, then starts the
    pool if it has none, noting at fork which codes the children inherit.
    Each batch carries only the codes its pool did not inherit (all of them
    for a pool forked earlier, none for one forked now, all for a pool not
    started with ``fork``), and :func:`execute_group_batch` installs them
    before draining.  Children therefore only bind superclosures; they still
    build their own per-instruction closures, which cannot be marshalled.
    Per-scenario tasks (:meth:`run_tasks`: explorations and campaigns
    without prefix sharing, :func:`run_requests`) carry no code and this
    process generates none for them, so every child generates the code of
    each image it runs unless it inherited that code.

    Each child ends itself once this process is gone (see
    :func:`_exit_with_parent`): a child blocked on the pool's call queue
    would otherwise outlive a parent killed without a chance to shut the
    pool down.
    """

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
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

    def _planned_batches(
        self, tasks: Sequence[GroupTask], schedule: Optional[str]
    ) -> List[GroupBatchTask]:
        batches = super()._planned_batches(tasks, schedule)
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
      are the spec that actually scales with cores (threads serialize on
      the GIL);
    * ``"threads"`` / ``"threads:N"`` — :class:`ThreadPoolBackend`, for
      targets that block on something other than the interpreter, or whose
      tasks/results cannot cross a process boundary;
    * ``"processes"`` / ``"processes:N"`` — :class:`ProcessPoolBackend`;
    * an :class:`ExecutionBackend` instance — returned unchanged (the caller
      keeps ownership of its pool).
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
        if kind in ("thread", "threads", "process", "processes", "procs"):
            if workers == 0:
                # Consistent with the integer spec: zero workers means serial.
                return SerialBackend()
            if kind in ("thread", "threads"):
                return ThreadPoolBackend(workers)
            return ProcessPoolBackend(workers)
        raise ValueError(f"unknown parallelism spec {spec!r}")
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

    The one-stop entry point for experiment harnesses: *requests* are
    submitted in order, results come back in the same order, and a backend
    created here from a spec is closed afterwards (a passed-in
    :class:`ExecutionBackend` instance is reused and left open).
    """
    tasks = [
        ExecutionTask(index=index, target=target, request=request)
        for index, request in enumerate(requests)
    ]
    backend, owned = backend_scope(parallelism)
    try:
        return backend.run_tasks(tasks)
    finally:
        if owned:
            backend.close()


__all__ = [
    "ExecutionBackend",
    "ExecutionTask",
    "GROUP_SCHEDULE_POLICIES",
    "GroupBatchTask",
    "GroupTask",
    "ParallelismSpec",
    "ProcessPoolBackend",
    "SUFFIX_COST_FRACTION",
    "SerialBackend",
    "ThreadPoolBackend",
    "backend_scope",
    "derive_run_seed",
    "estimate_group_cost",
    "execute_group",
    "execute_group_batch",
    "execute_task",
    "plan_group_batches",
    "resolve_backend",
    "resolve_group_schedule",
    "run_requests",
    "shard_group_tasks",
    "split_group_task",
]
