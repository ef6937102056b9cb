"""The fault-space exploration engine.

Ties the subsystem together: take an enumerated fault space, order it by
testing priority, let a strategy plan the points to run, execute them
through the one pipeline every campaign shares
(:func:`~repro.core.controller.prefix.iter_shared_runs` on an execution
backend), deduplicate the failures, and checkpoint every completed run in
the result store so interrupted explorations resume instead of restarting.

Execution is **round-based**: a planner session proposes a round of
points, the engine executes it (through the prefix/memo/pool machinery),
feeds per-probe coverage deltas back, and asks for the next round
(:class:`RoundPlanner` is the state machine; doc/ADAPTIVE.md the spec).
Static strategies are single-round planners, which keeps the historical
ahead-of-time behavior — and its determinism contract — bit-identical:

* for a static strategy the schedule — ordering, selection, per-run seeds
  — is a pure function of (fault space, strategy, exploration seed);
  execution results never feed back into it.  For an adaptive strategy
  the contract weakens to "(spec + completed results) determine the next
  round": feedback is replayed from :class:`StoredResult`\\ s in schedule
  order, so any driver holding the same store derives the same rounds;
* per-run seeds derive from each point's position in the cumulative
  planned schedule (:func:`~repro.core.controller.executor.derive_run_seed`),
  so a resumed run receives exactly the seed it would have received in an
  uninterrupted exploration;
* backends return results in submission order, so parallel explorations
  are bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.controller.executor import (
    ParallelismSpec,
    backend_scope,
    derive_run_seed,
)
from repro.core.controller.monitor import Outcome, RunResult
from repro.core.controller.prefix import (
    iter_shared_runs,
    resolve_memo_context,
    resolve_sharing,
)
from repro.core.controller.target import TargetAdapter
from repro.core.exploration.dedup import FailureDeduplicator, UniqueFailure, stack_fingerprint
from repro.core.exploration.plan import CampaignPlan, campaign_plan
from repro.core.exploration.space import FaultPoint
from repro.core.exploration.store import ResultStore, StoredResult
from repro.core.exploration.strategy import (
    ExplorationStrategy,
    ProbeFeedback,
    resolve_strategy,
)


@dataclass
class ExplorationOutcome:
    """One completed fault point: fresh from a run or replayed from the store."""

    point: FaultPoint
    index: int
    outcome: Outcome
    injections: int = 0
    fingerprint: str = ""
    resumed: bool = False
    run_seed: Optional[int] = None
    scenario_name: str = ""

    @property
    def exposed_failure(self) -> bool:
        return self.injections > 0 and self.outcome.is_high_impact

    def describe(self) -> str:
        origin = "store" if self.resumed else "run"
        return f"[{origin}] {self.point.key}: {self.outcome.describe()}"


@dataclass
class ExplorationReport:
    """Everything one :meth:`ExplorationEngine.explore` call produced."""

    target: str
    workload: str
    strategy: str
    space_size: int
    selected: int
    executed: int
    resumed: int
    pending: int
    outcomes: List[ExplorationOutcome] = field(default_factory=list)
    unique_failures: List[UniqueFailure] = field(default_factory=list)
    store: Optional[ResultStore] = None
    #: Per-round execution stats (one entry per planned round; static
    #: strategies produce exactly one).
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    #: Planner summary: rounds, frontier size, new-coverage probes,
    #: session-specific counters (see :meth:`RoundPlanner.summary`).
    planner: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every selected point has a recorded result."""
        return self.pending == 0

    def failures(self) -> List[ExplorationOutcome]:
        return [outcome for outcome in self.outcomes if outcome.outcome.is_failure]

    def to_bug_candidates(self) -> List["BugCandidate"]:
        """High-impact unique failures as Table 1 style bug candidates.

        The location is the failure's stack fingerprint, so the cross-
        workload deduplication in ``LFIController.test_automatically`` and
        the Table 1 harness keeps distinct crash paths distinct.
        """
        from repro.core.controller.report import BugCandidate

        candidates: List[BugCandidate] = []
        for failure in self.unique_failures:
            if not failure.kind.is_high_impact:
                continue
            candidates.append(
                BugCandidate(
                    target=self.target,
                    function=failure.function,
                    location=f"stack:{failure.fingerprint}" if failure.fingerprint else "",
                    kind=failure.kind,
                    description=failure.detail,
                    scenarios=list(failure.scenarios),
                    occurrences=failure.occurrences,
                )
            )
        return candidates

    def summary(self) -> str:
        lines = [
            f"exploration of {self.target} [{self.workload}] via {self.strategy}: "
            f"{self.selected}/{self.space_size} points selected — "
            f"{self.executed} run, {self.resumed} resumed from store, {self.pending} pending",
            f"  {len(self.failures())} failures, {len(self.unique_failures)} unique",
        ]
        if len(self.rounds) > 1:
            lines.append(
                f"  {len(self.rounds)} rounds, "
                f"{self.planner.get('new_coverage_probes', 0)} probes unlocked new "
                f"recovery coverage ({self.planner.get('recovery_lines', 0)} lines)"
            )
        for failure in self.unique_failures:
            lines.append("    - " + failure.describe())
        if self.store is not None:
            lines.append("  " + self.store.summary())
        return "\n".join(lines)


class ExplorationEngine:
    """Schedules fault-space exploration campaigns against one target."""

    def __init__(
        self,
        target: TargetAdapter,
        strategy: Optional[ExplorationStrategy] = None,
        store: Optional[ResultStore] = None,
        parallelism: ParallelismSpec = None,
        seed: Optional[int] = None,
        workload: Optional[str] = None,
        once: bool = True,
        share_prefixes: Optional[bool] = None,
        request_options: Optional[dict] = None,
    ) -> None:
        self.target = target
        self.strategy = resolve_strategy(strategy)
        self.store = store if store is not None else ResultStore()
        self.parallelism = parallelism
        self.seed = seed
        self.workload = workload or (target.workloads()[0] if target.workloads() else "default")
        self.once = once
        #: ``None`` enables prefix sharing for explorations against targets
        #: declaring deterministic execution — on every backend: serial
        #: explorations drain groups inline, pooled ones drain one batch of
        #: groups per worker.  ``False`` forces the reference per-point path
        #: (the paths are bit-identical — sharing is purely an
        #: execution-time optimization and never leaks into the result
        #: store, whose keys and seeds stay path-independent); ``True``
        #: demands sharing and raises on non-``prefix_shareable`` targets.
        self.share_prefixes = share_prefixes
        #: Extra ``WorkloadRequest.options`` for every run (e.g.
        #: ``{"engine": "reference"}`` or ``{"snapshots": False}``).
        self.request_options = dict(request_options or {})
        #: Lazily built ``(binary, recovery-line universe)`` for coverage
        #: feedback; see :meth:`_recovery_universe`.
        self._recovery_cache: Optional[Tuple[Any, frozenset]] = None

    @property
    def adaptive(self) -> bool:
        """True when the strategy plans round by round on feedback."""
        return bool(getattr(self.strategy, "adaptive", False))

    @property
    def collects_coverage(self) -> bool:
        """Adaptive explorations run with coverage on — the feedback source."""
        return self.adaptive

    def run_key(self, point: FaultPoint) -> str:
        """The store/resume key of *point* under this engine's workload."""
        return f"{self.workload}|{point.key}"

    def _fingerprint(self, result: RunResult, point: FaultPoint) -> str:
        record = result.log.last_injection() if result.log is not None else None
        fallback = result.outcome.location or result.outcome.detail or point.key
        if record is not None and record.stack:
            return stack_fingerprint(record.stack)
        return stack_fingerprint([], fallback=fallback)

    # ------------------------------------------------------------------
    def _validate_stored_seed(
        self, key: str, stored: StoredResult, index: int
    ) -> None:
        """Fail fast on a store written under another seed or strategy: a
        replayed result must carry exactly the seed this schedule derives,
        or the merged report would be reproducible by no seed."""
        expected_seed = derive_run_seed(self.seed, index)
        if stored.run_seed != expected_seed:
            raise ValueError(
                f"result store seed mismatch for {key!r}: stored run_seed "
                f"{stored.run_seed!r}, this exploration derives "
                f"{expected_seed!r} — resume with the original seed and "
                "strategy, or start a fresh store"
            )

    # ------------------------------------------------------------------
    # coverage feedback
    # ------------------------------------------------------------------
    def _recovery_universe(self) -> Tuple[Any, frozenset]:
        """``(binary, frozenset of recovery Lines)`` for feedback extraction.

        Derived purely from the target's binary and the reference fault
        profiles (:func:`identify_recovery_regions` — the same universe
        table3 measures), so every node of a distributed campaign computes
        the identical set.  Targets without a binary yield an empty
        universe: adaptive exploration then sees no novelty and stops at
        its plateau patience, degenerating gracefully.
        """
        if self._recovery_cache is None:
            binary = None
            getter = getattr(self.target, "binary", None)
            if callable(getter):
                binary = getter()
            universe: frozenset = frozenset()
            if binary is not None:
                from repro.core.profiler.spec_profiles import combined_reference_profile
                from repro.coverage.recovery import identify_recovery_regions

                recovery = identify_recovery_regions(
                    binary, combined_reference_profile()
                )
                universe = frozenset(recovery.all_lines())
            self._recovery_cache = (binary, universe)
        return self._recovery_cache

    def _recovery_lines_of(self, result: RunResult) -> List[str]:
        """The recovery-region lines one run covered, ``"file:line"`` sorted."""
        if not self.collects_coverage:
            return []
        binary, universe = self._recovery_universe()
        if binary is None or not universe:
            return []
        tracker = result.stats.get("coverage")
        if tracker is None:
            return []
        covered = tracker.lines_covered_of(binary, universe)
        return sorted(f"{file}:{line}" for file, line in covered)

    def feedback_from_stored(
        self, point: FaultPoint, stored: StoredResult
    ) -> ProbeFeedback:
        """Rebuild the planner feedback of one completed (or replayed) run."""
        return ProbeFeedback(
            key=point.key,
            recovery_lines=tuple(stored.recovery_lines),
            outcome=stored.outcome,
            injections=stored.injections,
        )

    # ------------------------------------------------------------------
    def stored_result(
        self, index: int, point: FaultPoint, scenario_name: str, result: RunResult
    ) -> StoredResult:
        """Build the persistent record of one completed run.

        The record is a pure function of (point, schedule seed,
        observables) — never of the execution path — so snapshot/shared and
        fresh runs checkpoint identically, resumes compose across paths,
        and a worker on another machine produces the byte-identical record
        a local run would have.
        """
        return StoredResult(
            key=self.run_key(point),
            index=index,
            scenario=scenario_name,
            function=point.function,
            return_value=point.return_value,
            errno=point.errno,
            category=point.category,
            workload=self.workload,
            outcome=result.outcome.kind.value,
            detail=result.outcome.detail,
            exit_code=result.outcome.exit_code,
            location=result.outcome.location,
            injections=result.injections,
            fingerprint=self._fingerprint(result, point),
            run_seed=derive_run_seed(self.seed, index),
            fault_class=getattr(point, "klass", "errno"),
            fault_params=dict(getattr(point, "params", ())),
            calls=dict(result.stats.get("calls", {})),
            recovery_lines=self._recovery_lines_of(result),
        )

    def campaign_plan(self, points: Sequence[FaultPoint]) -> CampaignPlan:
        """The campaign plan of *points* under this engine's ``once``:
        order, scenarios and keys, served from the artifact cache."""
        return campaign_plan(self.target, points, self.once)

    def _run_wanted(
        self,
        plan: CampaignPlan,
        wanted: Sequence[Tuple[int, FaultPoint]],
        parallelism: ParallelismSpec = None,
    ) -> Iterator[StoredResult]:
        """Execute explicit ``(schedule index, point)`` pairs of *plan*,
        yielding one :class:`StoredResult` per completed run (in completion
        order).  Scenarios, key parts and memo keys come from the plan;
        the engine's own store is neither consulted nor written — the
        caller owns persistence."""
        share = resolve_sharing(self.share_prefixes, self.target)
        options = dict(self.request_options)
        # An exploration reduces each run to a StoredResult, which never
        # reads the final OS: runs skip capturing it.
        context = (
            resolve_memo_context(
                self.target, self.workload, self.collects_coverage, options,
                publish_os=False,
            )
            if share else None
        )
        memo_keys = plan.memo_keys(context) if context is not None else None
        points_by_index = dict(wanted)
        entries = [
            plan.entry(index, point, derive_run_seed(self.seed, index), memo_keys)
            for index, point in wanted
        ]
        names_by_index = {entry.index: entry.scenario.name for entry in entries}
        backend, owned = backend_scope(
            parallelism if parallelism is not None else self.parallelism
        )
        try:
            for index, result in iter_shared_runs(
                self.target, self.workload, entries, backend,
                share=share,
                collect_coverage=self.collects_coverage,
                options=options,
                publish_os=False,
                memo_context=context,
            ):
                yield self.stored_result(
                    index, points_by_index[index], names_by_index[index], result,
                )
        finally:
            if owned:
                backend.close()

    def run_assignments(
        self,
        points_by_key: Mapping[str, FaultPoint],
        assignments: Sequence[Tuple[int, str]],
        parallelism: ParallelismSpec = None,
    ) -> Iterator[StoredResult]:
        """Execute explicit ``(schedule index, point key)`` assignments.

        The fabric worker's entry point: the coordinator plans every round
        (it holds the feedback), so a lease names its points by key and
        the worker looks them up in *points_by_key*: its campaign plan
        (which maps point keys to points), or any mapping of its fault
        space keyed by :attr:`FaultPoint.key`, whose plan is then looked
        up by content.  Seeds derive from the shipped indices — each
        point's position in the coordinator's cumulative planned schedule
        — so records are byte-identical to the ones a serial
        :meth:`explore` checkpoints.  A repeated index runs once.
        """
        if isinstance(points_by_key, CampaignPlan):
            plan = points_by_key
        else:
            plan = self.campaign_plan(list(points_by_key.values()))
        wanted: List[Tuple[int, FaultPoint]] = []
        seen: Set[int] = set()
        for raw_index, key in assignments:
            index = int(raw_index)
            point = plan.get(key)
            if point is None:
                raise KeyError(
                    f"assignment names unknown fault point {key!r} for this spec"
                )
            if index < 0:
                raise IndexError(f"negative schedule index {index}")
            if index in seen:
                continue
            seen.add(index)
            wanted.append((index, point))
        wanted.sort(key=lambda pair: pair[0])
        return self._run_wanted(plan, wanted, parallelism)

    # ------------------------------------------------------------------
    def explore(
        self, points: Sequence[FaultPoint], max_runs: Optional[int] = None
    ) -> ExplorationReport:
        """Run (or resume) one exploration over *points*.

        The unified round loop: plan a round, replay what the store already
        holds (validating seeds), execute the rest (checkpointing every
        completed run the moment it lands), feed the round's results back,
        replan.  Static strategies make exactly one round.

        ``max_runs`` bounds how many *new* scenario runs this call performs
        — completed work replayed from the store is free — which both
        supports incremental budgeted exploration and lets tests model
        interruption.  A budget exhausted mid-round leaves the round open;
        the next :meth:`explore` call replays the partial round from the
        store and executes only the missing members, converging on the
        identical rounds an uninterrupted exploration plans.
        """
        # Validate an explicit sharing request before planning anything:
        # ``share_prefixes=True`` on an unshareable target must raise even
        # when the space is empty and no round ever executes.
        resolve_sharing(self.share_prefixes, self.target)
        planner = RoundPlanner(self, points)
        budget = max_runs
        fresh: Set[int] = set()
        backend, owned = backend_scope(self.parallelism)
        try:
            while True:
                pending = planner.replay_from_store()
                if not pending:
                    break
                truncated = budget is not None and len(pending) > budget
                if budget is not None:
                    pending = pending[:budget]
                    budget -= len(pending)
                # Checkpoint each result the moment it is available: a kill
                # mid-campaign loses only in-flight work.
                for stored in self._run_wanted(planner.plan, pending, backend):
                    self.store.record(stored)
                    fresh.add(stored.index)
                    planner.record_result(
                        stored.index, planner.schedule[stored.index], stored,
                        resumed=False,
                    )

                missing = [index for index, _ in pending if index not in fresh]
                if missing:
                    # Every scheduled point must come back with a result;
                    # silently reclassifying dropped runs as "pending" would
                    # under-report executed work (same corrupted-scheduling
                    # guard as campaigns).
                    raise RuntimeError(
                        f"execution returned no result for scheduled point indices "
                        f"{missing[:5]}{'...' if len(missing) > 5 else ''}"
                    )
                if truncated:
                    break
        finally:
            if owned:
                backend.close()

        # Assemble outcomes in schedule order from the store, fresh runs
        # and replays alike.
        outcomes: List[ExplorationOutcome] = []
        deduplicator = FailureDeduplicator()
        for index, point in enumerate(planner.schedule):
            stored = self.store.get(self.run_key(point))
            if stored is None:
                continue
            outcome = ExplorationOutcome(
                point=point,
                index=index,
                outcome=stored.to_outcome(),
                injections=stored.injections,
                fingerprint=stored.fingerprint,
                resumed=index not in fresh,
                run_seed=stored.run_seed,
                scenario_name=stored.scenario,
            )
            outcomes.append(outcome)
            # Only *injection-exposed* failures count — a run that fails
            # without its fault ever being injected is a workload problem,
            # not a finding (same gate as the campaign bug report).
            if outcome.outcome.is_failure and outcome.injections > 0:
                deduplicator.add(
                    function=point.function,
                    errno=point.errno,
                    outcome=outcome.outcome,
                    fingerprint=outcome.fingerprint,
                    scenario=outcome.scenario_name,
                    fault_class=getattr(point, "klass", "errno"),
                )

        return ExplorationReport(
            target=self.target.name,
            workload=self.workload,
            strategy=self.strategy.describe(),
            space_size=len(points),
            selected=len(planner.schedule),
            executed=len(fresh),
            resumed=len(outcomes) - len(fresh),
            pending=len(planner.schedule) - len(outcomes),
            outcomes=outcomes,
            unique_failures=deduplicator.unique(),
            store=self.store,
            rounds=[dict(entry) for entry in planner.rounds],
            planner=planner.summary(),
        )


class RoundPlanner:
    """The plan-round → execute-round → ingest-feedback → replan machine.

    One instance drives one exploration (or one distributed campaign) of
    one engine.  It owns the cumulative planned schedule — the point's
    position in it is the index per-run seeds derive from — the remaining
    frontier, and the feedback channel back into the strategy's
    :class:`~repro.core.exploration.strategy.PlannerSession`.

    Determinism: results of a round are buffered and fed to the session in
    **schedule-index order** when the round closes, so the next round is
    independent of completion/arrival order — serial, pooled, and
    distributed drivers ingesting the same records derive identical
    subsequent rounds.
    """

    def __init__(self, engine: ExplorationEngine, points: Sequence[FaultPoint]) -> None:
        self.engine = engine
        #: The space's campaign plan: the priority order, the key map and
        #: every point's scenario and keys.
        self.plan = engine.campaign_plan(points)
        self.space_size = len(self.plan)
        self.session = engine.strategy.session()
        self.frontier: List[FaultPoint] = list(self.plan.points)
        #: The cumulative planned schedule; grows one round at a time.
        self.schedule: List[FaultPoint] = []
        #: Per-round stats, one dict per planned round.
        self.rounds: List[Dict[str, Any]] = []
        self.current: Optional[List[Tuple[int, FaultPoint]]] = None
        self._current_remaining: Set[int] = set()
        self._current_results: Dict[int, Tuple[FaultPoint, StoredResult, bool]] = {}
        self._pending_feedback: List[ProbeFeedback] = []
        self._covered: Set[str] = set()
        self.new_coverage_probes = 0
        self._exhausted = False

    @property
    def done(self) -> bool:
        """True when the session declined to plan and no round is open."""
        return self._exhausted and self.current is None

    def next_round(self) -> List[Tuple[int, FaultPoint]]:
        """Propose and register the next round ([] = planner finished)."""
        if self._exhausted:
            return []
        if self.current is not None:
            raise RuntimeError(
                "previous round is still open; feed its results back before "
                "planning the next one"
            )
        keys = self.session.propose(self.frontier, self._pending_feedback)
        self._pending_feedback = []
        if not keys:
            self._exhausted = True
            return []
        frontier_keys = {point.key for point in self.frontier}
        seen: Set[str] = set()
        base = len(self.schedule)
        assignments: List[Tuple[int, FaultPoint]] = []
        for offset, key in enumerate(keys):
            if key in seen or key not in frontier_keys:
                raise ValueError(
                    f"planner proposed invalid or duplicate point key {key!r}"
                )
            seen.add(key)
            assignments.append((base + offset, self.plan[key]))
        self.schedule.extend(point for _, point in assignments)
        self.frontier = [point for point in self.frontier if point.key not in seen]
        self.current = assignments
        self._current_remaining = {index for index, _ in assignments}
        self._current_results = {}
        self.rounds.append(
            {
                "round": len(self.rounds) + 1,
                "planned": len(assignments),
                "executed": 0,
                "resumed": 0,
                "new_recovery_lines": 0,
            }
        )
        return list(assignments)

    def group_key_of(self, point: FaultPoint) -> Optional[str]:
        """The prefix-group base key of one planned point (``None`` = solo).

        Read from the campaign plan — the same derivation on every node —
        so a campaign coordinator can co-locate a planned round's group
        members in one shard lease: the worker that drains them shares
        their boot+prefix capture and suffix memo instead of probing the
        same prefix on k machines.  Unshareable scenarios (or sharing off
        entirely) map to ``None``.
        """
        if not resolve_sharing(self.engine.share_prefixes, self.engine.target):
            return None
        return self.plan.group_key(point)

    def record_result(
        self, index: int, point: FaultPoint, stored: StoredResult, resumed: bool
    ) -> None:
        """Feed one completed result of the open round back.

        Safe against duplicate deliveries (stale leases re-executing a
        member): only the first record per index counts, matching the
        store's first-completion-wins contract.  When the last member
        lands, the round closes and its feedback is queued for the next
        :meth:`next_round` in schedule-index order.
        """
        if index not in self._current_remaining:
            return
        self._current_remaining.discard(index)
        self._current_results[index] = (point, stored, resumed)
        stats = self.rounds[-1]
        stats["resumed" if resumed else "executed"] += 1
        if not self._current_remaining:
            self._close_round()

    def _close_round(self) -> None:
        stats = self.rounds[-1]
        for index in sorted(self._current_results):
            point, stored, _resumed = self._current_results[index]
            feedback = self.engine.feedback_from_stored(point, stored)
            novel = set(feedback.recovery_lines) - self._covered
            if novel:
                self._covered.update(novel)
                stats["new_recovery_lines"] += len(novel)
                self.new_coverage_probes += 1
            self._pending_feedback.append(feedback)
        self._current_results = {}
        self.current = None

    def replay_from_store(self) -> List[Tuple[int, FaultPoint]]:
        """Advance through rounds the store already answers.

        Proposes rounds and replays their completed members (validating
        stored seeds) until a round has members with no record; returns
        those pending ``(index, point)`` pairs — or ``[]`` once the
        planner is exhausted.  This is how both a resumed :meth:`explore`
        and a coordinator resuming a campaign reconstruct the planner
        state purely from (spec, store).
        """
        store = self.engine.store
        while True:
            if self.current is None:
                if not self.next_round():
                    return []
            pending: List[Tuple[int, FaultPoint]] = []
            for index, point in self.current:
                if index not in self._current_remaining:
                    continue
                key = self.engine.run_key(point)
                stored = store.get(key)
                if stored is None:
                    pending.append((index, point))
                    continue
                self.engine._validate_stored_seed(key, stored, index)
                self.record_result(index, point, stored, resumed=True)
            if pending:
                return pending
            # The round replayed completely (record_result closed it);
            # loop to plan the next one.

    def summary(self) -> Dict[str, Any]:
        """The planner block reports and campaign status expose."""
        payload: Dict[str, Any] = {
            "strategy": self.engine.strategy.describe(),
            "adaptive": self.engine.adaptive,
            "rounds": len(self.rounds),
            "planned": len(self.schedule),
            "frontier": len(self.frontier),
            "new_coverage_probes": self.new_coverage_probes,
            "recovery_lines": len(self._covered),
        }
        session_stats = self.session.stats()
        if session_stats:
            payload["session"] = session_stats
        return payload


__all__ = [
    "ExplorationEngine",
    "ExplorationOutcome",
    "ExplorationReport",
    "RoundPlanner",
]
