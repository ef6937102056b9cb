"""Pluggable exploration strategies and the round-based planner protocol.

A strategy decides *which* fault points of the enumerated space a campaign
actually runs.  Two shapes exist:

* **Static** strategies (`adaptive = False`) pick their whole selection up
  front via :meth:`ExplorationStrategy.select`; they never reorder points
  (scheduling priority belongs to
  :func:`repro.core.exploration.space.priority_order`) and must be
  deterministic functions of (point list, their own configuration) — the
  resume machinery depends on a killed exploration re-selecting exactly
  the same points when it restarts.

* **Adaptive** strategies (`adaptive = True`) plan in *rounds* through a
  stateful :class:`PlannerSession`: the engine (or the campaign
  coordinator) calls ``propose(frontier, feedback)`` repeatedly, executes
  the proposed round through the normal prefix/memo/pool machinery, and
  feeds per-probe :class:`ProbeFeedback` back before asking for the next
  round.  Static strategies participate in the same loop as
  behavior-identical single-round planners
  (:class:`SingleRoundSession`), which keeps them the differential
  oracle for the refactored round loop.

The determinism contract extends to sessions: a session's proposals must
be a pure function of (its strategy's configuration, the sequence of
frontiers and feedback it has seen).  No wall-clock, no unseeded
randomness — given the same spec and the same completed results, serial,
pooled, and distributed drivers must derive the same next round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.exploration.space import FaultPoint


@dataclass(frozen=True)
class ProbeFeedback:
    """What one executed probe reports back to the planner.

    ``recovery_lines`` are the recovery-region source lines (encoded
    ``"file:line"``) this probe's run covered — the same universe
    :mod:`repro.core.coverage.recovery` identifies for table3.  Sessions
    treat the strings as opaque tokens; novelty is set difference against
    what earlier probes reported.
    """

    key: str
    recovery_lines: Tuple[str, ...] = ()
    outcome: str = ""
    injections: int = 0


class PlannerSession(ABC):
    """Stateful planning loop of one exploration.

    ``propose`` receives the remaining frontier (points not yet planned, in
    priority order) and the feedback of the previous round, and returns the
    point keys of the next round — a subset of the frontier, no duplicates.
    An empty list ends the exploration.  Sessions are single-use: one
    session drives one exploration (or one campaign) start to finish.
    """

    @abstractmethod
    def propose(
        self,
        frontier: Sequence[FaultPoint],
        feedback: Sequence[ProbeFeedback],
    ) -> List[str]:
        """Return the point keys of the next round ([] = done)."""

    def stats(self) -> Dict[str, Any]:
        """Session-specific counters for reports/status (may be empty)."""
        return {}


class SingleRoundSession(PlannerSession):
    """Adapt a static strategy to the planner protocol.

    Round one is exactly ``strategy.select(frontier)``; every later call
    returns [].  This is the bridge that lets the round-based engine run
    Exhaustive/BoundarySample/RandomSample bit-identically to the static
    schedule they produced before the refactor.
    """

    def __init__(self, strategy: "ExplorationStrategy") -> None:
        self.strategy = strategy
        self._proposed = False

    def propose(
        self,
        frontier: Sequence[FaultPoint],
        feedback: Sequence[ProbeFeedback],
    ) -> List[str]:
        if self._proposed:
            return []
        self._proposed = True
        return [point.key for point in self.strategy.select(list(frontier))]


class ExplorationStrategy(ABC):
    """Select the subset of the fault space one exploration will run."""

    name: str = "strategy"
    #: Adaptive strategies plan round by round and consume feedback; static
    #: strategies commit to their whole selection up front.
    adaptive: bool = False

    @abstractmethod
    def select(self, points: Sequence[FaultPoint]) -> List[FaultPoint]:
        """Return the points to run, preserving the given order."""

    def session(self) -> PlannerSession:
        """Start a fresh planning session for one exploration."""
        return SingleRoundSession(self)

    def describe(self) -> str:
        return self.name


class ExhaustiveStrategy(ExplorationStrategy):
    """Run every enumerated point exactly once (the §7.1 full sweep)."""

    name = "exhaustive"

    def select(self, points: Sequence[FaultPoint]) -> List[FaultPoint]:
        return list(points)


class BoundarySampleStrategy(ExplorationStrategy):
    """Run the boundary faults of each call site.

    For every call site, keep the first and last fault candidate of its
    profile order (the extremes of the declared error space).  Sites with
    one or two candidates are kept whole, so the strategy degenerates to
    exhaustive on small profiles while pruning wide errno lists to their
    edges.
    """

    name = "boundary-sample"

    def select(self, points: Sequence[FaultPoint]) -> List[FaultPoint]:
        extremes: Dict[Tuple[str, str, int], Tuple[int, int]] = {}
        for point in points:
            site_key = (point.binary, point.function, point.address)
            low, high = extremes.get(site_key, (point.fault_index, point.fault_index))
            extremes[site_key] = (min(low, point.fault_index), max(high, point.fault_index))
        return [
            point
            for point in points
            if point.fault_index in extremes[(point.binary, point.function, point.address)]
        ]


class RandomSampleStrategy(ExplorationStrategy):
    """Run a seeded random sample of the space.

    ``fraction`` keeps that share of the points (rounded up, so a non-empty
    space always yields at least one run); ``count`` caps the sample at an
    absolute size instead.  The sample depends only on ``seed`` and the
    point list, and the selected points keep their original (priority)
    order.
    """

    name = "random-sample"

    def __init__(
        self,
        seed: int,
        fraction: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        if fraction is None and count is None:
            fraction = 0.25
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if count is not None and count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self.seed = seed
        self.fraction = fraction
        self.count = count

    def select(self, points: Sequence[FaultPoint]) -> List[FaultPoint]:
        total = len(points)
        if total == 0:
            return []
        if self.count is not None:
            size = min(self.count, total)
        else:
            size = max(1, round(self.fraction * total))
            size = min(size, total)
        chosen = set(Random(self.seed).sample(range(total), size))
        return [point for index, point in enumerate(points) if index in chosen]

    def describe(self) -> str:
        budget = f"count={self.count}" if self.count is not None else f"fraction={self.fraction}"
        return f"{self.name}({budget}, seed={self.seed})"


def _site_key(point: FaultPoint) -> Tuple[Any, ...]:
    """Neighborhood identity: the (site × fault-class) a point probes.

    Errno points from the same call site are neighbors (same check, other
    errno); structured points collapse ``address`` to 0, so their
    neighborhood is (function × class) across params/occurrences.
    """
    return (
        point.binary,
        point.function,
        point.address,
        getattr(point, "klass", None),
    )


class CoverageGuidedStrategy(ExplorationStrategy):
    """Plan rounds toward new recovery-code coverage (the table3 metric).

    The session seeds round one with one probe per distinct call site (in
    priority order — the cheapest way to discover which sites guard
    recovery code at all).  Later rounds split between a capped
    *exploitation* budget (a quarter of the round) on the neighbors of
    productive probes — when a probe unlocks recovery lines nobody
    covered before, the unplanned points of the same site get a strong
    boost (other errnos may cover the rest of a value-dependent recovery
    region) and the same function's other sites a weak one — and
    *exploration*: one representative per still-unprobed site, ordered by
    score then priority rank, so breadth is never starved behind a hot
    neighborhood.  Feedback cuts both ways: a probe that unlocks nothing
    *saturates* its site, clearing the site's boosts so exploitation
    moves on.  Rounds shrink as the queues drain, and the session stops
    once ``patience`` consecutive rounds unlock nothing new (or the
    frontier empties).

    Deterministic by construction: scoring is additive over feedback
    ingested in schedule order, ties break on the stable priority rank,
    and the seeded RNG is the only randomness source (currently unused —
    reserved for stochastic variants).
    """

    name = "coverage-guided"
    adaptive = True

    def __init__(
        self,
        seed: int = 0,
        round_size: int = 8,
        patience: int = 1,
        site_boost: float = 4.0,
        function_boost: float = 1.0,
    ) -> None:
        if round_size < 1:
            raise ValueError(f"round_size must be positive, got {round_size}")
        if patience < 1:
            raise ValueError(f"patience must be positive, got {patience}")
        self.seed = seed
        self.round_size = round_size
        self.patience = patience
        self.site_boost = site_boost
        self.function_boost = function_boost

    def select(self, points: Sequence[FaultPoint]) -> List[FaultPoint]:
        # Feedback-free projection: with nothing observed, the full space is
        # eligible.  Drivers that cannot run the feedback loop (spec
        # validation, space sizing) see the exhaustive ordering.
        return list(points)

    def session(self) -> PlannerSession:
        return CoverageGuidedSession(self)

    def describe(self) -> str:
        return (
            f"{self.name}(round={self.round_size}, patience={self.patience}, "
            f"seed={self.seed})"
        )


class CoverageGuidedSession(PlannerSession):
    """The stateful planning loop behind :class:`CoverageGuidedStrategy`."""

    def __init__(self, strategy: CoverageGuidedStrategy) -> None:
        self.strategy = strategy
        self.rng = Random(strategy.seed)
        self._rank: Dict[str, int] = {}
        self._info: Dict[str, Tuple[Tuple[Any, ...], str]] = {}
        self._score: Dict[str, float] = {}
        self._planned: Set[str] = set()
        self._probed_sites: Set[Tuple[Any, ...]] = set()
        self._saturated: Set[Tuple[Any, ...]] = set()
        self._covered: Set[str] = set()
        self._rounds = 0
        self._quiet_rounds = 0
        self._done = False
        self.new_coverage_probes = 0

    def _register(self, frontier: Sequence[FaultPoint]) -> None:
        for point in frontier:
            if point.key not in self._rank:
                self._rank[point.key] = len(self._rank)
                self._info[point.key] = (_site_key(point), point.function)

    def _ingest(self, feedback: Sequence[ProbeFeedback]) -> int:
        """Fold a round's feedback in; return how many lines were novel."""
        novel_total = 0
        for probe in feedback:
            novel = set(probe.recovery_lines) - self._covered
            info = self._info.get(probe.key)
            site = info[0] if info is not None else None
            if not novel:
                # A barren probe saturates its site: whatever recovery
                # region the site guards is already covered (or absent),
                # so its remaining errnos stop being worth exploitation.
                if site is not None:
                    self._saturated.add(site)
                    for key, (other_site, _function) in self._info.items():
                        if other_site == site and key not in self._planned:
                            self._score.pop(key, None)
                continue
            self._covered.update(novel)
            novel_total += len(novel)
            self.new_coverage_probes += 1
            if info is None:
                continue
            function = info[1]
            self._saturated.discard(site)
            weight = float(len(novel))
            for key, (other_site, other_function) in self._info.items():
                if key in self._planned or other_site in self._saturated:
                    continue
                if other_site == site:
                    self._score[key] = (
                        self._score.get(key, 0.0) + self.strategy.site_boost * weight
                    )
                elif other_function == function:
                    self._score[key] = (
                        self._score.get(key, 0.0) + self.strategy.function_boost * weight
                    )
        return novel_total

    def _seed_round(self, candidates: List[FaultPoint]) -> List[FaultPoint]:
        """Round one: one probe per distinct site, filled by priority rank."""
        chosen: List[FaultPoint] = []
        seen_sites: Set[Tuple[Any, ...]] = set()
        for point in candidates:
            if len(chosen) >= self.strategy.round_size:
                break
            site = _site_key(point)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            chosen.append(point)
        if len(chosen) < self.strategy.round_size:
            picked = {point.key for point in chosen}
            for point in candidates:
                if len(chosen) >= self.strategy.round_size:
                    break
                if point.key not in picked:
                    chosen.append(point)
        return chosen

    def _scored_round(self, candidates: List[FaultPoint]) -> List[FaultPoint]:
        """Later rounds: capped exploitation, breadth-dominant exploration.

        Exploit queue (at most a quarter of the round): boosted points at
        already-probed, unsaturated sites — the neighbors of productive
        probes.  Explore queue (the rest of the round): one representative
        per still-unprobed site — a site's *first* probe is what usually
        unlocks its recovery region — ordered by score then priority rank,
        so function-boosted sites (siblings of productive ones) go first.
        The round is **not** padded when both queues run short: rounds
        shrink as the interesting work drains, and only a fully empty pick
        falls back to a rank-ordered probe round (the cheap confirmation
        sweep ``patience`` counts before stopping).
        """
        score = self._score
        rank = self._rank
        exploit_cap = max(1, self.strategy.round_size // 4)
        exploit = sorted(
            (
                point
                for point in candidates
                if score.get(point.key, 0.0) > 0.0
                and _site_key(point) in self._probed_sites
            ),
            key=lambda point: (-score[point.key], rank[point.key]),
        )[:exploit_cap]
        representatives: Dict[Tuple[Any, ...], FaultPoint] = {}
        for point in candidates:
            site = _site_key(point)
            if site in self._probed_sites:
                continue
            current = representatives.get(site)
            if current is None or (
                -score.get(point.key, 0.0),
                rank[point.key],
            ) < (-score.get(current.key, 0.0), rank[current.key]):
                representatives[site] = point
        explore = sorted(
            representatives.values(),
            key=lambda point: (-score.get(point.key, 0.0), rank[point.key]),
        )
        chosen = exploit + explore[: self.strategy.round_size - len(exploit)]
        if not chosen:
            # Nothing scored and no unprobed sites left: a confirmation
            # round over the highest-priority leftovers, so the plateau
            # stop rests on executed evidence rather than assumption.
            chosen = sorted(candidates, key=lambda point: rank[point.key])[
                : self.strategy.round_size
            ]
        return chosen

    def propose(
        self,
        frontier: Sequence[FaultPoint],
        feedback: Sequence[ProbeFeedback],
    ) -> List[str]:
        if self._done:
            return []
        self._register(frontier)
        novel = self._ingest(feedback)
        if self._rounds > 0:
            # Plateau detection runs on *completed* rounds only; the seed
            # round always executes.
            self._quiet_rounds = 0 if novel > 0 else self._quiet_rounds + 1
            if self._quiet_rounds >= self.strategy.patience:
                self._done = True
                return []
        candidates = [point for point in frontier if point.key not in self._planned]
        if not candidates:
            self._done = True
            return []
        if self._rounds == 0:
            chosen = self._seed_round(candidates)
        else:
            chosen = self._scored_round(candidates)
        self._rounds += 1
        keys = [point.key for point in chosen]
        self._planned.update(keys)
        self._probed_sites.update(_site_key(point) for point in chosen)
        return keys

    def stats(self) -> Dict[str, Any]:
        return {
            "rounds": self._rounds,
            "planned": len(self._planned),
            "new_coverage_probes": self.new_coverage_probes,
            "recovery_lines": len(self._covered),
            "quiet_rounds": self._quiet_rounds,
        }


def _parse_coverage_spec(params: str) -> CoverageGuidedStrategy:
    """Parse ``"coverage[:k=v,...]"`` knobs: round, patience, seed."""
    kwargs: Dict[str, int] = {}
    names = {"round": "round_size", "patience": "patience", "seed": "seed"}
    for part in params.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip().lower()
        if name not in names or not value.strip().lstrip("-").isdigit():
            raise ValueError(f"bad coverage-guided knob {part!r}")
        kwargs[names[name]] = int(value)
    return CoverageGuidedStrategy(**kwargs)


def resolve_strategy(spec) -> ExplorationStrategy:
    """Turn a strategy spec into a strategy instance.

    Accepted specs: ``None``/``"exhaustive"``, ``"boundary"``/
    ``"boundary-sample"``, ``"random"``/``"random-sample"`` (seed 0),
    ``"coverage"``/``"coverage-guided"``/``"adaptive"`` (optionally with
    knobs, e.g. ``"coverage:round=6,patience=3"``), or an
    :class:`ExplorationStrategy` instance (returned unchanged).
    """
    if spec is None:
        return ExhaustiveStrategy()
    if isinstance(spec, ExplorationStrategy):
        return spec
    if isinstance(spec, str):
        normalized = spec.strip().lower()
        head, _, params = normalized.partition(":")
        if head in ("coverage", "coverage-guided", "adaptive"):
            return _parse_coverage_spec(params)
        if params:
            raise ValueError(f"unknown exploration strategy {spec!r}")
        if normalized in ("", "exhaustive", "all"):
            return ExhaustiveStrategy()
        if normalized in ("boundary", "boundary-sample"):
            return BoundarySampleStrategy()
        if normalized in ("random", "random-sample"):
            return RandomSampleStrategy(seed=0)
        raise ValueError(f"unknown exploration strategy {spec!r}")
    raise TypeError(f"unsupported exploration strategy spec {spec!r}")


__all__ = [
    "BoundarySampleStrategy",
    "CoverageGuidedSession",
    "CoverageGuidedStrategy",
    "ExhaustiveStrategy",
    "ExplorationStrategy",
    "PlannerSession",
    "ProbeFeedback",
    "RandomSampleStrategy",
    "SingleRoundSession",
    "resolve_strategy",
]
