"""Fault-space exploration: systematic, resumable injection campaigns.

Where :mod:`repro.core.analysis.scenario_gen` emits one scenario per
suspicious call site, this subsystem makes the *whole* fault space a
first-class object and explores it the way §5/§7.1 envision — exhaustively
when affordable, prunably when not, and restartably always.

**The space** (:mod:`~repro.core.exploration.space`).
:func:`~repro.core.exploration.space.enumerate_fault_space` crosses the
analyzer's classified call sites with every (error return, errno) pair of
the library fault profile; each element is a
:class:`~repro.core.exploration.space.FaultPoint` with a stable key like
``mini_bind:open@0x1a4:rv=-1:errno=ENOENT``.
:func:`~repro.core.exploration.space.priority_order` schedules unchecked
sites before partially checked before checked, and within each band puts
the first occurrence of each novel (function, return value, errno) fault
class ahead of repeats.

**Strategies** (:mod:`~repro.core.exploration.strategy`).  A strategy
plans *which* points to run, deterministically, through a round-based
planner session (``strategy.session().propose(frontier, feedback)``):

* :class:`~repro.core.exploration.strategy.ExhaustiveStrategy` — every
  point exactly once (the full sweep);
* :class:`~repro.core.exploration.strategy.CoverageGuidedStrategy` — the
  *adaptive* planner: rounds steer toward fault points whose neighbors
  unlocked new recovery-code coverage (the table3 metric), stopping at a
  coverage plateau instead of sweeping the whole space (doc/ADAPTIVE.md).

The exhaustive strategy is a single-round planner, bit-identical to its
historical ahead-of-time selection.

**Resume semantics** (:mod:`~repro.core.exploration.store`).  Every
completed run is appended to a JSON-lines
:class:`~repro.core.exploration.store.ResultStore` and flushed before the
next run starts.  On the next ``explore()`` with the same store, completed
point keys are replayed from disk and only the remainder executes; per-run
seeds derive from each point's position in the full schedule, so a resumed
run gets the seed it would have received uninterrupted.  A torn final line
(hard kill mid-write) is discarded — and truncated away before the next
append — so that single run re-executes; corruption anywhere *else* in the
file raises :class:`~repro.core.exploration.store.StoreCorruptError`
instead of silently mis-scheduling completed work.  Records are flushed per
run and fsynced when the store is opened ``durable=True`` (the default).

**Deduplication** (:mod:`~repro.core.exploration.dedup`).  Injection-exposed
failures (a fault was actually injected and the run failed) are grouped by
``(function, errno, outcome kind, stack fingerprint)`` — the
fingerprint hashes the injected call's stack frames — so one underlying bug
reached from many fault points (or across resumed runs) reports once.

Entry points: :meth:`repro.core.controller.controller.LFIController.explore`
for end-to-end use, or :class:`~repro.core.exploration.engine.ExplorationEngine`
directly when the fault space comes from elsewhere::

    from repro import LFIController
    from repro.core.exploration import ExhaustiveStrategy, ResultStore

    controller = LFIController(MiniBindTarget())
    with ResultStore("bind-exploration.jsonl") as store:
        report = controller.explore(
            strategy=ExhaustiveStrategy(),
            store=store,
            seed=7,
            parallelism="processes:4",
        )
    print(report.summary())   # re-running resumes: 0 executed, all replayed
"""

from repro.core.exploration.dedup import (
    FailureDeduplicator,
    UniqueFailure,
    stack_fingerprint,
)
from repro.core.exploration.engine import (
    ExplorationEngine,
    ExplorationOutcome,
    ExplorationReport,
    RoundPlanner,
)
from repro.core.exploration.space import (
    CATEGORY_RANK,
    FaultPoint,
    enumerate_fault_space,
    priority_order,
)
from repro.core.exploration.store import ResultStore, StoreCorruptError, StoredResult
from repro.core.exploration.strategy import (
    CoverageGuidedStrategy,
    ExhaustiveStrategy,
    ExplorationStrategy,
    ProbeFeedback,
    resolve_strategy,
)

__all__ = [
    "CATEGORY_RANK",
    "CoverageGuidedStrategy",
    "ExhaustiveStrategy",
    "ExplorationEngine",
    "ExplorationOutcome",
    "ExplorationReport",
    "ExplorationStrategy",
    "FailureDeduplicator",
    "FaultPoint",
    "ProbeFeedback",
    "ResultStore",
    "RoundPlanner",
    "StoreCorruptError",
    "StoredResult",
    "UniqueFailure",
    "enumerate_fault_space",
    "priority_order",
    "resolve_strategy",
    "stack_fingerprint",
]
