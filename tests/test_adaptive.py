"""Tests for the round-based adaptive exploration core (PR 10).

Covers the tentpole acceptance criteria: the planner-session protocol
(static strategies as behavior-identical single-round planners, the
coverage-guided strategy steering by recovery-line deltas), determinism
of adaptive rounds across execution shapes (serial == pooled ==
distributed, budget-interrupted resumes converge), central round
planning on the fabric, plus the satellite edge cases of
:func:`identify_recovery_regions` (empty maps, overlapping regions, both
error-successor orientations).
"""

import pytest

from repro.core.controller.controller import LFIController
from repro.core.controller.executor import derive_run_seed
from repro.core.exploration import (
    CoverageGuidedStrategy,
    ExhaustiveStrategy,
    FaultPoint,
    ProbeFeedback,
    ResultStore,
    priority_order,
    resolve_strategy,
)
from repro.core.exploration.engine import ExplorationEngine, RoundPlanner
from repro.core.exploration.store import StoredResult
from repro.core.exploration.strategy import ExplorationStrategy, SingleRoundSession
from repro.core.profiler.fault_profile import (
    ErrorSpecification,
    FaultProfile,
    FunctionProfile,
)
from repro.core.profiler.spec_profiles import combined_reference_profile
from repro.coverage.recovery import RecoveryRegion, identify_recovery_regions
from repro.distributed.campaignd import CampaignCoordinator
from repro.distributed.client import CampaignClient
from repro.distributed.spec import CampaignSpec, build_engine
from repro.distributed.worker import CampaignWorker
from repro.minicc import compile_source
from repro.targets.mini_git import MiniGitTarget


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _point(function="read", address=0x10, category="unchecked", rv=-1, errno=None,
           fault_index=0, binary="bin"):
    return FaultPoint(
        binary=binary, function=function, address=address, category=category,
        return_value=rv, errno=errno, fault_index=fault_index,
    )


def _signature(report):
    return [
        (outcome.point.key, outcome.outcome.kind, outcome.outcome.detail,
         outcome.outcome.exit_code, outcome.outcome.location,
         outcome.injections, outcome.fingerprint, outcome.run_seed)
        for outcome in report.outcomes
    ]


class _SweepAllStrategy(ExplorationStrategy):
    """Adaptive oracle: one round proposing the whole space.

    Coverage collection switches on (``adaptive = True``), so its store
    records carry the exhaustive recovery-line union — the reference the
    coverage-guided strategy's plateau is measured against.
    """

    name = "sweep-all"
    adaptive = True

    def select(self, points):
        return list(points)

    def session(self):
        return SingleRoundSession(self)


def _recovery_union(engine, report):
    lines = set()
    for outcome in report.outcomes:
        stored = engine.store.get(engine.run_key(outcome.point))
        if stored is not None:
            lines.update(stored.recovery_lines)
    return lines


# ----------------------------------------------------------------------
# satellite: recovery-region identification edge cases
# ----------------------------------------------------------------------
THEN_BRANCH_SOURCE = """
int main() {
    int fd;
    int n;
    int buffer[8];
    fd = open("/etc/app.conf", 0);
    if (fd < 0) {
        puts("recovering: using defaults");
        return 0;
    }
    n = read(fd, buffer, 4);
    puts("happy: config loaded");
    close(fd);
    return 0;
}
"""

ELSE_SIDE_SOURCE = """
int main() {
    int fd;
    fd = open("/etc/app.conf", 0);
    if (fd >= 0) {
        puts("happy: config loaded");
        close(fd);
        return 0;
    }
    puts("recovering: open failed");
    return 1;
}
"""

UNCHECKED_SOURCE = """
int main() {
    int fd;
    fd = open("/etc/app.conf", 0);
    close(fd);
    return 0;
}
"""


def _lines_containing(source, needle):
    return {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if needle in text
    }


class TestRecoveryRegionEdgeCases:
    def test_empty_profile_yields_empty_map(self):
        binary = compile_source(THEN_BRANCH_SOURCE, name="edge_empty")
        recovery = identify_recovery_regions(binary, FaultProfile("empty"))
        assert recovery.region_count() == 0
        assert recovery.all_lines() == set()
        assert recovery.all_addresses() == set()

    def test_profile_without_error_returns_yields_empty_map(self):
        binary = compile_source(THEN_BRANCH_SOURCE, name="edge_noerr")
        profile = FaultProfile("hollow")
        profile.add(FunctionProfile("open", []))
        profile.add(FunctionProfile("read", []))
        recovery = identify_recovery_regions(binary, profile)
        assert recovery.region_count() == 0

    def test_unchecked_call_sites_yield_no_regions(self):
        binary = compile_source(UNCHECKED_SOURCE, name="edge_unchecked")
        recovery = identify_recovery_regions(
            binary, combined_reference_profile()
        )
        assert recovery.region_count() == 0
        assert recovery.all_lines() == set()

    def test_error_on_then_branch(self):
        # ``if (fd < 0) { recover }``: the error values satisfy the guard,
        # so the recovery region is the then-block — and only it.
        binary = compile_source(THEN_BRANCH_SOURCE, name="edge_then")
        recovery = identify_recovery_regions(
            binary, combined_reference_profile(), functions=["open"]
        )
        assert recovery.region_count() == 1
        covered = {line for _file, line in recovery.all_lines()}
        assert _lines_containing(THEN_BRANCH_SOURCE, "recovering") <= covered
        assert not (_lines_containing(THEN_BRANCH_SOURCE, "happy") & covered)

    def test_error_on_else_side(self):
        # ``if (fd >= 0) { happy }``: the error values *fail* the guard, so
        # the recovery region is the code after the then-block.
        binary = compile_source(ELSE_SIDE_SOURCE, name="edge_else")
        recovery = identify_recovery_regions(
            binary, combined_reference_profile(), functions=["open"]
        )
        assert recovery.region_count() == 1
        covered = {line for _file, line in recovery.all_lines()}
        assert _lines_containing(ELSE_SIDE_SOURCE, "recovering") <= covered
        assert not (_lines_containing(ELSE_SIDE_SOURCE, "happy") & covered)

    def test_overlapping_regions_aggregate_without_double_counting(self):
        binary = compile_source(THEN_BRANCH_SOURCE, name="edge_overlap")
        recovery = identify_recovery_regions(
            binary, combined_reference_profile(), functions=["open"]
        )
        assert recovery.region_count() == 1
        first = recovery.regions[0]
        lines_before = recovery.all_lines()
        addresses_before = recovery.all_addresses()
        # A second region fully overlapping the first (two checks guarding
        # one cleanup block): the aggregates are set unions, not sums.
        recovery.regions.append(
            RecoveryRegion(
                call_site=first.call_site,
                addresses=set(first.addresses),
                lines=set(first.lines),
            )
        )
        assert recovery.region_count() == 2
        assert recovery.all_lines() == lines_before
        assert recovery.all_addresses() == addresses_before


# ----------------------------------------------------------------------
# the planner protocol
# ----------------------------------------------------------------------
def _synthetic_space():
    """Three functions, five sites, twelve points (deterministic keys)."""
    points = []
    for function, address, errnos in (
        ("read", 0x10, (5, 4, 11)),       # EIO, EINTR, EAGAIN
        ("read", 0x20, (5, 4)),
        ("open", 0x30, (2, 13, 24)),      # ENOENT, EACCES, EMFILE
        ("open", 0x40, (2,)),
        ("close", 0x50, (5, 9, 4)),       # EIO, EBADF, EINTR
    ):
        for fault_index, errno in enumerate(errnos):
            points.append(_point(
                function=function, address=address, errno=errno,
                fault_index=fault_index,
            ))
    return points


class TestPlannerProtocol:
    def test_static_strategies_are_single_round_planners(self):
        points = priority_order(_synthetic_space())
        session = ExhaustiveStrategy().session()
        first = session.propose(points, [])
        assert first == [point.key for point in points]
        assert session.propose([], []) == []
        assert session.propose(points, []) == []
        assert resolve_strategy("coverage").adaptive is True

    def test_coverage_session_is_deterministic(self):
        points = priority_order(_synthetic_space())
        strategy = CoverageGuidedStrategy(round_size=4, patience=2)

        def drive(session):
            proposals = []
            feedback = []
            for _round in range(10):
                keys = session.propose(
                    [p for p in points
                     if p.key not in {k for r in proposals for k in r}],
                    feedback,
                )
                proposals.append(keys)
                if not keys:
                    break
                # Scripted feedback: probes of read@0x10 unlock lines,
                # everything else is barren.
                feedback = [
                    ProbeFeedback(
                        key=key,
                        recovery_lines=(f"a.c:{i}",) if "read@0x10" in key else (),
                    )
                    for i, key in enumerate(keys)
                ]
            return proposals

        assert drive(strategy.session()) == drive(strategy.session())

    def test_coverage_session_seed_round_covers_each_site_once(self):
        points = priority_order(_synthetic_space())
        session = CoverageGuidedStrategy(round_size=5).session()
        keys = session.propose(points, [])
        assert len(keys) == 5
        by_key = {point.key: point for point in points}
        sites = {(by_key[k].function, by_key[k].address) for k in keys}
        assert len(sites) == 5  # one probe per distinct site

    def test_coverage_session_stops_at_plateau_patience(self):
        points = priority_order(_synthetic_space())
        session = CoverageGuidedStrategy(round_size=4, patience=2).session()
        rounds = 0
        keys = session.propose(points, [])
        while keys:
            rounds += 1
            assert rounds < 20, "session failed to plateau"
            barren = [ProbeFeedback(key=key) for key in keys]
            remaining = [p for p in points if p.key not in session._planned]
            keys = session.propose(remaining, barren)
        # Seed round + at most patience quiet confirmation rounds — never
        # the whole 12-point space.
        stats = session.stats()
        assert stats["planned"] < len(points)
        assert stats["quiet_rounds"] >= 2

    def test_round_planner_feedback_is_arrival_order_invariant(self):
        target = MiniGitTarget()
        points = LFIController(target).fault_space(functions=["close", "malloc"])
        strategy = "coverage:round=4,patience=2"

        def next_round_after(order):
            engine = ExplorationEngine(
                target, strategy=strategy, store=ResultStore(),
                seed=7, workload="status",
            )
            planner = RoundPlanner(engine, points)
            first = planner.next_round()
            for position in order:
                index, point = first[position]
                stored = StoredResult(
                    key=engine.run_key(point), index=index,
                    scenario=f"s{index}", function=point.function,
                    return_value=point.return_value, errno=point.errno,
                    category=point.category, workload="status",
                    outcome="normal",
                    run_seed=derive_run_seed(engine.seed, index),
                    recovery_lines=[f"git.c:{index}"] if index % 2 else [],
                )
                planner.record_result(index, point, stored, resumed=False)
            assert planner.current is None  # round closed
            return [point.key for _idx, point in planner.next_round()]

        forward = next_round_after(range(4))
        backward = next_round_after(range(3, -1, -1))
        assert forward == backward and forward


# ----------------------------------------------------------------------
# adaptive exploration end to end (mini_git)
# ----------------------------------------------------------------------
class CountingGitTarget:
    """MiniGitTarget wrapper counting workload executions."""

    def __init__(self):
        self._inner = MiniGitTarget()
        self.name = self._inner.name
        self.runs = 0

    def binary(self):
        return self._inner.binary()

    def workloads(self):
        return self._inner.workloads()

    def run(self, request):
        self.runs += 1
        return self._inner.run(request)


class TestAdaptiveExploration:
    def _engine(self, target, store, parallelism=None,
                strategy="coverage:round=6,patience=1"):
        return ExplorationEngine(
            target, strategy=strategy, store=store, seed=7,
            workload="status", parallelism=parallelism,
        )

    def test_serial_and_pooled_adaptive_runs_are_bit_identical(self):
        target = MiniGitTarget()
        points = LFIController(target).fault_space(functions=["close", "malloc"])
        serial = self._engine(MiniGitTarget(), ResultStore()).explore(points)
        pooled = self._engine(
            MiniGitTarget(), ResultStore(), parallelism="processes:2"
        ).explore(points)
        assert _signature(serial) == _signature(pooled)
        assert serial.planner == pooled.planner
        assert serial.rounds == pooled.rounds
        assert len(serial.rounds) > 1  # genuinely multi-round

    def test_budget_interrupted_resume_converges_without_reruns(self):
        target = MiniGitTarget()
        points = LFIController(target).fault_space(functions=["close", "malloc"])
        uninterrupted = self._engine(MiniGitTarget(), ResultStore()).explore(points)

        counting = CountingGitTarget()
        engine = self._engine(counting, ResultStore())
        while True:
            report = engine.explore(points, max_runs=3)
            if report.complete and report.executed == 0:
                break
        assert _signature(report) == _signature(uninterrupted)
        assert counting.runs == uninterrupted.executed  # nothing ran twice
        assert report.resumed == uninterrupted.executed

    def test_adaptive_reaches_exhaustive_recovery_coverage_with_fewer_probes(self):
        target = MiniGitTarget()
        points = LFIController(target).fault_space()

        sweep_engine = ExplorationEngine(
            MiniGitTarget(), strategy=_SweepAllStrategy(), store=ResultStore(),
            seed=7, workload="status",
        )
        sweep = sweep_engine.explore(points)
        exhaustive_lines = _recovery_union(sweep_engine, sweep)
        assert exhaustive_lines  # mini_git has recovery code to find

        adaptive_engine = self._engine(MiniGitTarget(), ResultStore())
        adaptive = adaptive_engine.explore(points)
        adaptive_lines = _recovery_union(adaptive_engine, adaptive)

        assert adaptive_lines == exhaustive_lines
        assert adaptive.executed <= 0.6 * sweep.executed, (
            f"adaptive ran {adaptive.executed} of {sweep.executed} probes"
        )
        assert adaptive.planner["new_coverage_probes"] > 0

    def test_static_strategy_reports_exactly_one_round(self):
        target = MiniGitTarget()
        points = LFIController(target).fault_space(functions=["close"])
        engine = ExplorationEngine(
            target, strategy="exhaustive", store=ResultStore(),
            seed=7, workload="status",
        )
        report = engine.explore(points)
        assert len(report.rounds) == 1
        assert report.planner["adaptive"] is False
        # Static records must stay byte-identical to PR 9: no
        # recovery_lines field serialized.
        for outcome in report.outcomes:
            stored = engine.store.get(engine.run_key(outcome.point))
            assert stored.recovery_lines == []
            assert "recovery_lines" not in stored.to_dict()


# ----------------------------------------------------------------------
# distributed round planning
# ----------------------------------------------------------------------
ADAPTIVE_SPEC_KWARGS = dict(
    target="mini_git", workload="status", seed=7,
    functions=["close", "malloc"], strategy="coverage:round=4,patience=1",
)


class TestDistributedAdaptive:
    def _fabric(self, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("durable_stores", False)
        coordinator = CampaignCoordinator(**kwargs)
        return coordinator, coordinator.start()

    def test_two_worker_adaptive_campaign_is_bit_identical_to_serial(
        self, tmp_path
    ):
        engine, points = build_engine(
            CampaignSpec(**ADAPTIVE_SPEC_KWARGS), store=ResultStore()
        )
        report = engine.explore(points)
        reference = [
            (engine.run_key(o.point), o.outcome.kind.value, o.outcome.detail,
             o.injections, o.fingerprint, o.run_seed)
            for o in report.outcomes
        ]
        assert len(report.rounds) > 1

        coordinator, address = self._fabric(shard_size=3)
        client = CampaignClient(address)
        workers = [
            CampaignWorker(address, worker_id=f"w{i}") for i in range(2)
        ]
        try:
            reply = client.submit(CampaignSpec(
                store_path=str(tmp_path / "adaptive.jsonl"),
                **ADAPTIVE_SPEC_KWARGS,
            ))
            worked = True
            while worked:
                worked = False
                for worker in workers:
                    worked |= worker.run_once()
            status = client.status(reply["campaign_id"])
            records = client.results(reply["campaign_id"])
        finally:
            client.close()
            for worker in workers:
                worker.close()
            coordinator.stop()

        fabric = [
            (r["key"], r["outcome"], r["detail"], r["injections"],
             r["fingerprint"], r["run_seed"])
            for r in records
        ]
        assert status["state"] == "complete"
        assert fabric == reference
        planner = status["planner"]
        assert planner["adaptive"] is True
        assert planner["rounds"] == len(report.rounds)
        assert planner["new_coverage_probes"] == report.planner["new_coverage_probes"]
