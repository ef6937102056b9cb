"""Tests for the fault-space exploration engine (PR 2 tentpole).

Covers the acceptance criteria: exhaustive coverage of every (unchecked
site x errno) pair exactly once on mini_bind, zero re-runs after an
interrupted exploration resumes from the result store, and bit-identical
results between serial and parallel explorations with the same seed.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.analysis.scenario_gen import fault_candidates
from repro.core.controller.controller import LFIController
from repro.core.controller.monitor import OutcomeKind, RunResult
from repro.core.exploration import (
    BoundarySampleStrategy,
    ExhaustiveStrategy,
    FailureDeduplicator,
    FaultPoint,
    RandomSampleStrategy,
    ResultStore,
    StoredResult,
    enumerate_fault_space,
    priority_order,
    resolve_strategy,
    stack_fingerprint,
)
from repro.core.exploration.engine import ExplorationEngine, RoundPlanner
from repro.common.frames import StackFrame
from repro.core.controller.monitor import Outcome
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_mysql import MiniMySQLTarget


def _point(function="read", address=0x10, category="unchecked", rv=-1, errno=None,
           fault_index=0, binary="bin"):
    return FaultPoint(
        binary=binary, function=function, address=address, category=category,
        return_value=rv, errno=errno, fault_index=fault_index,
    )


class CountingBindTarget:
    """MiniBindTarget wrapper counting workload executions (resume checks)."""

    def __init__(self):
        self._inner = MiniBindTarget()
        self.name = self._inner.name
        self.runs = 0

    def binary(self):
        return self._inner.binary()

    def workloads(self):
        return self._inner.workloads()

    def run(self, request):
        self.runs += 1
        return self._inner.run(request)


#: The event :class:`GatedTarget`'s slow runs wait on.  A test sets it to
#: a fork-inheritable event before its pool forks.
_RELEASE = None


class GatedTarget:
    """A target whose ``"slow"`` scenario blocks until :data:`_RELEASE` is
    set (module-level, hence picklable)."""

    name = "gated"

    def workloads(self):
        return ["w"]

    def binary(self):
        return None

    def run(self, request):
        if request.scenario.name == "slow":
            _RELEASE.wait(timeout=30)
        return RunResult(outcome=Outcome(kind=OutcomeKind.NORMAL))


def _signature(report):
    return [
        (outcome.point.key, outcome.outcome.kind, outcome.outcome.detail,
         outcome.outcome.exit_code, outcome.outcome.location,
         outcome.injections, outcome.fingerprint, outcome.run_seed)
        for outcome in report.outcomes
    ]


# ----------------------------------------------------------------------
# space enumeration and priority ordering
# ----------------------------------------------------------------------
class TestFaultSpace:
    def test_exhaustive_covers_every_unchecked_site_errno_pair_once(self):
        controller = LFIController(MiniBindTarget())
        analysis = controller.analyze_target()
        profile = controller.profile_libraries()

        expected = set()
        for function, classification in analysis.classifications.items():
            for fault in fault_candidates(profile.function(function)):
                for site in classification.unchecked:
                    expected.add((function, site.address, fault["return_value"], fault["errno"]))
                for site in classification.partially_checked:
                    expected.add((function, site.address, fault["return_value"], fault["errno"]))

        points = controller.fault_space()
        covered = [(p.function, p.address, p.return_value, p.errno) for p in points]
        assert len(covered) == len(set(covered)), "no pair may appear twice"
        assert set(covered) == expected, "every pair must appear exactly once"

    def test_point_keys_are_stable_and_unique(self):
        points = LFIController(MiniBindTarget()).fault_space()
        keys = [point.key for point in points]
        assert len(keys) == len(set(keys))
        again = LFIController(MiniBindTarget()).fault_space()
        assert keys == [point.key for point in again]

    def test_include_flags_grow_the_space(self):
        controller = LFIController(MiniBindTarget())
        base = controller.fault_space(include_partial=False, include_checked=False)
        with_checked = controller.fault_space(include_checked=True)
        assert len(with_checked) > len(base)
        assert {p.category for p in base} == {"unchecked"}
        assert "checked" in {p.category for p in with_checked}

    def test_python_level_target_raises(self):
        with pytest.raises(ValueError):
            LFIController(MiniMySQLTarget()).fault_space()

    def test_priority_unchecked_before_partial_before_checked(self):
        points = [
            _point(category="checked", address=1),
            _point(category="partial", address=2),
            _point(category="unchecked", address=3),
        ]
        ordered = priority_order(points)
        assert [p.category for p in ordered] == ["unchecked", "partial", "checked"]

    def test_priority_novel_fault_classes_first(self):
        # Three sites of one function x two errnos: the first occurrence of
        # each (function, rv, errno) class outranks every repeat.
        points = []
        for address in (0x30, 0x10, 0x20):
            for fault_index, errno in enumerate((5, 11)):
                points.append(_point(address=address, errno=errno, fault_index=fault_index))
        ordered = priority_order(points)
        first_classes = [(p.function, p.return_value, p.errno) for p in ordered[:2]]
        assert len(set(first_classes)) == 2, "both errno classes probed before repeats"
        assert [p.address for p in ordered[:2]] == [0x10, 0x10]
        # Determinism: same input (any order) -> same schedule.
        assert priority_order(list(reversed(points))) == ordered


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def _mixed_points(self):
        points = []
        for address in (0x10, 0x20):
            for fault_index in range(4):
                points.append(_point(address=address, errno=fault_index + 2,
                                     fault_index=fault_index))
        return points

    def test_exhaustive_keeps_everything(self):
        points = self._mixed_points()
        assert ExhaustiveStrategy().select(points) == points

    def test_boundary_keeps_first_and_last_fault_per_site(self):
        selected = BoundarySampleStrategy().select(self._mixed_points())
        by_site = {}
        for point in selected:
            by_site.setdefault(point.address, []).append(point.fault_index)
        assert by_site == {0x10: [0, 3], 0x20: [0, 3]}

    def test_boundary_degenerates_to_exhaustive_on_small_profiles(self):
        points = [_point(fault_index=0), _point(address=0x20, fault_index=0)]
        assert BoundarySampleStrategy().select(points) == points

    def test_random_sample_is_seed_deterministic_and_order_preserving(self):
        points = self._mixed_points()
        strategy = RandomSampleStrategy(seed=5, fraction=0.5)
        first = strategy.select(points)
        assert first == RandomSampleStrategy(seed=5, fraction=0.5).select(points)
        assert len(first) == 4
        indices = [points.index(point) for point in first]
        assert indices == sorted(indices), "selection preserves priority order"
        different = any(
            RandomSampleStrategy(seed=seed, fraction=0.5).select(points) != first
            for seed in range(6, 16)
        )
        assert different, "the seed must actually steer the sample"

    def test_random_sample_count_and_validation(self):
        points = self._mixed_points()
        assert len(RandomSampleStrategy(seed=0, count=3).select(points)) == 3
        assert len(RandomSampleStrategy(seed=0, count=99).select(points)) == len(points)
        assert len(RandomSampleStrategy(seed=0, fraction=0.01).select(points)) == 1
        assert RandomSampleStrategy(seed=0).select([]) == []
        with pytest.raises(ValueError):
            RandomSampleStrategy(seed=0, fraction=1.5)
        with pytest.raises(ValueError):
            RandomSampleStrategy(seed=0, count=0)

    def test_resolve_strategy_specs(self):
        assert isinstance(resolve_strategy(None), ExhaustiveStrategy)
        assert isinstance(resolve_strategy("exhaustive"), ExhaustiveStrategy)
        assert isinstance(resolve_strategy("boundary"), BoundarySampleStrategy)
        assert isinstance(resolve_strategy("random"), RandomSampleStrategy)
        strategy = BoundarySampleStrategy()
        assert resolve_strategy(strategy) is strategy
        with pytest.raises(ValueError):
            resolve_strategy("clever")
        with pytest.raises(TypeError):
            resolve_strategy(3)


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------
def _stored(key, outcome="normal", index=0):
    return StoredResult(
        key=key, index=index, scenario=f"s-{key}", function="read",
        return_value=-1, errno=5, category="unchecked", workload="w",
        outcome=outcome,
    )


class TestResultStore:
    def test_persist_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.append(_stored("a"))
            store.append(_stored("b", outcome="crash", index=1))
        reloaded = ResultStore(str(path))
        assert reloaded.completed_keys() == {"a", "b"}
        assert reloaded.get("b").outcome_kind is OutcomeKind.CRASH
        assert [result.key for result in reloaded.results()] == ["a", "b"]
        assert "a" in reloaded and len(reloaded) == 2

    def test_duplicate_appends_are_idempotent(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.append(_stored("a"))
            store.append(_stored("a", outcome="crash"))
            assert store.get("a").outcome == "normal"
        assert len(ResultStore(str(path))) == 1

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.append(_stored("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "outcome": "cra')  # killed mid-write
        reloaded = ResultStore(str(path))
        assert reloaded.completed_keys() == {"a"}

    def test_memory_store_has_no_file(self):
        store = ResultStore()
        store.append(_stored("a"))
        assert store.path is None and len(store) == 1

    def test_stored_outcome_keeps_exit_code_and_location(self, tmp_path):
        path = tmp_path / "store.jsonl"
        result = _stored("a", outcome="crash")
        result.exit_code = 139
        result.location = "httpd.c:42"
        with ResultStore(str(path)) as store:
            store.append(result)
        restored = ResultStore(str(path)).get("a").to_outcome()
        assert restored.exit_code == 139 and restored.location == "httpd.c:42"
        assert restored.kind is OutcomeKind.CRASH

    def test_unknown_fields_round_trip_via_extra(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            payload = _stored("a").to_dict()
            payload["future_field"] = 42
            handle.write(json.dumps(payload) + "\n")
        reloaded = ResultStore(str(path))
        assert reloaded.get("a").extra["future_field"] == 42


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_json_objects = st.dictionaries(st.text(max_size=6), _json_values, max_size=4)
_stored_results = st.builds(
    StoredResult,
    key=st.text(max_size=12),
    index=st.integers(min_value=0),
    scenario=st.text(max_size=8),
    function=st.text(max_size=8),
    return_value=st.integers(),
    errno=st.none() | st.integers(min_value=0, max_value=200),
    category=st.sampled_from(["unchecked", "checked"]),
    workload=st.text(max_size=8),
    outcome=st.sampled_from([kind.value for kind in OutcomeKind]),
    detail=st.text(max_size=12),
    exit_code=st.integers(min_value=-255, max_value=255),
    location=st.text(max_size=8),
    injections=st.integers(min_value=0, max_value=50),
    fingerprint=st.text(max_size=8),
    run_seed=st.none() | st.integers(min_value=0, max_value=2**63),
    fault_class=st.text(max_size=8),
    fault_params=_json_objects,
    calls=st.dictionaries(st.text(max_size=6), st.integers(min_value=0), max_size=5),
    recovery_lines=st.lists(st.text(max_size=10), max_size=3),
    extra=_json_objects,
)


def _scribble(value):
    """Mutate every dict and list inside *value*, innermost first."""
    if isinstance(value, dict):
        for item in value.values():
            _scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribbled")


class TestStoredResultDict:
    @given(_stored_results)
    def test_to_dict_is_the_asdict_payload_and_detached(self, record):
        expected = dataclasses.asdict(record)
        if not record.recovery_lines:
            del expected["recovery_lines"]
        payload = record.to_dict()
        # ``asdict`` names every dataclass field, in order, so a field
        # added to the dataclass but not to ``to_dict`` fails here.
        assert payload == expected
        assert list(payload) == list(expected)
        assert StoredResult.from_dict(payload) == record
        assert StoredResult.from_dict(json.loads(json.dumps(payload))) == record
        before = copy.deepcopy(record)
        for value in payload.values():
            _scribble(value)
        assert record == before


# ----------------------------------------------------------------------
# failure dedup
# ----------------------------------------------------------------------
class TestDeduplication:
    def test_same_stack_same_class_collapses(self):
        stack = [StackFrame(module="m", function="f", line=3)]
        fingerprint = stack_fingerprint(stack)
        dedup = FailureDeduplicator()
        crash = Outcome(kind=OutcomeKind.CRASH, detail="boom")
        assert dedup.add("malloc", 12, crash, fingerprint, scenario="s1") is True
        assert dedup.add("malloc", 12, crash, fingerprint, scenario="s2") is False
        assert len(dedup) == 1
        unique = dedup.unique()[0]
        assert unique.occurrences == 2 and unique.scenarios == ["s1", "s2"]

    def test_distinct_dimension_changes_are_novel(self):
        stack_a = stack_fingerprint([StackFrame(module="m", function="f", line=3)])
        stack_b = stack_fingerprint([StackFrame(module="m", function="g", line=9)])
        crash = Outcome(kind=OutcomeKind.CRASH)
        abort = Outcome(kind=OutcomeKind.ABORT)
        dedup = FailureDeduplicator()
        assert dedup.add("malloc", 12, crash, stack_a)
        assert dedup.add("open", 12, crash, stack_a)      # function differs
        assert dedup.add("malloc", 2, crash, stack_a)     # errno differs
        assert dedup.add("malloc", 12, abort, stack_a)    # outcome differs
        assert dedup.add("malloc", 12, crash, stack_b)    # stack differs
        assert len(dedup) == 5

    def test_fingerprint_is_stable_and_ignores_offsets(self):
        frames = [StackFrame(module="m", function="f", offset=0x10, line=3)]
        moved = [StackFrame(module="m", function="f", offset=0x99, line=3)]
        assert stack_fingerprint(frames) == stack_fingerprint(moved)
        assert stack_fingerprint([], fallback="loc") == stack_fingerprint([], fallback="loc")
        assert stack_fingerprint([]) == ""


# ----------------------------------------------------------------------
# the engine: resume, determinism, dedup across runs
# ----------------------------------------------------------------------
class TestExplorationEngine:
    def test_interrupted_exploration_resumes_with_zero_reruns(self, tmp_path):
        path = str(tmp_path / "bind.jsonl")

        # Phase 1: exploration "killed" after 10 completed scenario runs.
        target = CountingBindTarget()
        with ResultStore(path) as store:
            first = LFIController(target).explore(store=store, seed=7, max_runs=10)
        assert first.executed == 10 and target.runs == 10
        assert not first.complete and first.pending > 0

        # Phase 2: a fresh process resumes from the store and only runs the
        # remainder — none of the 10 completed scenarios re-runs.
        target = CountingBindTarget()
        with ResultStore(path) as store:
            resumed = LFIController(target).explore(store=store, seed=7)
        assert resumed.resumed == 10
        assert target.runs == resumed.executed == resumed.selected - 10
        assert resumed.complete

        # Phase 3: everything is in the store; nothing at all re-runs.
        target = CountingBindTarget()
        with ResultStore(path) as store:
            replayed = LFIController(target).explore(store=store, seed=7)
        assert target.runs == 0 and replayed.executed == 0
        assert replayed.resumed == replayed.selected
        assert len(ResultStore(path)) == replayed.selected

        # The resumed exploration is indistinguishable from an uninterrupted
        # one (same outcomes, same seeds, same fingerprints).
        uninterrupted = LFIController(MiniBindTarget()).explore(seed=7)
        assert _signature(replayed) == _signature(uninterrupted)

    def test_parallel_results_bit_identical_to_serial(self):
        serial = LFIController(MiniBindTarget()).explore(seed=11)
        pooled = LFIController(MiniBindTarget(), parallelism="processes:4").explore(seed=11)
        assert _signature(pooled) == _signature(serial)
        assert [f.describe() for f in pooled.unique_failures] == [
            f.describe() for f in serial.unique_failures
        ]

    def test_exploration_finds_binds_planted_unchecked_bugs(self):
        report = LFIController(MiniBindTarget()).explore(seed=7)
        assert report.complete
        # Exhaustive: every enumerated point runs, and runs exactly once.
        keys = [outcome.point.key for outcome in report.outcomes]
        assert len(set(keys)) == len(keys) == report.selected == report.space_size
        failing = {failure.function for failure in report.unique_failures}
        assert "malloc" in failing
        assert "xmlNewTextWriterDoc" in failing
        candidates = report.to_bug_candidates()
        assert all(candidate.kind.is_high_impact for candidate in candidates)
        assert {candidate.function for candidate in candidates} >= {"malloc"}
        assert "exploration of mini_bind" in report.summary()

    def test_dedup_spans_resumed_and_fresh_runs(self, tmp_path):
        path = str(tmp_path / "bind.jsonl")
        controller = LFIController(MiniBindTarget())
        with ResultStore(path) as store:
            partial = controller.explore(store=store, seed=7, max_runs=25)
        with ResultStore(path) as store:
            resumed = controller.explore(store=store, seed=7)
        full = LFIController(MiniBindTarget()).explore(seed=7)
        assert partial.selected == resumed.selected
        assert [f.key for f in resumed.unique_failures] == [f.key for f in full.unique_failures]

    def test_resume_with_wrong_seed_is_rejected(self, tmp_path):
        path = str(tmp_path / "bind.jsonl")
        with ResultStore(path) as store:
            LFIController(MiniBindTarget()).explore(store=store, seed=7, max_runs=5)
        with pytest.raises(ValueError, match="seed mismatch"), ResultStore(path) as store:
            LFIController(MiniBindTarget()).explore(store=store, seed=8)
        # The mismatch is caught before anything executes: store unchanged.
        assert len(ResultStore(path)) == 5
        # The original seed still resumes cleanly.
        with ResultStore(path) as store:
            resumed = LFIController(MiniBindTarget()).explore(store=store, seed=7)
        assert resumed.resumed == 5 and resumed.complete

    def test_functions_narrow_a_precomputed_analysis(self):
        controller = LFIController(MiniBindTarget())
        analysis = controller.analyze_target()
        narrowed = controller.fault_space(analysis=analysis, functions=["malloc"])
        assert narrowed and {point.function for point in narrowed} == {"malloc"}
        report = controller.explore(analysis=analysis, functions=["malloc"], seed=7)
        assert {o.point.function for o in report.outcomes} == {"malloc"}

    def test_strategy_and_seed_reach_the_engine(self):
        report = LFIController(MiniBindTarget()).explore(
            strategy=RandomSampleStrategy(seed=3, fraction=0.2), seed=9
        )
        assert 0 < report.selected < report.space_size
        assert report.strategy.startswith("random-sample")
        again = LFIController(MiniBindTarget()).explore(
            strategy=RandomSampleStrategy(seed=3, fraction=0.2), seed=9
        )
        assert _signature(again) == _signature(report)

    def test_store_is_written_incrementally(self, tmp_path):
        # A crash mid-campaign must only lose in-flight work: when the 6th
        # run blows up the harness itself, the first 5 are already on disk.
        path = str(tmp_path / "bind.jsonl")

        class DyingBindTarget(CountingBindTarget):
            def run(self, request):
                if self.runs >= 5:
                    raise RuntimeError("harness killed")
                return super().run(request)

        with pytest.raises(RuntimeError), ResultStore(path) as store:
            LFIController(DyingBindTarget()).explore(store=store, seed=7)
        assert len(ResultStore(path)) == 5

        target = CountingBindTarget()
        with ResultStore(path) as store:
            resumed = LFIController(target).explore(store=store, seed=7)
        assert resumed.resumed == 5 and target.runs == resumed.selected - 5
        assert _signature(resumed) == _signature(LFIController(MiniBindTarget()).explore(seed=7))

    def test_non_injected_failures_are_not_bug_candidates(self, tmp_path):
        # Parity with build_bug_report: a run that fails while the fault was
        # never injected is a workload problem, not an exploration finding.
        class BrokenWorkloadTarget(CountingBindTarget):
            def run(self, request):
                result = super().run(request)
                if result.log is None or result.log.injection_count == 0:
                    result = dataclasses.replace(
                        result, outcome=Outcome(kind=OutcomeKind.CRASH, detail="flaky harness")
                    )
                return result

        report = LFIController(BrokenWorkloadTarget()).explore(seed=7)
        non_injected_failures = [
            o for o in report.outcomes if o.outcome.is_failure and o.injections == 0
        ]
        assert non_injected_failures, "fixture should produce non-injected failures"
        assert all(f.occurrences > 0 for f in report.unique_failures)
        flaky = [f for f in report.unique_failures if f.detail == "flaky harness"]
        assert flaky == [], "non-injected failures must not be deduplicated as findings"
        assert all(c.description != "flaky harness" for c in report.to_bug_candidates())

    def test_pool_backends_checkpoint_in_completion_order(self, monkeypatch):
        # A slow head-of-line batch must not delay checkpointing of finished
        # runs: with two workers, the fast batch arrives while the slow one
        # still waits.
        import multiprocessing

        from repro.core.controller.executor import ProcessPoolBackend
        from repro.core.controller.prefix import iter_shared_runs
        from repro.core.scenario.builder import ScenarioBuilder

        release = multiprocessing.get_context("fork").Event()
        monkeypatch.setitem(globals(), "_RELEASE", release)
        entries = [
            (index, ScenarioBuilder(name).build(), None)
            for index, name in enumerate(["slow", "fast", "fast"])
        ]
        seen = []
        # The plan packs runs 0 and 2 into one batch and run 1 into the other.
        with ProcessPoolBackend(2) as backend:
            for index, _result in iter_shared_runs(
                GatedTarget(), "w", entries, backend, share=False
            ):
                seen.append(index)
                if len(seen) == 1:
                    assert seen == [1]
                    release.set()
        assert sorted(seen) == [0, 1, 2]

    def test_engine_schedule_is_priority_ordered(self):
        controller = LFIController(MiniBindTarget())
        points = controller.fault_space(include_checked=True)
        engine = ExplorationEngine(MiniBindTarget())
        schedule = [point for _, point in RoundPlanner(engine, points).next_round()]
        assert len(schedule) == len(points)
        ranks = [{"unchecked": 0, "partial": 1, "checked": 2}[p.category] for p in schedule]
        assert ranks == sorted(ranks)
