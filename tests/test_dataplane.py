"""Differential tests for the dataplane execution core.

Three fast paths, each held bit-identical to its one slow oracle:

* **superclosure block batching** — the ``compiled`` engine fuses
  straight-line basic blocks into generated functions (dead CMP/Jcc flag
  work elided), also when it binds code another process generated and
  marshalled, as pool children do; oracle: the ``reference`` engine
  (decode-as-you-go);
* **coverage-off hot loops** — runs without a tracker/trace skip per-step
  bookkeeping entirely; oracles: the instrumented loop and the
  ``reference`` engine;
* **run-to-completion group scheduling** — pooled shared campaigns drain
  one batch of prefix groups per worker; oracles: the serial shared and
  plain paths.

Every snapshot-backed, prefix-shared or pooled run publishes its final OS
as a detached :class:`~repro.oslib.os_model.LazyOSClone`; the tests hold it
equal to the OS a serial ``snapshots=False`` campaign publishes, memo hits
included.
"""

import pytest

from repro.core.controller.campaign import TestCampaign as Campaign
from repro.core.controller.controller import LFIController
from repro.core.controller.executor import (
    GroupBatchTask,
    ProcessPoolBackend,
    SerialBackend,
    execute_group,
    execute_group_batch,
)
from repro.core.controller.memo import SuffixMemo
from repro.core.controller.prefix import build_group_tasks
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.exploration.engine import ExplorationEngine
from repro.core.profiler.cache import artifact_cache_stats
from repro.core.scenario.builder import ScenarioBuilder
from repro.coverage.tracker import CoverageTracker
from repro.minicc import compile_source
from repro.oslib.os_model import SimOS
from repro.targets.base import default_snapshots
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
from repro.targets.pbft import PBFTCheckpointTarget
from repro.vm import dispatch
from repro.vm.dispatch import compiled_blocks, marshalled_block_code
from repro.vm.machine import Machine, resolve_engine
from repro.vm.outcome import ExitKind

COMPILED_TARGETS = (MiniGitTarget, MiniBindTarget, PBFTCheckpointTarget)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _status_tuple(status):
    return (
        status.kind, status.code, status.reason, status.steps,
        status.pc, status.source, status.stdout, status.stderr,
    )


def _observe(binary, engine, scenario=None, max_steps=200_000, coverage=True,
             trace=True):
    """Run *binary* under one engine and capture every observable output."""
    os = SimOS("dataplane")
    gate = make_gate(scenario) if scenario is not None else None
    tracker = CoverageTracker() if coverage else None
    machine = Machine(binary, os=os, gate=gate, coverage=tracker,
                      engine=engine, max_steps=max_steps)
    if trace:
        machine.enable_trace()
    status = machine.run()
    observed = {
        "status": _status_tuple(status),
        "steps": machine.steps,
        "pc": machine.pc,
        "calls": dict(machine.library_call_counts),
        "stdout": os.stdout_text(),
    }
    if trace:
        observed["trace"] = list(machine.trace)
    if tracker is not None:
        observed["coverage"] = {
            a: tracker.hit_count(a) for a in tracker.covered_addresses
        }
    if gate is not None:
        observed["log"] = [record.to_dict() for record in gate.log.records]
    return observed


def assert_all_engines_agree(source, **kwargs):
    binary = compile_source(source, name="dataplane-diff")
    reference = _observe(binary, "reference", **kwargs)
    assert _observe(binary, "compiled", **kwargs) == reference
    return reference


def _campaign_observables(campaign):
    return [
        {
            "scenario": outcome.scenario.name,
            "kind": outcome.outcome.kind,
            "detail": outcome.outcome.detail,
            "exit_code": outcome.outcome.exit_code,
            "location": outcome.outcome.location,
            "injections": outcome.result.injections,
            "log": [record.to_dict() for record in outcome.result.log.records],
        }
        for outcome in campaign.outcomes
    ]


def _fault_space_scenarios(target):
    controller = LFIController(target)
    analysis = controller.analyze_target()
    points = controller.fault_space(analysis=analysis, include_checked=True)
    return [point.scenario() for point in points]


# ----------------------------------------------------------------------
# the differential corpus
# ----------------------------------------------------------------------
ARITHMETIC_SOURCE = r"""
    int accumulate(int n) {
        int total;
        int i;
        total = 0;
        i = 0;
        while (i < n) {
            if (i % 3 == 0) {
                total = total + i * 2;
            } else {
                total = total - 1;
            }
            i = i + 1;
        }
        return total;
    }
    int main() {
        return accumulate(50) % 10;
    }
"""

#: The divide sits mid straight-line block.
DIVISION_TRAP_SOURCE = r"""
    int main() {
        int a;
        int b;
        int c;
        a = 7;
        b = a - 7;
        c = a / b;
        return c;
    }
"""

NULL_STORE_TRAP_SOURCE = r"""
    int main() {
        int p;
        int v;
        p = 0;
        v = 41;
        *p = v;
        return 0;
    }
"""

#: A loop whose body fuses into one block, and budgets landing in every
#: phase of it.
HANG_SOURCE = r"""
    int main() {
        int i;
        i = 0;
        while (i < 100000) {
            i = i + 1;
        }
        return i;
    }
"""
HANG_BUDGETS = (7, 8, 9, 10, 11, 12, 13, 50, 51)

FAULTS_SOURCE = r"""
    int main() {
        int fd;
        int p;
        int buffer[16];
        p = malloc(8);
        if (p == 0) {
            puts("oom");
        }
        fd = open("/tmp/x", 64);
        read(fd, buffer, 4);
        if (read(fd, buffer, 4) < 0) {
            puts("read failed");
            return 2;
        }
        close(fd);
        return 0;
    }
"""


FAULTS_SCENARIO = (
    ScenarioBuilder("dataplane-faults")
    .trigger("first_malloc", "CallCountTrigger", nth=1)
    .inject("malloc", ["first_malloc"], return_value=0, errno="ENOMEM")
    .trigger("second_read", "CallCountTrigger", nth=2)
    .inject("read", ["second_read"], return_value=-1, errno="EIO")
    .build()
)


#: Every corpus run: ``pytest.param(source, run keyword arguments)``.
DIFFERENTIAL_CORPUS = [
    pytest.param(ARITHMETIC_SOURCE, {}, id="arithmetic"),
    pytest.param(DIVISION_TRAP_SOURCE, {}, id="division-trap"),
    pytest.param(NULL_STORE_TRAP_SOURCE, {}, id="null-store-trap"),
    *(
        pytest.param(HANG_SOURCE, {"max_steps": budget}, id=f"hang-{budget}")
        for budget in HANG_BUDGETS
    ),
    pytest.param(FAULTS_SOURCE, {"scenario": FAULTS_SCENARIO}, id="faults"),
]


# ----------------------------------------------------------------------
# superclosure block batching vs the reference engine
# ----------------------------------------------------------------------
class TestSuperclosureParity:
    def test_straight_line_arithmetic_and_branches(self):
        reference = assert_all_engines_agree(ARITHMETIC_SOURCE)
        assert reference["status"][0].value == "error-exit" or reference["status"][1] >= 0

    def test_trap_mid_block_division_by_zero(self):
        # The superclosure must attribute the trap to the exact instruction
        # (same pc, same steps, same partial trace/coverage as executing
        # step by step).
        assert_all_engines_agree(DIVISION_TRAP_SOURCE)

    def test_trap_mid_block_null_store(self):
        assert_all_engines_agree(NULL_STORE_TRAP_SOURCE)

    def test_max_steps_expires_mid_block(self):
        # Wherever the budget lands, the hang must report identical
        # pc/steps on both engines.
        binary = compile_source(HANG_SOURCE, name="dataplane-hang")
        for budget in HANG_BUDGETS:
            reference = _observe(binary, "reference", max_steps=budget)
            assert _observe(binary, "compiled", max_steps=budget) == reference, budget

    def test_injected_faults_identical(self):
        assert_all_engines_agree(FAULTS_SOURCE, scenario=FAULTS_SCENARIO)

    @pytest.mark.parametrize("target_class", COMPILED_TARGETS)
    def test_targets_identical_across_engines(self, target_class):
        target = target_class()
        workload = target.workloads()[0]
        scenarios = _fault_space_scenarios(target)[:6]

        def run_all(engine):
            observed = []
            for scenario in scenarios:
                result = target.run(WorkloadRequest(
                    workload=workload, scenario=scenario,
                    collect_coverage=True,
                    options={"engine": engine},
                ))
                tracker = result.stats["coverage"]
                observed.append({
                    "kind": result.outcome.kind,
                    "detail": result.outcome.detail,
                    "injections": result.injections,
                    "log": [r.to_dict() for r in result.log.records],
                    "steps_run": result.stats["steps_run"],
                    "library_calls": result.stats["library_calls"],
                    "coverage": {
                        a: tracker.hit_count(a)
                        for a in tracker.covered_addresses
                    },
                })
            return observed

        assert run_all("compiled") == run_all("reference")

    def test_loop_body_dispatches_as_fused_blocks(self):
        # The compiled engine's speed rests on running a whole basic block
        # per dispatch; count dispatches through the coverage hooks, which
        # get one call per block (record_block) or per instruction (record).
        class DispatchCounter:
            def __init__(self):
                self.dispatches = 0
                self.steps = 0

            def record(self, address):
                self.dispatches += 1
                self.steps += 1

            def record_block(self, start, length):
                self.dispatches += 1
                self.steps += length

        binary = compile_source(r"""
            int main() {
                int i;
                int total;
                total = 0;
                i = 0;
                while (i < 200) {
                    total = total + i;
                    i = i + 1;
                }
                return total % 7;
            }
        """, name="dataplane-fused")
        counted = {}
        for engine in ("reference", "compiled"):
            counter = DispatchCounter()
            machine = Machine(binary, coverage=counter, engine=engine)
            machine.run()
            assert counter.steps == machine.steps
            counted[engine] = counter
        reference, compiled = counted["reference"], counted["compiled"]
        assert compiled.steps == reference.steps == reference.dispatches
        assert compiled.dispatches * 4 < compiled.steps


# ----------------------------------------------------------------------
# superclosure code shipped between processes
# ----------------------------------------------------------------------
def _child_image(source, monkeypatch):
    """A fresh image of *source* that can only bind the code a parent image
    of the same source generated and marshalled — what a pool child does."""
    monkeypatch.setattr(dispatch, "_MARSHALLED", {})
    marshalled_block_code(compile_source(source, name="dataplane-marshal"))

    def generate(binary):
        raise AssertionError("the child generated its own block code")

    monkeypatch.setattr(dispatch, "generate_blocks", generate)
    return compile_source(source, name="dataplane-marshal")


class TestMarshalledBlockCode:
    @pytest.mark.parametrize("source, kwargs", DIFFERENTIAL_CORPUS)
    def test_round_tripped_blocks_match_the_reference(self, source, kwargs, monkeypatch):
        binary = _child_image(source, monkeypatch)
        reference = _observe(binary, "reference", **kwargs)
        assert _observe(binary, "compiled", **kwargs) == reference

    @pytest.mark.parametrize(
        "source", [DIVISION_TRAP_SOURCE, NULL_STORE_TRAP_SOURCE],
        ids=["division-trap", "null-store-trap"],
    )
    def test_mid_block_trap_attribution_survives_the_round_trip(self, source, monkeypatch):
        # Trap attribution maps the traceback's line number back to an
        # instruction, so the marshalled code must keep its line numbers.
        binary = _child_image(source, monkeypatch)
        reference = _observe(binary, "reference")
        compiled = _observe(binary, "compiled")
        assert reference["status"][0] is ExitKind.SEGFAULT
        assert (compiled["pc"], compiled["steps"]) == (reference["pc"], reference["steps"])
        fused, lengths = compiled_blocks(binary)
        pc = compiled["pc"]
        assert any(
            start < pc < start + lengths[start]
            for start in range(len(fused))
            if fused[start] is not None
        ), "the trap is not mid-block"


# ----------------------------------------------------------------------
# coverage-off hot loop
# ----------------------------------------------------------------------
class TestCoverageOffLoop:
    SOURCE = r"""
        int main() {
            int i;
            int total;
            total = 0;
            i = 0;
            while (i < 200) {
                total = total + i;
                i = i + 1;
            }
            if (total > 1000) {
                return 0;
            }
            return 1;
        }
    """

    def test_plain_run_matches_reference(self):
        binary = compile_source(self.SOURCE, name="dataplane-plain")
        reference = _observe(binary, "reference", coverage=False, trace=False)
        assert _observe(binary, "compiled", coverage=False, trace=False) == reference

    def test_plain_and_instrumented_agree_on_status(self):
        binary = compile_source(self.SOURCE, name="dataplane-plain2")
        plain = _observe(binary, "compiled", coverage=False, trace=False)
        instrumented = _observe(binary, "compiled", coverage=True, trace=True)
        assert plain["status"] == instrumented["status"]
        assert plain["steps"] == instrumented["steps"]


# ----------------------------------------------------------------------
# CoverageTracker.record_block
# ----------------------------------------------------------------------
class TestRecordBlock:
    def test_equivalent_to_repeated_record(self):
        batched, stepped = CoverageTracker(), CoverageTracker()
        batched.reserve(32)
        stepped.reserve(32)
        batched.record_block(3, 5)
        batched.record_block(3, 5)
        for _ in range(2):
            for address in range(3, 8):
                stepped.record(address)
        assert {a: batched.hit_count(a) for a in batched.covered_addresses} == \
            {a: stepped.hit_count(a) for a in stepped.covered_addresses}

    def test_grows_past_reserved_window(self):
        tracker = CoverageTracker()
        tracker.reserve(4)
        tracker.record_block(2, 6)  # spills past the dense window
        assert tracker.covered_addresses == set(range(2, 8))
        assert all(tracker.hit_count(a) == 1 for a in range(2, 8))

    def test_negative_start_falls_back_to_sparse(self):
        tracker = CoverageTracker()
        tracker.record_block(-2, 4)
        assert tracker.covered_addresses == {-2, -1, 0, 1}

    def test_zero_length_records_nothing(self):
        tracker = CoverageTracker()
        tracker.record_block(5, 0)
        assert tracker.covered_addresses == set()


# ----------------------------------------------------------------------
# run-to-completion group scheduling
# ----------------------------------------------------------------------
class TestRunToCompletionDifferential:
    def test_batch_execution_merges_group_results(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:8]
        entries = [(i, s, None) for i, s in enumerate(scenarios)]
        tasks = build_group_tasks(target, "status", entries)
        assert len(tasks) > 1
        per_group = {}
        for task in tasks:
            per_group.update(execute_group(task))
        batch = GroupBatchTask(index=0, groups=tasks)
        merged = execute_group_batch(batch)
        assert sorted(merged) == sorted(per_group) == list(range(len(scenarios)))

    def test_worker_counts(self):
        assert SerialBackend().worker_count() == 1
        assert ProcessPoolBackend(2).worker_count() == 2
        assert ProcessPoolBackend().worker_count() >= 1

    @pytest.mark.parametrize("spec", ["processes:2"])
    def test_pooled_batches_identical_to_serial_and_plain(self, spec):
        target = MiniBindTarget()
        workload = target.workloads()[0]
        scenarios = _fault_space_scenarios(target)[:16]
        campaign = Campaign(target, workload=workload)
        plain = campaign.run(
            scenarios, seed=5, include_baseline=False, share_prefixes=False
        )
        reference = _campaign_observables(plain)
        serial_shared = campaign.run(
            scenarios, seed=5, include_baseline=False, share_prefixes=True
        )
        assert _campaign_observables(serial_shared) == reference
        pooled = campaign.run(
            scenarios, seed=5, include_baseline=False,
            share_prefixes=True, parallelism=spec,
        )
        assert _campaign_observables(pooled) == reference


# ----------------------------------------------------------------------
# the published OS
# ----------------------------------------------------------------------
class TestDeltaResultChannel:
    """What a run publishes in ``stats["os"]``, held to the OS a serial
    ``snapshots=False`` per-scenario campaign publishes (the session's own
    :class:`SimOS`)."""

    @pytest.mark.parametrize("spec", ["processes:2"])
    def test_pooled_published_os_identical_to_serial_full(self, spec):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:8]
        campaign = Campaign(target, workload="status")
        oracle = campaign.run(
            scenarios, seed=2, include_baseline=False,
            snapshots=False, share_prefixes=False, memo=False,
        )
        pooled = campaign.run(
            scenarios, seed=2, include_baseline=False,
            snapshots=True, parallelism=spec,
        )
        for reference, outcome in zip(oracle.outcomes, pooled.outcomes):
            assert outcome.result.stats["os"].capture_state() == \
                reference.result.stats["os"].capture_state()

    def test_memo_hit_publishes_the_fresh_os_without_a_boot_build(self):
        # A memo hit unpickles its result; its published OS must carry the
        # fresh run's state by itself, not rebuild a boot template to get it.
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:8]
        campaign = Campaign(target, workload="status")
        memo = SuffixMemo()
        fresh = campaign.run(
            scenarios, seed=2, include_baseline=False, snapshots=True, memo=memo,
        )
        replayed = campaign.run(
            scenarios, seed=2, include_baseline=False, snapshots=True, memo=memo,
        )
        assert replayed.stats["suffix_memo"]["hits"] == len(scenarios)
        boot_misses = artifact_cache_stats().boot_misses
        for reference, outcome in zip(fresh.outcomes, replayed.outcomes):
            assert outcome.result.stats["os"].capture_state() == \
                reference.result.stats["os"].capture_state()
        assert artifact_cache_stats().boot_misses == boot_misses

    @pytest.mark.parametrize("parallelism", ["serial", "processes:2"])
    def test_explorations_publish_no_os(self, monkeypatch, parallelism):
        # An exploration reduces every run to a stored record, so its runs
        # skip the OS capture; a campaign over the same points (a distinct
        # memo context) still publishes it.
        seen = []
        original = ExplorationEngine.stored_result

        def spy(self, index, point, scenario_name, result):
            seen.append(result)
            return original(self, index, point, scenario_name, result)

        monkeypatch.setattr(ExplorationEngine, "stored_result", spy)
        target = MiniGitTarget()
        points = LFIController(target).fault_space(include_checked=True)[:12]
        ExplorationEngine(
            target, parallelism=parallelism, workload="status", seed=3
        ).explore(points)
        assert len(seen) == len(points)
        assert all("os" not in result.stats for result in seen)
        campaign = Campaign(target, workload="status").run(
            [point.scenario() for point in points], include_baseline=False,
            parallelism=parallelism,
        )
        assert all("os" in outcome.result.stats for outcome in campaign.outcomes)


# ----------------------------------------------------------------------
# environment defaults (the CI oracle leg's knobs)
# ----------------------------------------------------------------------
class TestEnvironmentDefaults:
    def test_repro_engine_selects_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "compiled"
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert resolve_engine(None) == "reference"
        assert resolve_engine("compiled") == "compiled"  # explicit wins

    def test_repro_snapshots_selects_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOTS", raising=False)
        assert default_snapshots() is True
        for value in ("0", "false", "no"):
            monkeypatch.setenv("REPRO_SNAPSHOTS", value)
            assert default_snapshots() is False
        monkeypatch.setenv("REPRO_SNAPSHOTS", "1")
        assert default_snapshots() is True

    def test_snapshots_env_default_reaches_sessions(self, monkeypatch):
        target = MiniGitTarget()
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        session = target.open_session("status")
        try:
            assert not session.snapshotted
        finally:
            session.close()
        monkeypatch.setenv("REPRO_SNAPSHOTS", "1")
        session = target.open_session("status")
        try:
            assert session.snapshotted
        finally:
            session.close()

    def test_reference_engine_machine_runs_through_targets(self, monkeypatch):
        # The CI oracle leg in one assertion: the whole request path works
        # with the env-selected reference engine and snapshots off.
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        monkeypatch.setenv("REPRO_SNAPSHOTS", "0")
        target = MiniGitTarget()
        result = target.run(WorkloadRequest(workload="status"))
        assert result.outcome.kind.value == "normal"
