"""Differential tests for the forkserver-style snapshot/restore engine.

The contract under test: snapshot-restored execution — boot templates,
copy-on-write memory rewinds, mid-run captures, and the prefix-sharing
campaign scheduler — is **observably identical** to the reference
fresh-build path (``snapshots=False`` / ``share_prefixes=False``): same
exit status, trace, coverage, library-call counts, and injection logs, on
every target, armed and unarmed.
"""

import pytest

from repro.core.controller.campaign import TestCampaign as Campaign
from repro.core.controller.controller import LFIController
from repro.core.controller.prefix import scenario_group_key
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.space import enumerate_structured_space
from repro.core.exploration.store import ResultStore
from repro.core.profiler.cache import artifact_cache_stats, clear_artifact_cache
from repro.core.scenario.builder import ScenarioBuilder
from repro.coverage.tracker import CoverageTracker
from repro.isa import layout
from repro.minicc import compile_source
from repro.oslib import fs as fsmod
from repro.oslib.os_model import SimOS
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
from repro.targets.pbft import PBFTCheckpointTarget
from repro.vm import Machine, Memory, MidRunCapture, capture_gate_state

COMPILED_TARGETS = (MiniBindTarget, MiniGitTarget, PBFTCheckpointTarget)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _fault_scenario():
    return (
        ScenarioBuilder("differential")
        .trigger("first_malloc", "CallCountTrigger", nth=1)
        .inject("malloc", ["first_malloc"], return_value=0, errno="ENOMEM")
        .trigger("early_open", "SingletonTrigger", max=2)
        .inject("open", ["early_open"], return_value=-1, errno="EMFILE")
        .trigger("second_read", "CallCountTrigger", nth=2)
        .inject("read", ["second_read"], return_value=-1, errno="EIO")
        .build()
    )


def _run_observables(result):
    observables = {
        "kind": result.outcome.kind,
        "detail": result.outcome.detail,
        "exit_code": result.outcome.exit_code,
        "location": result.outcome.location,
        "injections": result.injections,
        "log": [record.to_dict() for record in result.log.records],
        "steps_run": result.stats["steps_run"],
        "library_calls": result.stats["library_calls"],
    }
    tracker = result.stats.get("coverage")
    if tracker is not None:
        observables["coverage"] = {
            address: tracker.hit_count(address)
            for address in tracker.covered_addresses
        }
    return observables


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


# ----------------------------------------------------------------------
# Memory copy-on-write journal
# ----------------------------------------------------------------------
class TestMemoryCheckpoints:
    def test_checkpoint_rewind_words_and_stack(self):
        memory = Memory({4096: 1})
        top = layout.STACK_TOP - 3
        memory.store(top, 11)
        level = memory.checkpoint()
        memory.store(4096, 2)
        memory.store(4097, 5)
        memory.store(top, 12)
        assert memory.dirty_word_count() == 3
        undone = memory.rewind(level)
        assert undone == 3
        assert memory.load(4096) == 1
        assert memory.load(4097) == 0
        assert memory.load(top) == 11
        assert 4097 not in memory.snapshot()

    def test_rewind_restores_access_counters(self):
        memory = Memory()
        memory.store(4200, 1)
        loads, stores = memory.load_count, memory.store_count
        level = memory.checkpoint()
        memory.store(4201, 2)
        memory.load(4201)
        memory.rewind(level)
        assert (memory.load_count, memory.store_count) == (loads, stores)

    def test_nested_checkpoints_rewind_to_any_level(self):
        memory = Memory()
        memory.store(4300, 1)
        boot = memory.checkpoint()
        memory.store(4300, 2)
        mid = memory.checkpoint()
        memory.store(4300, 3)
        memory.store(4301, 9)
        memory.rewind(mid)
        assert memory.load(4300) == 2 and memory.load(4301) == 0
        memory.store(4300, 4)
        memory.rewind(boot)
        assert memory.load(4300) == 1
        assert memory.checkpoint_depth == 1

    def test_rewind_is_repeatable(self):
        memory = Memory()
        level = memory.checkpoint()
        for round_number in (1, 2, 3):
            memory.store(4400, round_number)
            memory.rewind(level)
            assert memory.load(4400) == 0

    def test_delta_since_materializes_dirty_words(self):
        memory = Memory({4500: 7})
        top = layout.STACK_TOP - 1
        level = memory.checkpoint()
        memory.store(4500, 8)
        memory.store(top, 3)
        delta = memory.delta_since(level)
        assert delta == {4500: 8, top: 3}
        memory.rewind(level)
        for address, value in delta.items():
            memory.poke(address, value)
        assert memory.load(4500) == 8 and memory.load(top) == 3
        memory.rewind(level)
        assert memory.load(4500) == 7 and memory.load(top) == 0

    def test_rewind_without_checkpoint_raises(self):
        with pytest.raises(ValueError):
            Memory().rewind(0)

    def test_peek_returns_stored_zero_in_stack_window(self):
        # Satellite fix: peek must agree with load for stack slots holding
        # zero instead of leaking the caller's default.
        memory = Memory()
        address = layout.STACK_TOP - 2
        memory.store(address, 0)
        assert memory.peek(address, default=77) == 0
        assert memory.peek(address, default=77) == memory.load(address)
        # Sparse addresses keep the "unmapped -> default" behaviour.
        assert memory.peek(0x5000, default=77) == 77


class TestMemoryCheckpointNesting:
    """Edge cases of nested checkpoints, partial rewinds, and deltas."""

    def test_delta_since_respects_the_requested_level(self):
        memory = Memory({4600: 1})
        boot = memory.checkpoint()
        memory.store(4600, 2)
        memory.store(4601, 5)
        mid = memory.checkpoint()
        memory.store(4600, 3)
        memory.store(4602, 7)
        # The inner delta names only post-mid writes; the outer one names
        # everything since boot, each with its *current* value.
        assert memory.delta_since(mid) == {4600: 3, 4602: 7}
        assert memory.delta_since(boot) == {4600: 3, 4601: 5, 4602: 7}

    def test_delta_after_partial_rewind_drops_the_undone_writes(self):
        memory = Memory({4700: 1})
        boot = memory.checkpoint()
        memory.store(4700, 2)
        memory.store(4701, 9)
        mid = memory.checkpoint()
        memory.store(4700, 3)
        memory.store(4702, 4)
        memory.rewind(mid)
        # The mid-level writes are gone; the boot-level ones survive with
        # their pre-mid values.
        assert memory.delta_since(boot) == {4700: 2, 4701: 9}
        # Re-dirtying after the rewind shows up again at both levels.
        memory.store(4702, 6)
        assert memory.delta_since(mid) == {4702: 6}
        assert memory.delta_since(boot) == {4700: 2, 4701: 9, 4702: 6}

    def test_rewind_to_outer_level_undoes_inner_creations(self):
        # An address absent from the base image, created at the outer level
        # and overwritten at the inner one, must vanish entirely on a
        # rewind to boot (not linger with its outer-level value).
        memory = Memory()
        boot = memory.checkpoint()
        memory.store(4800, 1)
        memory.checkpoint()
        memory.store(4800, 2)
        memory.rewind(boot)
        assert memory.load(4800) == 0
        assert 4800 not in memory.snapshot()
        assert memory.checkpoint_depth == 1

    def test_rewind_to_level_keeps_that_level_reusable(self):
        memory = Memory()
        boot = memory.checkpoint()
        memory.store(4900, 1)
        mid = memory.checkpoint()
        memory.store(4900, 2)
        memory.rewind(boot)
        # Levels above boot are discarded...
        assert memory.checkpoint_depth == 1
        with pytest.raises(ValueError):
            memory.delta_since(mid)
        with pytest.raises(ValueError):
            memory.rewind(mid)
        # ...but boot itself stays active for the next fork.
        memory.store(4900, 3)
        assert memory.delta_since(boot) == {4900: 3}
        memory.rewind(boot)
        assert memory.load(4900) == 0

    def test_delta_since_includes_stored_zeros(self):
        # A write of zero is still a write: the delta must carry it so a
        # replay faithfully reproduces a slot that was zeroed mid-run.
        memory = Memory({5000: 8})
        top = layout.STACK_TOP - 4
        memory.store(top, 6)
        level = memory.checkpoint()
        memory.store(5000, 0)
        memory.store(top, 0)
        delta = memory.delta_since(level)
        assert delta == {5000: 0, top: 0}
        memory.rewind(level)
        assert memory.load(5000) == 8 and memory.load(top) == 6
        for address, value in delta.items():
            memory.poke(address, value)
        assert memory.load(5000) == 0 and memory.load(top) == 0

    def test_delta_since_invalid_level_raises(self):
        memory = Memory()
        with pytest.raises(ValueError):
            memory.delta_since(0)
        memory.checkpoint()
        with pytest.raises(ValueError):
            memory.delta_since(1)
        with pytest.raises(ValueError):
            memory.delta_since(-1)


# ----------------------------------------------------------------------
# SimOS state capture / restore + reset
# ----------------------------------------------------------------------
class TestSimOSState:
    def _mutate(self, os):
        fd = os.fs.open("/data/file", fsmod.O_RDWR)
        os.fs.write(fd, b"mutated")
        os.fs.add_file("/data/new", b"created")
        os.fs.unlink("/data/doomed")
        read_end, write_end = os.fs.make_pipe()
        os.fs.write(write_end, b"piped")
        handle = os.fs.opendir("/data")
        os.fs.readdir(handle)
        address = os.heap.malloc(16)
        os.heap.free(address)
        os.heap.malloc(4)
        os.env.setenv("MODE", "changed")
        os.env.record_failed_update("X", "y")
        os.mutexes.lock(0x10)
        os.clock.advance(1.5)
        sock = os.network.socket("node")
        os.network.bind(sock, 9)
        os.network.sendto(sock, b"dgram", 9)
        os.write_stdout("out")
        os.write_stderr("err")
        os.bump("requests")
        os.exit_code = 3
        os.aborted = True

    def _fixture(self):
        os = SimOS("state")
        os.fs.make_dirs("/data")
        os.fs.add_file("/data/file", b"original")
        os.fs.add_file("/data/doomed", b"bye")
        os.env.setenv("MODE", "fresh")
        return os

    def test_restore_round_trip_is_exact(self):
        os = self._fixture()
        baseline = os.capture_state()
        self._mutate(os)
        assert os.capture_state() != baseline
        os.restore_state(baseline)
        assert os.capture_state() == baseline
        # Restored objects are detached: mutating again then re-restoring
        # still yields the captured state.
        self._mutate(os)
        os.restore_state(baseline)
        assert os.capture_state() == baseline
        assert os.fs.file_contents("/data/file") == b"original"
        assert os.env.getenv("MODE") == "fresh"
        assert os.exit_code is None and not os.aborted

    def test_restore_preserves_open_descriptors_and_pipes(self):
        os = self._fixture()
        fd = os.fs.open("/data/file", fsmod.O_RDONLY)
        read_end, write_end = os.fs.make_pipe()
        os.fs.write(write_end, b"xy")
        state = os.capture_state()
        os.fs.close(fd)
        os.fs.read(read_end, 2)
        os.restore_state(state)
        assert os.fs.descriptor_is_open(fd)
        assert os.fs.read(fd, 8) == b"original"
        # Pipe ends share one buffer again after the restore.
        assert os.fs.read(read_end, 2) == b"xy"
        os.fs.write(write_end, b"z")
        assert os.fs.read(read_end, 1) == b"z"

    def test_restore_keeps_unlinked_file_shared_across_descriptors(self):
        # Two descriptors of an unlinked file share one SimFile; a restore
        # must preserve that sharing, or a write through one descriptor
        # stops being visible through the other — diverging from a fresh
        # run.
        os = self._fixture()
        first = os.fs.open("/data/file", fsmod.O_RDWR)
        second = os.fs.open("/data/file", fsmod.O_RDONLY)
        os.fs.unlink("/data/file")
        state = os.capture_state()
        os.restore_state(state)
        os.fs.write(first, b"XYZ")
        assert os.fs.read(second, 3) == b"XYZ"

    def test_lazy_clone_pickles_before_and_after_hydration(self):
        # Published run stats carry lazy OS clones across process-pool
        # boundaries; unpickling must not recurse through __getattr__.
        import pickle

        os = self._fixture()
        cold = pickle.loads(pickle.dumps(os.lazy_clone()))
        assert cold.fs.exists("/data/file")
        warm = os.lazy_clone()
        assert warm.env.getenv("MODE") == "fresh"  # hydrates
        warm_clone = pickle.loads(pickle.dumps(warm))
        assert warm_clone.fs.file_contents("/data/file") == b"original"

    def test_clone_is_detached(self):
        os = self._fixture()
        clone = os.clone()
        os.fs.add_file("/data/after", b"later")
        os.bump("requests")
        assert not clone.fs.exists("/data/after")
        assert clone.counter("requests") == 0

    def test_reset_clears_counters_exit_and_abort(self):
        # Satellite: reset_streams alone leaked oracle state on OS reuse.
        os = SimOS("reset")
        os.write_stdout("text")
        os.bump("oracle_hits")
        os.exit_code = 9
        os.aborted = True
        os.reset()
        assert os.stdout_text() == "" and os.stderr_text() == ""
        assert os.counters == {}
        assert os.exit_code is None
        assert os.aborted is False


# ----------------------------------------------------------------------
# machine snapshot fidelity: a capture taken right after a fresh memory
# checkpoint is a machine's boot state, what a BootTemplate restores
# ----------------------------------------------------------------------
class TestMachineSnapshot:
    SOURCE = """
    int main() {
        int p;
        int fd;
        int buffer[4];
        p = malloc(8);
        if (p == 0) { return 3; }
        fd = open("/input.txt", 0);
        if (fd < 0) { return 1; }
        read(fd, buffer, 2);
        close(fd);
        puts("done");
        return buffer[0];
    }
    """

    def _machine(self, scenario=None):
        binary = compile_source(self.SOURCE, name="snap")
        os = SimOS("snap")
        os.fs.add_file("/input.txt", b"ab")
        gate = make_gate(scenario, run_seed=7) if scenario is not None else None
        machine = Machine(binary, os=os, gate=gate, coverage=CoverageTracker())
        machine.enable_trace()
        return machine

    def _observe(self, machine, status):
        tracker = machine.coverage
        return {
            "status": (status.kind, status.code, status.reason, status.steps,
                       status.pc, status.source, status.stdout, status.stderr),
            "trace": list(machine.trace),
            "coverage": {a: tracker.hit_count(a) for a in tracker.covered_addresses},
            "calls": dict(machine.library_call_counts),
            "log": ([r.to_dict() for r in machine.gate.log.records]
                    if machine.gate is not None else None),
        }

    def _capture(self, machine):
        capture = MidRunCapture(machine, base_level=machine.memory.checkpoint())
        gate_state = capture_gate_state(machine.gate)

        def restore():
            capture.restore(machine.gate, machine.coverage, gate_state)

        return restore

    @pytest.mark.parametrize("armed", [False, True])
    def test_restore_reproduces_run_exactly(self, armed):
        scenario = _fault_scenario() if armed else None
        machine = self._machine(scenario)
        restore = self._capture(machine)
        first = self._observe(machine, machine.run())
        restore()
        second = self._observe(machine, machine.run())
        assert second == first

    def test_restore_matches_fresh_build(self):
        machine = self._machine(_fault_scenario())
        restore = self._capture(machine)
        machine.run()
        restore()
        replay = self._observe(machine, machine.run())
        fresh_machine = self._machine(_fault_scenario())
        fresh = self._observe(fresh_machine, fresh_machine.run())
        assert replay == fresh


class TestGateStateCapture:
    def test_capture_shares_no_mutable_trigger_state(self):
        # A gate snapshot must not move with the live run: a random
        # trigger's generator is copied with it, and a scalar-state
        # trigger gets its own attribute dict.
        scenario = (
            ScenarioBuilder("detached")
            .trigger("coin", "RandomTrigger", probability=0.5)
            .inject("read", ["coin"], return_value=-1, errno="EIO")
            .trigger("second_close", "CallCountTrigger", nth=2)
            .inject("close", ["second_close"], return_value=-1, errno="EIO")
            .build()
        )
        gate = make_gate(scenario, run_seed=7)
        live = [gate.runtime.trigger_instance(name) for name in ("coin", "second_close")]
        captured = capture_gate_state(gate)["runtime"]["instances"]
        rng_state = captured["coin"]._rng.getstate()
        for instance in live:
            instance.eval(None)
        assert live[0]._rng.getstate() != rng_state
        assert captured["coin"]._rng.getstate() == rng_state
        assert captured["coin"].evaluations == 0
        assert live[1]._observed == 1
        assert captured["second_close"]._observed == 0
        assert type(captured["second_close"]) is type(live[1])


# ----------------------------------------------------------------------
# compiled-target differential: snapshot path vs reference rebuild path
# ----------------------------------------------------------------------
class TestCompiledTargetSnapshotDifferentials:
    @pytest.mark.parametrize("target_class", COMPILED_TARGETS)
    @pytest.mark.parametrize("armed", [False, True])
    def test_snapshot_runs_identical_to_fresh_builds(self, target_class, armed):
        scenario = _fault_scenario() if armed else None
        target = target_class()
        request_options = {"run_seed": 3}

        def run_once(snapshots):
            request = WorkloadRequest(
                workload=target.workloads()[0],
                scenario=scenario,
                collect_coverage=True,
                options=dict(request_options, snapshots=snapshots),
            )
            return _run_observables(target.run(request))

        fresh = run_once(snapshots=False)
        cold = run_once(snapshots=True)   # builds the boot template
        warm = run_once(snapshots=True)   # restores it
        assert cold == fresh
        assert warm == fresh

    # The three template-mechanics tests pin ``snapshots=True`` explicitly:
    # they assert the snapshot path's internals (cache counters, lock
    # behavior), which the REPRO_SNAPSHOTS=0 oracle leg turns off by default.
    def test_boot_template_cache_hits_and_clear(self):
        clear_artifact_cache()
        target = MiniGitTarget()
        request = WorkloadRequest(workload="status", options={"snapshots": True})
        target.run(request)
        target.run(request)
        stats = artifact_cache_stats()
        assert stats.boot_misses == 1
        assert stats.boot_hits == 1
        clear_artifact_cache()
        target.run(request)
        assert artifact_cache_stats().boot_misses == 1

    def test_contended_template_falls_back_to_fresh_path(self):
        target = MiniGitTarget()
        request = WorkloadRequest(workload="status", scenario=_fault_scenario(),
                                  options={"snapshots": True})
        baseline = _run_observables(target.run(request))
        session = target.open_session("status", snapshots=True)
        assert session.snapshotted
        try:
            # The template is held: the concurrent run must fall back to a
            # fresh build and still produce identical results.
            contended = _run_observables(target.run(request))
        finally:
            session.close()
        assert contended == baseline

    def test_template_lock_excludes_concurrent_acquisition(self):
        target = MiniBindTarget()
        session = target.open_session(target.workloads()[0], snapshots=True)
        try:
            assert session.snapshotted
            other = target.open_session(target.workloads()[0], snapshots=True)
            try:
                assert not other.snapshotted
            finally:
                other.close()
        finally:
            session.close()

    def test_threaded_snapshot_campaign_matches_serial(self):
        target = MiniGitTarget()
        controller = LFIController(target)
        scenarios = controller.generate_scenarios(controller.analyze_target())[:6]
        campaign = Campaign(target, workload="status")
        serial = campaign.run(scenarios, seed=1, include_baseline=False,
                              share_prefixes=False)
        pooled = campaign.run(scenarios, seed=1, include_baseline=False,
                              parallelism="processes:4")
        assert _campaign_observables(pooled) == _campaign_observables(serial)


# ----------------------------------------------------------------------
# prefix-sharing scheduler differentials
# ----------------------------------------------------------------------
class TestPrefixSharingDifferentials:
    def _git_scenarios(self):
        target = MiniGitTarget()
        controller = LFIController(target)
        analysis = controller.analyze_target()
        points = controller.fault_space(analysis=analysis, include_checked=True)
        return target, [point.scenario() for point in points]

    def test_grouping_key_strips_faults_only(self):
        target, scenarios = self._git_scenarios()
        by_key = {}
        for scenario in scenarios:
            key = scenario_group_key(scenario)
            assert key is not None
            by_key.setdefault(key, []).append(scenario)
        multi = [group for group in by_key.values() if len(group) > 1]
        assert multi, "expected errno families to share a group"
        for group in multi:
            triggers = {repr(sorted(s.triggers)) for s in group}
            assert len(triggers) == 1

    def test_random_trigger_scenarios_are_not_grouped(self):
        scenario = (
            ScenarioBuilder("rand")
            .trigger("coin", "RandomTrigger", probability=0.5)
            .inject("malloc", ["coin"], return_value=0, errno="ENOMEM")
            .build()
        )
        assert scenario_group_key(scenario) is None

    @pytest.mark.parametrize("workload", ["default-tests", "status", "gc"])
    def test_shared_campaign_identical_to_plain(self, workload):
        target, scenarios = self._git_scenarios()
        campaign = Campaign(target, workload=workload)
        plain = campaign.run(scenarios, seed=3, include_baseline=False,
                             share_prefixes=False)
        shared = campaign.run(scenarios, seed=3, include_baseline=False,
                              share_prefixes=True)
        assert _campaign_observables(shared) == _campaign_observables(plain)

    def test_shared_campaign_identical_with_coverage(self):
        target, scenarios = self._git_scenarios()
        campaign = Campaign(target, workload="commit")
        plain = campaign.run(scenarios[:12], include_baseline=False,
                             collect_coverage=True, share_prefixes=False)
        shared = campaign.run(scenarios[:12], include_baseline=False,
                              collect_coverage=True, share_prefixes=True)
        for a, b in zip(plain.outcomes, shared.outcomes):
            ta, tb = a.result.stats["coverage"], b.result.stats["coverage"]
            assert {x: tb.hit_count(x) for x in tb.covered_addresses} == \
                   {x: ta.hit_count(x) for x in ta.covered_addresses}
        assert _campaign_observables(shared) == _campaign_observables(plain)

    def test_rank_advance_resume_identical_with_coverage(self, monkeypatch):
        # Structured short-read/partial-write points rank call-count variants
        # of one site, so later ranks resume by re-executing the captured
        # call, which rolls that call's coverage hit back first.
        from repro.core.controller import prefix

        resumes = {"n": 0}
        resume = prefix._resume_member

        def counting_resume(*args, **kwargs):
            if kwargs.get("nest"):
                resumes["n"] += 1
            return resume(*args, **kwargs)

        monkeypatch.setattr(prefix, "_resume_member", counting_resume)
        target = MiniGitTarget()
        scenarios = [
            point.scenario()
            for point in enumerate_structured_space(
                "mini_git", ("short_read", "partial_write")
            )
        ]
        campaign = Campaign(target, workload="default-tests")
        plain = campaign.run(scenarios, include_baseline=False,
                             collect_coverage=True, share_prefixes=False)
        assert resumes["n"] == 0
        # Mid-run captures need snapshot-backed sessions; pin them so the
        # oracle leg's snapshot-free default still takes the resume path.
        shared = campaign.run(scenarios, include_baseline=False,
                              collect_coverage=True, share_prefixes=True,
                              snapshots=True, memo=False)
        assert resumes["n"] > 0
        for a, b in zip(plain.outcomes, shared.outcomes):
            ta, tb = a.result.stats["coverage"], b.result.stats["coverage"]
            assert {x: tb.hit_count(x) for x in tb.covered_addresses} == \
                   {x: ta.hit_count(x) for x in ta.covered_addresses}
        assert _campaign_observables(shared) == _campaign_observables(plain)


# ----------------------------------------------------------------------
# exploration: sharing + resume path independence
# ----------------------------------------------------------------------
class TestExplorationWithSnapshots:
    def _points(self, controller):
        return controller.fault_space(include_checked=True)

    def _report_observables(self, report):
        return [
            (o.point.key, o.outcome.kind, o.outcome.detail, o.injections,
             o.fingerprint, o.run_seed, o.scenario_name)
            for o in report.outcomes
        ]

    def test_shared_exploration_identical_to_plain(self):
        target = MiniGitTarget()
        controller = LFIController(target)
        points = self._points(controller)
        plain = ExplorationEngine(
            target, store=ResultStore(), seed=5, workload="commit",
            share_prefixes=False, request_options={"snapshots": False},
        ).explore(points)
        shared = ExplorationEngine(
            target, store=ResultStore(), seed=5, workload="commit",
            share_prefixes=True,
        ).explore(points)
        assert self._report_observables(shared) == self._report_observables(plain)
        assert shared.executed == plain.executed == len(plain.outcomes)

    def test_resume_across_execution_paths(self):
        # Satellite: checkpoint keys are independent of the execution path,
        # so a campaign started on the fresh rebuild path resumes cleanly
        # under snapshots + prefix sharing (and vice versa).
        target = MiniGitTarget()
        controller = LFIController(target)
        points = self._points(controller)
        store = ResultStore()
        first = ExplorationEngine(
            target, store=store, seed=5, workload="commit",
            share_prefixes=False, request_options={"snapshots": False},
        ).explore(points, max_runs=10)
        assert first.executed == 10 and first.pending > 0

        resumed = ExplorationEngine(
            target, store=store, seed=5, workload="commit", share_prefixes=True,
        ).explore(points)
        assert resumed.pending == 0
        assert resumed.resumed == 10
        assert resumed.executed == len(points) - 10

        reference = ExplorationEngine(
            target, store=ResultStore(), seed=5, workload="commit",
            share_prefixes=False, request_options={"snapshots": False},
        ).explore(points)
        assert self._report_observables(resumed) == \
            self._report_observables(reference)

    def test_resume_seed_mismatch_still_detected(self):
        target = MiniGitTarget()
        controller = LFIController(target)
        points = self._points(controller)
        store = ResultStore()
        ExplorationEngine(
            target, store=store, seed=5, workload="status",
        ).explore(points, max_runs=3)
        with pytest.raises(ValueError, match="seed mismatch"):
            ExplorationEngine(
                target, store=store, seed=6, workload="status",
            ).explore(points)


# ----------------------------------------------------------------------
# gate inject observer
# ----------------------------------------------------------------------
class TestInjectObserver:
    def test_observer_fires_before_fault_application(self):
        target = MiniGitTarget()
        session = target.open_session("status")
        try:
            gate = make_gate(_fault_scenario())
            seen = []

            def observer(name, args, count, ctx, decision):
                # The observer runs before the gate counts or logs the
                # injection: both must still be at their pre-fault values.
                seen.append((name, gate.injected_calls, len(gate.log.records)))

            gate.inject_observer = observer
            plan = target.workload_plan("status")
            target.execute_plan(session, plan, gate, None)
            assert seen and seen[0][1] == 0 and seen[0][2] == 0
            assert gate.injected_calls >= 1
        finally:
            session.close()
