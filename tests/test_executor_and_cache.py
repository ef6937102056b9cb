"""Tests for the campaign execution backends, the artifact cache, and the
injection-gate / controller fixes that shipped with them."""

import dataclasses
import gc
import os
import sys
import threading
import weakref

import pytest

from repro.core.analysis.analyzer import CallSiteAnalyzer
from repro.core.controller.campaign import TestCampaign as InjectionCampaign
from repro.core.controller.controller import LFIController
from repro.core.controller import prefix
from repro.core.controller.executor import (
    ProcessPoolBackend,
    SerialBackend,
    derive_run_seed,
    resolve_backend,
    run_requests,
)
from repro.core.controller.memo import SuffixMemo, clear_suffix_memo
from repro.core.controller.monitor import OutcomeKind, RunResult, classify_exit_status
from repro.core.controller.prefix import build_group_tasks
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.exploration.store import ResultStore
from repro.core.injection.gate import (
    _GATE_INTERNAL_FILES,
    _python_stack_provider,
    LibraryCallGate,
)
from repro.core.injection.log import InjectionLog
from repro.core.injection.runtime import InjectionRuntime
from repro.core.profiler import cache as cache_module
from repro.core.profiler.cache import (
    artifact_cache_stats,
    cached_all_library_binaries,
    cached_analysis,
    cached_library_binary,
    cached_library_profile,
    cached_merged_profile,
    clear_artifact_cache,
)
from repro.core.profiler.fault_profile import FaultProfile
from repro.core.scenario.builder import ScenarioBuilder
from repro.distributed.spec import CampaignSpec, build_engine
from repro.minicc import compile_source
from repro.oslib.os_model import SimOS
from repro.targets.base import CompiledTarget
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
from repro.targets.pbft import PBFTCheckpointTarget
from repro.vm import dispatch
from repro.vm.dispatch import block_code_digests, compiled_blocks, marshalled_block_code
from repro.vm.machine import Machine

TOY_SOURCE = """
int main() {
    int p;
    int fd;
    fd = open("/cfg", 0);
    if (fd < 0) { return 1; }
    p = malloc(16);
    *p = 7;
    close(fd);
    return 0;
}
"""

_TOY_BINARY = None


def _toy_binary():
    global _TOY_BINARY
    if _TOY_BINARY is None:
        _TOY_BINARY = compile_source(TOY_SOURCE, name="toy")
    return _TOY_BINARY


class ToyTarget:
    """Module-level (hence picklable) compiled target for backend tests."""

    name = "toy"

    def binary(self):
        return _toy_binary()

    def workloads(self):
        return ["default", "repeat"]

    def run(self, request: WorkloadRequest) -> RunResult:
        os_state = SimOS("toy")
        os_state.fs.add_file("/cfg", b"x")
        gate = make_gate(request.scenario, observe_only=request.observe_only,
                         run_seed=request.options.get("run_seed"))
        machine = Machine(self.binary(), os=os_state, gate=gate)
        status = machine.run()
        return RunResult(
            outcome=classify_exit_status(status), log=gate.log,
            stats={"run_seed": request.options.get("run_seed")},
        )


class BrokenTarget:
    """A target whose harness itself fails (module-level, hence picklable)."""

    name = "broken"

    def workloads(self):
        return ["default"]

    def binary(self):
        return None

    def run(self, request):
        raise OSError("target harness itself broke")


def _double(value):
    return value * 2


def _scenarios():
    return [
        ScenarioBuilder("fail-malloc").trigger("once", "SingletonTrigger")
        .inject("malloc", ["once"], return_value=0, errno="ENOMEM").build(),
        ScenarioBuilder("fail-open").trigger("once", "SingletonTrigger")
        .inject("open", ["once"], return_value=-1, errno="ENOENT").build(),
        ScenarioBuilder("fail-close").trigger("once", "SingletonTrigger")
        .inject("close", ["once"], return_value=-1, errno="EIO").build(),
    ]


def _campaign_signature(campaign):
    return [
        (
            outcome.scenario.name,
            outcome.workload,
            outcome.outcome.kind,
            outcome.outcome.detail,
            outcome.result.injections,
        )
        for outcome in campaign.outcomes
    ]


class TestBackends:
    def test_resolve_backend_specs(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)
        assert isinstance(resolve_backend(False), SerialBackend)
        # The targets are CPU-bound pure Python: integer counts (and True)
        # select the process pool, the backend that scales with cores.
        assert isinstance(resolve_backend(4), ProcessPoolBackend)
        assert resolve_backend(4).workers == 4
        assert isinstance(resolve_backend(True), ProcessPoolBackend)
        assert resolve_backend("processes:3").workers == 3
        assert isinstance(resolve_backend("processes:0"), SerialBackend)
        assert isinstance(resolve_backend("processes:2"), ProcessPoolBackend)
        backend = ProcessPoolBackend(2)
        assert resolve_backend(backend) is backend
        with pytest.raises(ValueError):
            resolve_backend("gpu")
        with pytest.raises(ValueError):
            resolve_backend("processes:abc")
        with pytest.raises(ValueError):
            resolve_backend("processes:-2")
        with pytest.raises(TypeError):
            resolve_backend(3.5)
        # No thread backend (VM runs would serialize on the GIL): a thread
        # spec fails loudly instead of silently picking another backend.
        for spec in ("threads", "threads:2"):
            with pytest.raises(ValueError, match="accepted kinds: serial, processes"):
                resolve_backend(spec)

    def test_default_worker_counts_honour_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU gets one pool worker, however many
        # CPUs the machine has.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ProcessPoolBackend().worker_count() == 1
        assert resolve_backend("processes").worker_count() == 1
        assert ProcessPoolBackend(3).worker_count() == 3
        # Without an affinity API the CPU count decides.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert ProcessPoolBackend().worker_count() == 8

    def test_map_preserves_submission_order(self):
        with ProcessPoolBackend(4) as backend:
            results = backend.map(_double, [(i,) for i in range(20)])
        assert results == [i * 2 for i in range(20)]

    def test_serial_thread_process_campaigns_identical(self):
        scenarios = _scenarios()
        target = ToyTarget()
        serial = InjectionCampaign(target).run(scenarios)
        pooled = InjectionCampaign(target, parallelism="processes:3").run(scenarios)
        with ProcessPoolBackend(2) as backend:
            processed = InjectionCampaign(target, parallelism=backend).run(scenarios)
        reference = _campaign_signature(serial)
        assert _campaign_signature(pooled) == reference
        assert _campaign_signature(processed) == reference
        assert serial.by_kind() == pooled.by_kind() == processed.by_kind()

    def test_controller_reports_identical_across_backends(self):
        def report_signature(report):
            return [
                (bug.function, bug.location, bug.kind, bug.occurrences, tuple(bug.scenarios))
                for bug in report.bugs
            ]

        serial = LFIController(ToyTarget()).test_automatically(workloads=["default"])
        pooled = LFIController(ToyTarget(), parallelism="processes:4").test_automatically(
            workloads=["default"]
        )
        assert report_signature(pooled) == report_signature(serial)
        assert serial.bugs and any(bug.function == "malloc" for bug in serial.bugs)

    def test_seed_threading_is_deterministic_and_order_free(self):
        assert derive_run_seed(None, 3) is None
        seeds = [derive_run_seed(42, index) for index in range(8)]
        assert seeds == [derive_run_seed(42, index) for index in range(8)]
        assert len(set(seeds)) == len(seeds)

        scenarios = _scenarios()
        serial = InjectionCampaign(ToyTarget()).run(scenarios, seed=42)
        pooled = InjectionCampaign(ToyTarget(), parallelism="processes:3").run(
            scenarios, seed=42
        )
        serial_seeds = [outcome.result.stats["run_seed"] for outcome in serial.outcomes]
        pooled_seeds = [outcome.result.stats["run_seed"] for outcome in pooled.outcomes]
        assert serial_seeds == pooled_seeds == seeds[: len(scenarios)]
        # No campaign seed -> requests untouched (historical behaviour).
        unseeded = InjectionCampaign(ToyTarget()).run(scenarios)
        assert all(outcome.result.stats["run_seed"] is None for outcome in unseeded.outcomes)

    def test_task_failure_propagates(self):
        scenarios = _scenarios()[:1]
        with pytest.raises(OSError):
            InjectionCampaign(BrokenTarget()).run(scenarios, include_baseline=False)
        with pytest.raises(OSError):
            InjectionCampaign(BrokenTarget(), parallelism="processes:2").run(
                scenarios, include_baseline=False
            )


class TestStochasticSeedThreading:
    def _random_scenario(self, seed=None):
        params = {"probability": 0.5}
        if seed is not None:
            params["seed"] = seed
        return (
            ScenarioBuilder("random-close")
            .trigger_with_params("r", "RandomTrigger", params)
            .inject("close", ["r"], return_value=-1, errno="EIO")
            .build()
        )

    def test_runtime_derives_seed_for_unseeded_random_triggers(self):
        runtime = InjectionRuntime(self._random_scenario(), run_seed=5)
        trigger = runtime.trigger_instance("r")
        assert trigger._seed is not None
        # Deterministic in (run seed, trigger id): a second runtime with the
        # same run seed derives the same trigger seed.
        again = InjectionRuntime(self._random_scenario(), run_seed=5)
        assert again.trigger_instance("r")._seed == trigger._seed
        # An explicit scenario seed always wins over the derived one.
        explicit = InjectionRuntime(self._random_scenario(seed=9), run_seed=5)
        assert explicit.trigger_instance("r")._seed == 9
        # Without a run seed, unseeded triggers stay unseeded (historical).
        unseeded = InjectionRuntime(self._random_scenario())
        assert unseeded.trigger_instance("r")._seed is None

    def test_seeded_campaigns_reproducible_and_backend_independent(self):
        scenarios = [self._random_scenario() for _ in range(6)]
        first = InjectionCampaign(ToyTarget()).run(scenarios, seed=7, include_baseline=False)
        second = InjectionCampaign(ToyTarget()).run(scenarios, seed=7, include_baseline=False)
        pooled = InjectionCampaign(ToyTarget(), parallelism="processes:3").run(
            scenarios, seed=7, include_baseline=False
        )
        assert _campaign_signature(first) == _campaign_signature(second)
        assert _campaign_signature(pooled) == _campaign_signature(first)


class TestCrossWorkloadDedup:
    def test_occurrences_merge_without_duplicate_candidates(self):
        report = LFIController(ToyTarget()).test_automatically(
            workloads=["default", "repeat"]
        )
        malloc_bugs = [bug for bug in report.bugs if bug.function == "malloc"]
        assert len(malloc_bugs) == 1
        bug = malloc_bugs[0]
        # Both workloads exposed the same (function, location, kind) bug:
        # occurrences merged, scenario list extended, candidate not repeated.
        assert bug.occurrences == 2
        assert len(bug.scenarios) == 2
        keys = [(candidate.function, candidate.location, candidate.kind)
                for candidate in report.bugs]
        assert len(keys) == len(set(keys))
        assert set(report.campaigns) == {"default", "repeat"}


class TestArtifactCache:
    def setup_method(self):
        clear_artifact_cache()

    def teardown_method(self):
        clear_artifact_cache()

    def test_binaries_and_profiles_hit_after_first_build(self):
        first = cached_library_binary("libc")
        stats = artifact_cache_stats()
        assert stats.binary_misses == 1 and stats.binary_hits == 0
        assert cached_library_binary("libc") is first
        assert artifact_cache_stats().binary_hits == 1

        profile = cached_library_profile("libc")
        assert cached_library_profile("libc") is profile
        merged = cached_merged_profile()
        assert cached_merged_profile() is merged
        assert "malloc" in merged and "read" in merged

    def test_all_binaries_share_cached_images(self):
        images = cached_all_library_binaries()
        assert "libc.so" in images
        again = cached_all_library_binaries()
        assert all(again[name] is images[name] for name in images)

    def test_controllers_share_one_profile(self):
        clear_artifact_cache()
        first = LFIController(ToyTarget()).profile_libraries()
        misses_after_first = artifact_cache_stats().misses
        second = LFIController(ToyTarget()).profile_libraries()
        assert second is first
        assert artifact_cache_stats().misses == misses_after_first

    def test_explicit_profile_bypasses_cache(self):
        sentinel = cached_merged_profile()
        controller = LFIController(ToyTarget(), profile=sentinel)
        assert controller.profile_libraries() is sentinel

    def test_controller_reuses_single_analyzer(self):
        controller = LFIController(ToyTarget())
        analysis = controller.analyze_target()
        analyzer = controller._analyzer
        assert analyzer is not None
        controller.generate_scenarios(analysis)
        controller.analyze_target()
        assert controller._analyzer is analyzer


def _fresh_analysis(controller, functions=None):
    """The uncached analysis the cache must reproduce (the oracle)."""
    analyzer = CallSiteAnalyzer(
        profile=controller.profile_libraries(),
        max_instructions=controller.max_cfg_instructions,
    )
    return analyzer.analyze(controller.target.binary(), functions=functions)


def _with_first_error_return(profile, function, **changes):
    """A copy of *profile* with *changes* made to *function*'s first error
    return specification."""
    first, *rest = profile.function(function).error_returns
    functions = dict(profile.functions)
    functions[function] = dataclasses.replace(
        functions[function], error_returns=[dataclasses.replace(first, **changes), *rest]
    )
    return FaultProfile(library="custom", functions=functions)


class TestAnalysisCache:
    def setup_method(self):
        clear_artifact_cache()

    def teardown_method(self):
        clear_artifact_cache()

    @pytest.mark.parametrize(
        "target_class", [MiniGitTarget, MiniBindTarget, PBFTCheckpointTarget]
    )
    def test_cached_report_matches_a_fresh_analysis(self, target_class):
        controller = LFIController(target_class())
        cached = controller.analyze_target()
        fresh = _fresh_analysis(controller)
        assert cached.classifications
        assert cached.classifications == fresh.classifications
        assert cached.call_sites_analyzed == fresh.call_sites_analyzed
        assert controller.analyze_target() is cached

    def test_controllers_over_two_instances_share_one_analysis(self):
        first, second = LFIController(MiniGitTarget()), LFIController(MiniGitTarget())
        assert first.target is not second.target
        assert first.target.binary() is second.target.binary()
        report = first.analyze_target()
        stats = artifact_cache_stats()
        assert (stats.analysis_misses, stats.analysis_hits) == (1, 0)
        assert second.analyze_target() is report
        assert second.fault_space() == first.fault_space()
        stats = artifact_cache_stats()
        assert (stats.analysis_misses, stats.analysis_hits) == (1, 3)

    def test_budget_selection_and_error_values_key_the_cache(self):
        target = MiniGitTarget()
        base = LFIController(target).analyze_target()

        narrow = LFIController(target, max_cfg_instructions=3)
        assert narrow.analyze_target() is not base
        assert narrow.analyze_target().classifications == _fresh_analysis(narrow).classifications

        selection = sorted(base.classifications)[:2]
        controller = LFIController(target)
        selected = controller.analyze_target(functions=selection)
        assert selected is not base
        assert list(selected.classifications) == selection
        assert selected.classifications == _fresh_analysis(controller, selection).classifications
        assert artifact_cache_stats().analysis_misses == 3

        merged = cached_merged_profile()
        function = selection[0]
        errno_only = _with_first_error_return(merged, function, errnos=("EIO",))
        # Errnos are enumerated after analysis, so an errno-only change hits.
        assert LFIController(target, profile=errno_only).analyze_target() is base

        changed = LFIController(
            target, profile=_with_first_error_return(merged, function, return_value=-77)
        )
        report = changed.analyze_target()
        assert report is not base
        assert report.classifications == _fresh_analysis(changed).classifications
        assert report.classifications[function].error_codes != (
            base.classifications[function].error_codes
        )
        assert artifact_cache_stats().analysis_misses == 4

    def test_clear_artifact_cache_drops_analyses(self):
        target = MiniBindTarget()
        report = LFIController(target).analyze_target()
        clear_artifact_cache()
        stats = artifact_cache_stats()
        assert (stats.analysis_misses, stats.analysis_hits) == (0, 0)
        again = LFIController(target).analyze_target()
        assert again is not report
        assert artifact_cache_stats().analysis_misses == 1

    def test_entries_die_with_their_image(self):
        binary = compile_source(TOY_SOURCE, name="short-lived")
        analyzer = CallSiteAnalyzer(profile=cached_merged_profile())
        assert cached_analysis(analyzer, binary).classifications
        image = weakref.ref(binary)
        del binary
        gc.collect()
        # The report holds no reference to its image, so the weak key lets
        # the image (and with it the entry) go.
        assert image() is None
        assert len(cache_module._ANALYSES) == 0

    def test_coordinator_and_worker_engine_builds_analyze_once(self, monkeypatch):
        calls = []
        analyze = CallSiteAnalyzer.analyze

        def counting(self, binary, functions=None):
            calls.append(binary.name)
            return analyze(self, binary, functions=functions)

        monkeypatch.setattr(CallSiteAnalyzer, "analyze", counting)
        spec = CampaignSpec(
            target="mini_git", workload="status", seed=7, functions=["close", "malloc"]
        )
        _, coordinator_points = build_engine(spec, ResultStore())
        _, worker_points = build_engine(spec)
        assert [point.key for point in worker_points] == [
            point.key for point in coordinator_points
        ]
        assert calls == ["mini_git"]

    def test_threads_racing_on_one_image_share_one_report(self):
        target = MiniBindTarget()
        target.binary()  # compile outside the race
        workers = 8
        barrier = threading.Barrier(workers)
        reports, errors = [], []

        def analyze():
            try:
                barrier.wait(timeout=30)
                reports.append(LFIController(target).analyze_target())
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=analyze) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(reports) == workers
        assert all(report is reports[0] for report in reports)
        stats = artifact_cache_stats()
        assert stats.analysis_hits + stats.analysis_misses == workers
        assert stats.analysis_misses == 1


class TestGateFixes:
    def _observe_gate(self, nth=1):
        scenario = (
            ScenarioBuilder("observe")
            .trigger("count", "CallCountTrigger", nth=nth)
            .inject("read", ["count"], return_value=-1, errno="EIO")
            .build()
        )
        log = InjectionLog(record_passthrough=True)
        return LibraryCallGate(
            runtime=InjectionRuntime(scenario), log=log, observe_only=True
        )

    def test_observe_only_records_fired_triggers(self):
        from repro.oslib.libc import LibcResult

        gate = self._observe_gate(nth=2)
        invoke = lambda: LibcResult(value=100)
        gate.call("read", (), invoke)
        gate.call("read", (), invoke)
        records = gate.log.records
        assert [record.injected for record in records] == [False, False]
        # First call: trigger did not fire.  Second call: trigger fired but
        # observe-only suppressed the injection — the activation must still
        # be countable from the log (§7.4 methodology).
        assert records[0].trigger_ids == ()
        assert records[1].trigger_ids == ("count",)
        assert gate.observed_injections == 1
        assert gate.injected_calls == 0
        gate.reset_counters()
        assert gate.observed_injections == 0

    def test_observe_association_records_fired_triggers(self):
        from repro.oslib.libc import LibcResult

        # ``observe`` associations (injects=False) must also surface their
        # fired triggers to the log — not just observe-only gates.
        scenario = (
            ScenarioBuilder("observe-assoc")
            .trigger("count", "CallCountTrigger", nth=1)
            .observe("read", ["count"])
            .build()
        )
        log = InjectionLog(record_passthrough=True)
        gate = LibraryCallGate(runtime=InjectionRuntime(scenario), log=log)
        gate.call("read", (), lambda: LibcResult(value=100))
        assert log.records[0].injected is False
        assert log.records[0].trigger_ids == ("count",)

    def test_stack_provider_keeps_app_frames_with_colliding_basenames(self, tmp_path):
        # An *application* module that happens to be called runtime.py must
        # stay visible to stack triggers; only the gate's own files are
        # filtered (by full path, not basename).
        app_file = tmp_path / "runtime.py"
        source = (
            "def application_entry(capture):\n"
            "    return capture()\n"
        )
        app_file.write_text(source)
        code = compile(source, str(app_file), "exec")
        namespace = {}
        exec(code, namespace)

        provider = _python_stack_provider(_GATE_INTERNAL_FILES)
        frames = namespace["application_entry"](provider)
        assert any(
            frame.module == "runtime" and frame.function == "application_entry"
            for frame in frames
        )

    def test_stack_provider_still_hides_gate_internals(self):
        from repro.oslib.libc import LibcResult

        scenario = (
            ScenarioBuilder("stack")
            .trigger_with_params("cs", "CallStackTrigger", {"frame": {"function": "caller"}})
            .inject("read", ["cs"], return_value=-1, errno="EIO")
            .build()
        )
        gate = LibraryCallGate(runtime=InjectionRuntime(scenario))

        def caller():
            return gate.call("read", (), lambda: LibcResult(value=100))

        result = caller()
        assert result.injected
        record = gate.log.injections()[0]
        internal_basenames = {os.path.basename(path) for path in _GATE_INTERNAL_FILES}
        assert record.stack, "stack should have been captured"
        assert all(frame.file not in internal_basenames for frame in record.stack)


def _log_calls(monkeypatch, name, path, owner=dispatch):
    """Make every call of ``owner.<name>`` append its pid to *path* (pool
    children inherit the patch through fork); returns a reader."""
    original = getattr(owner, name)

    def logged(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)
    return lambda: [int(pid) for pid in path.read_text().split()] if path.exists() else []


def _explore_signature(parallelism, engine="compiled", share_prefixes=None, **options):
    report = LFIController(MiniGitTarget()).explore(
        workload="status", functions=["close", "malloc"], seed=7,
        store=ResultStore(), parallelism=parallelism,
        share_prefixes=share_prefixes, request_options={"engine": engine, **options},
    )
    return [
        (o.point.key, o.outcome.kind, o.outcome.detail, o.outcome.exit_code,
         o.injections, o.fingerprint, o.run_seed)
        for o in report.outcomes
    ]


def _requests_signature(parallelism):
    target = MiniGitTarget()
    points = LFIController(target).fault_space(functions=["close", "malloc"])
    requests = [
        WorkloadRequest(
            workload="status", scenario=point.scenario(), options={"engine": "compiled"}
        )
        for point in points
    ]
    return [
        (result.outcome.kind, result.outcome.detail, result.outcome.exit_code,
         result.injections)
        for result in run_requests(target, requests, parallelism)
    ]


#: Every pooled fan-out: shared and unshared explorations, and run_requests.
_FAN_OUTS = {
    "shared": _explore_signature,
    "unshared": lambda parallelism: _explore_signature(parallelism, share_prefixes=False),
    "run_requests": _requests_signature,
}


class TestBlockCodeShipping:
    """Superclosure code is generated once, in the process that fans group
    batches out; pool children inherit it at fork or receive it with a
    batch, and only bind."""

    @pytest.fixture(autouse=True)
    def fresh_images(self, monkeypatch):
        # Images with nothing bound and no code anywhere: a child that
        # binds without generating can only have got the parent's code.
        # An empty memo makes the children run, not answer from memory.
        monkeypatch.setattr(CompiledTarget, "_binary_cache", {})
        clear_artifact_cache()
        clear_suffix_memo()
        yield
        clear_artifact_cache()
        clear_suffix_memo()

    @pytest.mark.parametrize("fan_out", sorted(_FAN_OUTS))
    @pytest.mark.parametrize(
        "fork_first", [False, True], ids=["forked-after", "forked-before"]
    )
    def test_pool_children_never_generate_block_code(
        self, tmp_path, monkeypatch, fork_first, fan_out
    ):
        generations = _log_calls(monkeypatch, "generate_blocks", tmp_path / "generations.log")
        binds = _log_calls(monkeypatch, "bind_blocks", tmp_path / "binds.log")
        signature = _FAN_OUTS[fan_out]
        with ProcessPoolBackend(2) as backend:
            if fork_first:
                # Fork the pool before this process has generated anything:
                # its children must get the code with their batches.
                assert backend.map(os.getpid, [(), ()])
            pooled = signature(backend)
        assert generations() == [os.getpid()]
        assert binds() and os.getpid() not in binds()  # the children bound it
        assert pooled == signature(None)
        # The serial run bound the code this process already held.
        assert generations() == [os.getpid()]

    def test_batches_carry_only_code_their_pool_did_not_inherit(self):
        target = MiniGitTarget()
        scenarios = [point.scenario() for point in LFIController(target).fault_space()]
        entries = [(index, scenario, None) for index, scenario in enumerate(scenarios)]
        tasks = build_group_tasks(target, "status", entries, options={"engine": "compiled"})
        digest = target.binary().content_digest()
        with ProcessPoolBackend(2) as early:
            early.map(os.getpid, [()])
            batches = early._planned_batches(tasks)
            assert len(batches) == 2
            assert all(list(batch.block_code) == [digest] for batch in batches)
        with ProcessPoolBackend(2) as late:
            assert all(not batch.block_code for batch in late._planned_batches(tasks))
        reference_tasks = build_group_tasks(
            target, "status", entries, options={"engine": "reference"}
        )
        clear_artifact_cache()
        with ProcessPoolBackend(2) as early:
            early.map(os.getpid, [()])
            batches = early._planned_batches(reference_tasks)
            assert all(not batch.block_code for batch in batches)
        assert block_code_digests() == frozenset()

    def test_reference_engine_campaigns_generate_nothing(self, tmp_path, monkeypatch):
        generations = _log_calls(monkeypatch, "generate_blocks", tmp_path / "generations.log")
        with ProcessPoolBackend(2) as backend:
            pooled = _explore_signature(backend, engine="reference")
        assert pooled == _explore_signature(None, engine="reference")
        assert generations() == []
        assert block_code_digests() == frozenset()

    def test_code_is_keyed_by_image_content(self, tmp_path, monkeypatch):
        generations = _log_calls(monkeypatch, "generate_blocks", tmp_path / "generations.log")
        first = compile_source(TOY_SOURCE, name="keyed")
        other = compile_source(TOY_SOURCE.replace("malloc(16)", "malloc(32)"), name="keyed")
        assert other.instructions != first.instructions
        # A process that only binds keeps no marshalled copy.
        compiled_blocks(first)
        assert len(generations()) == 1
        assert block_code_digests() == frozenset()
        # Marshalling reuses a bound image's generated code; a different
        # instruction stream never shares it.
        assert marshalled_block_code(first) is marshalled_block_code(first)
        assert len(generations()) == 1
        assert marshalled_block_code(other) != marshalled_block_code(first)
        assert len(generations()) == 2
        assert block_code_digests() == {first.content_digest(), other.content_digest()}
        # Another image with the same content binds the marshalled code, as
        # a pool child does.
        again = compile_source(TOY_SOURCE, name="keyed")
        assert again is not first and again.instructions == first.instructions
        compiled_blocks(again)
        assert len(generations()) == 2
        # clear_artifact_cache() drops the code: the next request generates.
        clear_artifact_cache()
        assert block_code_digests() == frozenset()
        marshalled_block_code(other)
        assert len(generations()) == 3


class TestUnsharedOracle:
    """``share_prefixes=False`` is the prefix layer's oracle: each of its
    runs is one ``target.run``, which never reaches the suffix memo or the
    prefix machinery, serially or in pool children."""

    @pytest.mark.parametrize(
        "parallelism", [None, "processes:2"], ids=["serial", "processes:2"]
    )
    def test_unshared_runs_never_reach_the_memo_or_run_entry_group(
        self, tmp_path, monkeypatch, parallelism
    ):
        lookups = _log_calls(monkeypatch, "lookup", tmp_path / "lookups.log", owner=SuffixMemo)
        groups = _log_calls(
            monkeypatch, "run_entry_group", tmp_path / "groups.log", owner=prefix
        )
        unshared = _explore_signature(parallelism, share_prefixes=False, memo=True)
        assert unshared
        assert lookups() == [] and groups() == []
        # The same counters see every call the shared path makes.
        assert _explore_signature(parallelism, memo=True) == unshared
        assert lookups() and groups()


class TestProcessPoolArtifactInheritance:
    def test_forked_workers_return_equivalent_results(self):
        # The pool is created after the binary cache is warm; fork workers
        # inherit it, and results cross the process boundary intact.
        scenarios = _scenarios()
        serial = InjectionCampaign(ToyTarget()).run(scenarios, include_baseline=False)
        with ProcessPoolBackend(2) as backend:
            forked = InjectionCampaign(ToyTarget(), parallelism=backend).run(
                scenarios, include_baseline=False
            )
        assert _campaign_signature(forked) == _campaign_signature(serial)
