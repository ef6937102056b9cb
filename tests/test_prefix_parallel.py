"""Differentials and regressions for parallel prefix-group scheduling.

PR 5 contract: prefix sharing composes with the pool backends (each
scenario group becomes one task of a worker's batch) and groups share
more — prefix trees across call-count variants, errno-blind suffix
replication — while every result stays **bit-identical** to the serial
shared path and to the plain per-scenario path, on every backend.
"""

import pytest

from repro.core.controller.campaign import TestCampaign as Campaign
from repro.core.controller.controller import LFIController
from repro.core.controller import prefix
from repro.core.controller.executor import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.core.controller.prefix import (
    iter_shared_runs,
    partition_entries,
    resolve_sharing,
    scenario_group_key,
    scenario_group_key_parts,
    scenario_group_rank,
)
from repro.core.controller.target import WorkloadRequest
from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.space import enumerate_structured_space
from repro.core.exploration.store import ResultStore
from repro.core.scenario.builder import ScenarioBuilder
from repro.targets.mini_apache.target import MiniApacheTarget
from repro.targets.mini_bind import MiniBindTarget
from repro.targets.mini_git import MiniGitTarget
from repro.targets.mini_mysql import MiniMySQLTarget
from repro.targets.pbft import PBFTCheckpointTarget


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
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


def _result_observables(result):
    return {
        "kind": result.outcome.kind,
        "detail": result.outcome.detail,
        "exit_code": result.outcome.exit_code,
        "injections": result.injections,
        "log": [record.to_dict() for record in result.log.records],
    }


def _coverage_observables(campaign):
    out = []
    for outcome in campaign.outcomes:
        tracker = outcome.result.stats.get("coverage")
        out.append(
            None
            if tracker is None
            else {a: tracker.hit_count(a) for a in tracker.covered_addresses}
        )
    return out


def _fault_space_scenarios(target):
    controller = LFIController(target)
    analysis = controller.analyze_target()
    points = controller.fault_space(analysis=analysis, include_checked=True)
    return [point.scenario() for point in points]


def _call_count_variants(function="read", counts=(1, 2, 4), errnos=("EIO", "EINTR")):
    scenarios = []
    for nth in counts:
        for errno in errnos:
            builder = ScenarioBuilder(f"{function}-{nth}-{errno}")
            builder.trigger("count", "CallCountTrigger", nth=nth)
            builder.inject(function, ["count"], return_value=-1, errno=errno)
            scenarios.append(builder.build())
    return scenarios


# ----------------------------------------------------------------------
# hierarchical group keys (prefix trees)
# ----------------------------------------------------------------------
class TestHierarchicalKeys:
    def test_call_count_variants_share_base_key_with_ranks(self):
        scenarios = _call_count_variants()
        parts = [scenario_group_key_parts(s) for s in scenarios]
        assert len({base for base, _rank in parts}) == 1
        assert [rank for _base, rank in parts] == [
            (1,), (1,), (2,), (2,), (4,), (4,)
        ]
        groups, ungrouped = partition_entries(
            [(i, s, None) for i, s in enumerate(scenarios)]
        )
        assert not ungrouped
        assert len(groups) == 1
        # members ordered by (rank, submission index)
        assert [entry[0] for entry in groups[0]] == [0, 1, 2, 3, 4, 5]

    def test_multiple_call_count_triggers_stay_flat(self):
        builder = ScenarioBuilder("two-counts")
        builder.trigger("a", "CallCountTrigger", nth=1)
        builder.trigger("b", "CallCountTrigger", nth=3)
        builder.inject("read", ["a", "b"], return_value=-1, errno="EIO")
        scenario = builder.build()
        base, rank = scenario_group_key_parts(scenario)
        assert rank == ()
        assert "3" in base  # the counts stay in the flat fingerprint

    def test_periodic_count_trigger_stays_flat(self):
        builder = ScenarioBuilder("periodic")
        builder.trigger("a", "CallCountTrigger", nth=2, every=2)
        builder.inject("read", ["a"], return_value=-1, errno="EIO")
        assert scenario_group_rank(builder.build()) == ()

    def test_count_trigger_on_observe_plan_stays_flat(self):
        builder = ScenarioBuilder("observe-count")
        builder.trigger("a", "CallCountTrigger", nth=2)
        builder.trigger("b", "SingletonTrigger")
        builder.observe("close", ["a"])
        builder.inject("read", ["b"], return_value=-1, errno="EIO")
        assert scenario_group_rank(builder.build()) == ()

    def test_flat_key_still_groups_errno_families(self):
        target = MiniGitTarget()
        by_key = {}
        for scenario in _fault_space_scenarios(target):
            key = scenario_group_key(scenario)
            assert key is not None
            by_key.setdefault(key, []).append(scenario)
        assert any(len(group) > 1 for group in by_key.values())


# ----------------------------------------------------------------------
# sharing guard (bugfix: explicit True bypassed the soundness check)
# ----------------------------------------------------------------------
class _UnshareableTarget:
    name = "unshareable"
    prefix_shareable = False

    def workloads(self):
        return ["default"]

    def binary(self):
        return None

    def run(self, request):  # pragma: no cover - never reached in the tests
        raise AssertionError("should not run")


#: Targets that declare no deterministic execution: a stub, and the
#: Python-level facade servers, which run every scenario on its own.
UNSHAREABLE_TARGETS = (_UnshareableTarget, MiniApacheTarget, MiniMySQLTarget)


class TestSharingGuard:
    def test_explicit_true_on_unshareable_target_raises(self):
        for make_target in UNSHAREABLE_TARGETS:
            target = make_target()
            with pytest.raises(ValueError, match="prefix_shareable"):
                resolve_sharing(True, target)
            campaign = Campaign(target)
            with pytest.raises(ValueError, match="prefix_shareable"):
                campaign.run([], include_baseline=False, share_prefixes=True)
            engine = ExplorationEngine(
                target, store=ResultStore(), share_prefixes=True,
                workload=target.workloads()[0],
            )
            with pytest.raises(ValueError, match="prefix_shareable"):
                engine.explore([])

    def test_none_still_auto_detects(self):
        assert resolve_sharing(None, MiniGitTarget()) is True
        assert resolve_sharing(False, MiniGitTarget()) is False
        deterministic = (
            ScenarioBuilder("late-read")
            .trigger("late", "CallCountTrigger", nth=3)
            .inject("read", ["late"], return_value=-1, errno="EIO")
            .build()
        )
        for make_target in UNSHAREABLE_TARGETS:
            target = make_target()
            assert resolve_sharing(None, target) is False
            # Unshared runs are unmemoized too: such a target has no memo
            # context, so no deterministic scenario gets a memo key on it.
            assert prefix.scenario_keys(deterministic)[1] is not None
            assert prefix.resolve_memo_context(
                target, target.workloads()[0], False, {"memo": True}, False
            ) is None
            # None on an unshareable target quietly takes the per-scenario path.
            campaign = Campaign(target)
            result = campaign.run([], include_baseline=False)
            assert result.outcomes == []


# ----------------------------------------------------------------------
# executor bugfixes
# ----------------------------------------------------------------------
def _boom(value):
    if value < 0:
        raise RuntimeError("boom")
    return value


def _slow_marking(item):
    """Mark *item* as started in its log file, then take a while."""
    import time

    path, value = item
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    time.sleep(0.01)
    return value


class TestExecutorFixes:
    def test_negative_parallelism_spec_raises(self):
        with pytest.raises(ValueError, match="negative"):
            resolve_backend(-1)
        with pytest.raises(ValueError, match="negative"):
            resolve_backend(-4)
        assert isinstance(resolve_backend(0), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_map_cancels_pending_futures_on_failure(self):
        backend = ProcessPoolBackend(1)
        with backend:
            # One worker: the failing head task is processed first, so the
            # queued tail must be cancelled rather than leaked.
            with pytest.raises(RuntimeError, match="boom"):
                backend.map(_boom, [(-1,)] + [(i,) for i in range(64)])
            pool = backend._pool
            assert pool is not None
        # close() returned: shutdown(wait=True) would hang on leaked work
        # only if cancellation failed; reaching here is the assertion.

    def test_iter_cancels_outstanding_on_early_close(self, tmp_path):
        backend = ProcessPoolBackend(1)
        log = tmp_path / "started.log"
        with backend:
            iterator = backend._pair_iter(
                _slow_marking, [(str(log), value) for value in range(128)]
            )
            next(iterator)
            iterator.close()
        # Cancelled tasks never start: with one worker and an immediate
        # close, almost all of the 128 submissions must have been cancelled.
        assert len(log.read_text().split()) < 8

    def test_campaign_raises_on_result_count_mismatch(self):
        class TruncatingBackend(SerialBackend):
            def run_group_batches_iter(self, tasks):
                # Drains every task but drops the last one's result.
                *drained, _dropped = list(super().run_group_batches_iter(tasks))
                return iter(drained)

        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:3]
        campaign = Campaign(target, workload="status")
        with pytest.raises(RuntimeError, match="3 scenarios"):
            campaign.run(
                scenarios,
                include_baseline=False,
                share_prefixes=False,
                parallelism=TruncatingBackend(),
            )


# ----------------------------------------------------------------------
# observe-only propagation (a resumed member's gate must observe too)
# ----------------------------------------------------------------------
class TestObserveOnlyPropagation:
    def test_resume_member_mid_threads_observe_only(self, monkeypatch):
        # The one resume function builds each resumed member's gate.
        class _Stop(Exception):
            pass

        seen = {}

        def spy(scenario, observe_only=False, **kwargs):
            seen["observe_only"] = observe_only
            raise _Stop()

        monkeypatch.setattr(prefix, "make_gate", spy)
        with pytest.raises(_Stop):
            prefix._resume_member(
                None, None, [], None, ScenarioBuilder("s").build(),
                None, False, {}, observe_only=True,
            )
        assert seen["observe_only"] is True

    def test_observe_only_shared_runs_identical_and_injection_free(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:12]
        from repro.core.controller.target import WorkloadRequest

        plain = [
            target.run(
                WorkloadRequest(workload="status", scenario=s, observe_only=True)
            )
            for s in scenarios
        ]
        entries = [(index, scenario, None) for index, scenario in enumerate(scenarios)]
        shared = dict(
            iter_shared_runs(target, "status", entries, SerialBackend(), observe_only=True)
        )
        assert [_result_observables(shared[i]) for i in range(len(scenarios))] == [
            _result_observables(r) for r in plain
        ]
        assert all(r.injections == 0 for r in shared.values())


# ----------------------------------------------------------------------
# the parallel-shared differential
# ----------------------------------------------------------------------
COMPILED_TARGETS = (MiniGitTarget, MiniBindTarget, PBFTCheckpointTarget)


class TestParallelSharedDifferential:
    @pytest.mark.parametrize("target_class", COMPILED_TARGETS)
    def test_pooled_shared_identical_to_serial_shared_and_plain(self, target_class):
        target = target_class()
        workload = target.workloads()[0]
        scenarios = _fault_space_scenarios(target)[:24]
        campaign = Campaign(target, workload=workload)
        plain = campaign.run(
            scenarios, seed=3, include_baseline=False, share_prefixes=False
        )
        serial_shared = campaign.run(
            scenarios, seed=3, include_baseline=False, share_prefixes=True
        )
        reference = _campaign_observables(plain)
        assert _campaign_observables(serial_shared) == reference
        pooled = campaign.run(
            scenarios, seed=3, include_baseline=False,
            share_prefixes=True, parallelism="processes:2",
        )
        assert _campaign_observables(pooled) == reference

    def test_pooled_shared_with_coverage_identical(self):
        target = MiniGitTarget()
        scenarios = _fault_space_scenarios(target)[:12]
        campaign = Campaign(target, workload="commit")
        plain = campaign.run(
            scenarios, include_baseline=False, collect_coverage=True,
            share_prefixes=False,
        )
        pooled = campaign.run(
            scenarios, include_baseline=False, collect_coverage=True,
            share_prefixes=True, parallelism="processes:2",
        )
        assert _campaign_observables(pooled) == _campaign_observables(plain)
        assert _coverage_observables(pooled) == _coverage_observables(plain)

    def test_apache_pooled_identical_to_serial(self):
        target = MiniApacheTarget()
        scenarios = []
        for caller, function, errnos in (
            ("_read_whole_file", "apr_file_read", ("EIO", "EINTR", "EAGAIN")),
            ("log_request", "write", ("EIO", "ENOSPC")),
        ):
            for nth in (1, 9):
                for errno in errnos:
                    builder = ScenarioBuilder(f"{caller}-{nth}-{errno}")
                    builder.trigger_with_params(
                        "site", "CallStackTrigger",
                        {"frame": {"module": "httpd_core", "function": caller}},
                    )
                    builder.trigger("count", "CallCountTrigger", nth=nth)
                    builder.trigger("once", "SingletonTrigger")
                    builder.inject(
                        function, ["site", "count", "once"],
                        return_value=-1, errno=errno,
                    )
                    scenarios.append(builder.build())
        campaign = Campaign(target, workload="ab-static")
        serial = campaign.run(scenarios, include_baseline=False, requests=12)
        pooled = campaign.run(
            scenarios, include_baseline=False, requests=12,
            parallelism="processes:2",
        )
        assert _campaign_observables(pooled) == _campaign_observables(serial)
        assert any(outcome.result.injections for outcome in serial.outcomes)

    def test_pooled_shared_exploration_identical_and_resumable(self):
        target = MiniGitTarget()
        controller = LFIController(target)
        analysis = controller.analyze_target()
        points = controller.fault_space(analysis=analysis, include_checked=True)

        def explore(parallelism, share, store=None, max_runs=None):
            engine = ExplorationEngine(
                target, store=store if store is not None else ResultStore(),
                seed=11, workload="status", parallelism=parallelism,
                share_prefixes=share,
            )
            return engine.explore(points, max_runs=max_runs)

        reference = explore(None, False)

        def observables(report):
            return [
                (o.point.key, o.outcome.kind, o.outcome.detail, o.injections,
                 o.fingerprint, o.run_seed)
                for o in report.outcomes
            ]

        pooled = explore("processes:2", True)
        assert observables(pooled) == observables(reference)
        # Interrupted pooled-shared exploration resumes seamlessly (group
        # checkpoints are path-independent).
        store = ResultStore()
        partial_report = explore("processes:2", True, store=store, max_runs=7)
        assert partial_report.pending > 0
        resumed = explore(None, False, store=store)
        assert observables(resumed) == observables(reference)
        assert resumed.resumed >= 7


# ----------------------------------------------------------------------
# the one resume path: every resumed member re-executes its divergence
# call through its own gate, whatever the fault class
# ----------------------------------------------------------------------
def _resume_case(klass):
    """A target, workload and scenarios whose groups resume same-rank
    members under *klass*: the structured classes on mini_git's
    ``default-tests``; errno on mini_bind's, whose suffixes read errno (on
    mini_git an errno family collapses onto blind replicas instead)."""
    if klass == "errno":
        target = MiniBindTarget()
        return target, "default-tests", _fault_space_scenarios(target)
    target = MiniGitTarget()
    scenarios = [
        point.scenario() for point in enumerate_structured_space("mini_git", (klass,))
    ]
    return target, "default-tests", scenarios


class TestOneResumePath:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    @pytest.mark.parametrize(
        "klass", ["errno", "partial_write", "short_read", "clock_skew", "clock_jump"]
    )
    def test_every_shareable_class_resumes_through_the_gate(
        self, monkeypatch, klass, engine
    ):
        target, workload, scenarios = _resume_case(klass)
        resumes = {"same_rank": 0, "rank_advance": 0}
        resume = prefix._resume_member

        def counting(*args, **kwargs):
            resumes["rank_advance" if kwargs.get("nest") else "same_rank"] += 1
            return resume(*args, **kwargs)

        monkeypatch.setattr(prefix, "_resume_member", counting)
        campaign = Campaign(target, workload=workload)
        plain = campaign.run(
            scenarios, seed=3, include_baseline=False, share_prefixes=False,
            engine=engine,
        )
        assert resumes == {"same_rank": 0, "rank_advance": 0}
        # Captures need a boot template, and a memo hit would skip the run:
        # pin both so the oracle leg's defaults still take the resume path.
        shared = campaign.run(
            scenarios, seed=3, include_baseline=False, share_prefixes=True,
            engine=engine, snapshots=True, memo=False,
        )
        assert resumes["same_rank"] > 0
        assert [o.result for o in shared.outcomes] == [o.result for o in plain.outcomes]
        assert any(o.result.injections for o in shared.outcomes)

    def test_snapshot_free_groups_run_members_plain(self, monkeypatch):
        # mini_git's status workload reads through read() but never calls
        # time(): short_read groups inject (their members must run plain),
        # clock groups never do (their members are the probe's replicas).
        target = MiniGitTarget()
        scenarios = [
            point.scenario()
            for point in enumerate_structured_space(
                "mini_git", ("short_read", "clock_skew")
            )
        ]
        ran_plain = []
        resumes = []
        original = prefix.plain_run

        def recording(target, workload, scenario, *args, **kwargs):
            ran_plain.append(scenario)
            return original(target, workload, scenario, *args, **kwargs)

        monkeypatch.setattr(prefix, "plain_run", recording)
        monkeypatch.setattr(
            prefix, "_resume_member", lambda *a, **k: resumes.append(a)
        )
        campaign = Campaign(target, workload="status")
        shared = campaign.run(
            scenarios, include_baseline=False, share_prefixes=True,
            snapshots=False, memo=False,
        )
        assert resumes == []
        results = [outcome.result for outcome in shared.outcomes]
        groups, _ungrouped = partition_entries(
            [(index, scenario, None) for index, scenario in enumerate(scenarios)]
        )
        assert groups
        plain_members = replicas = 0
        for group in groups:
            probe = results[group[0].index]
            for entry in group[1:]:
                replica = results[entry.index] is probe
                assert replica != any(s is entry.scenario for s in ran_plain)
                if replica:
                    assert probe.injections == 0
                    replicas += 1
                else:
                    plain_members += 1
        assert plain_members and replicas
        oracle = campaign.run(
            scenarios, include_baseline=False, share_prefixes=False,
            snapshots=False,
        )
        assert results == [outcome.result for outcome in oracle.outcomes]


# ----------------------------------------------------------------------
# prefix trees + errno-blind suffix replication
# ----------------------------------------------------------------------
class TestPrefixTrees:
    def test_tree_campaign_identical_without_plain_fallback(self, monkeypatch):
        target = MiniGitTarget()
        scenarios = _call_count_variants()
        campaign = Campaign(target, workload="default-tests")
        plain = campaign.run(
            scenarios, seed=7, include_baseline=False, share_prefixes=False
        )

        fallbacks = []
        original = MiniGitTarget.run

        def counting_run(self, request):
            fallbacks.append(request)
            return original(self, request)

        monkeypatch.setattr(MiniGitTarget, "run", counting_run)
        # Snapshots pinned on: only a boot template captures, so only a
        # snapshot-backed group resumes its members (without one they run
        # plain, the oracle leg's default).
        shared = campaign.run(
            scenarios, seed=7, include_baseline=False, share_prefixes=True,
            snapshots=True,
        )
        assert _campaign_observables(shared) == _campaign_observables(plain)
        # Every member ran via probe/resume/replication — the tree never
        # degraded to the plain per-scenario path.
        assert fallbacks == []

    def test_tree_campaign_identical_on_reference_engine(self):
        target = MiniGitTarget()
        scenarios = _call_count_variants(counts=(1, 3))
        campaign = Campaign(target, workload="status")
        plain = campaign.run(
            scenarios, include_baseline=False, share_prefixes=False,
            engine="reference",
        )
        shared = campaign.run(
            scenarios, include_baseline=False, share_prefixes=True,
            engine="reference",
        )
        assert _campaign_observables(shared) == _campaign_observables(plain)

    def test_errno_blind_family_collapses_onto_one_suffix(self):
        import repro.targets.base as base

        target = MiniGitTarget()
        # mini_git never reads errno after a faulted read, so the three
        # errno variants are suffix replicas of one probe run.
        scenarios = _call_count_variants(
            counts=(1,), errnos=("EIO", "EINTR", "EAGAIN")
        )
        executions = {"n": 0}
        original = base.CompiledTarget.execute_plan

        def counting(self, *args, **kwargs):
            executions["n"] += 1
            return original(self, *args, **kwargs)

        base.CompiledTarget.execute_plan = counting
        try:
            # Snapshots pinned on: suffix replication needs the mid-run
            # capture machinery, which the REPRO_SNAPSHOTS=0 oracle leg
            # would otherwise disable.
            campaign = Campaign(target, workload="default-tests").run(
                scenarios, include_baseline=False, share_prefixes=True,
                snapshots=True,
            )
            results = [outcome.result for outcome in campaign.outcomes]
        finally:
            base.CompiledTarget.execute_plan = original
        assert executions["n"] == 1  # the probe; siblings replicated
        assert [r.injections for r in results] == [1, 1, 1]
        errnos = [r.log.records[-1].fault.errno for r in results]
        assert len(set(errnos)) == 3  # each replica carries its own errno

    def test_errno_sibling_replica_equals_the_members_full_run(self, monkeypatch):
        target = MiniGitTarget()
        scenarios = _call_count_variants(
            counts=(1,), errnos=("EIO", "EINTR", "EAGAIN")
        )
        replicas = []
        original = prefix.patch_replica_errno

        def recording(*args):
            replica = original(*args)
            replicas.append(replica)
            return replica

        monkeypatch.setattr(prefix, "patch_replica_errno", recording)
        shared = Campaign(target, workload="default-tests").run(
            scenarios, include_baseline=False, share_prefixes=True,
            snapshots=True, memo=False,
        )
        assert len([replica for replica in replicas if replica is not None]) == 2
        for scenario, outcome in zip(scenarios, shared.outcomes):
            full = target.run(WorkloadRequest(
                workload="default-tests", scenario=scenario,
                options={"snapshots": False},
            ))
            # The whole value: outcome, every log record, call counts and
            # the published OS.
            assert outcome.result == full

    def test_errno_reading_target_keeps_distinct_suffixes(self):
        # mini_bind branches on errno (ENOENT handling), so errno variants
        # must genuinely run — and still match the plain path bit for bit.
        target = MiniBindTarget()
        scenarios = _fault_space_scenarios(target)
        open_family = [
            s for s in scenarios
            if s.metadata.get("target_function") == "open"
        ][:6]
        assert len(open_family) >= 2
        workload = target.workloads()[0]
        campaign = Campaign(target, workload=workload)
        plain = campaign.run(
            open_family, include_baseline=False, share_prefixes=False
        )
        shared = campaign.run(
            open_family, include_baseline=False, share_prefixes=True
        )
        assert _campaign_observables(shared) == _campaign_observables(plain)

    def test_errno_address_taken_flag(self):
        from repro.minicc import compile_source

        aliased = compile_source(
            "int main() { int p; p = &errno; if (*p == 2) { return 1; } return 0; }",
            name="alias-flag-probe",
        )
        assert aliased.errno_address_taken is True
        plain = compile_source(
            "int main() { if (errno == 4) { return 1; } return 0; }",
            name="plain-flag-probe",
        )
        assert plain.errno_address_taken is False
        # The shipped targets never take errno's address, so blind
        # replication stays live for them.
        assert MiniGitTarget().binary().errno_address_taken is False

    def test_errno_alias_disables_blind_replication(self):
        # A suffix that branches on errno *through a pointer* is invisible
        # to the compiled engine's errno-read counter; the image-level
        # alias flag must veto blind replication so errno siblings still
        # genuinely run — and match the plain path bit for bit.
        from repro.core.controller.target import WorkloadRequest
        from repro.oslib.os_model import SimOS
        from repro.targets.base import CompiledTarget, WorkloadStep

        class ErrnoAliasTarget(CompiledTarget):
            name = "errno-alias-target"

            def source(self):
                return """
                int main() {
                    int fd;
                    int n;
                    int p;
                    int buf[8];
                    fd = open("/data.txt", 0);
                    n = read(fd, buf, 4);
                    if (n < 0) {
                        p = &errno;
                        if (*p == 5) { return 5; }
                        return 7;
                    }
                    close(fd);
                    return 0;
                }
                """

            def make_os(self):
                os = SimOS(self.name)
                os.fs.add_file("/data.txt", b"abcd")
                return os

            def workload_plan(self, workload):
                return [WorkloadStep()]

            def workloads(self):
                return ["default"]

        target = ErrnoAliasTarget()
        assert target.binary().errno_address_taken is True
        scenarios = _call_count_variants(
            function="read", counts=(1,), errnos=("EIO", "EINTR")
        )
        plain = [
            target.run(WorkloadRequest(workload="default", scenario=s))
            for s in scenarios
        ]
        campaign = Campaign(target, workload="default").run(
            scenarios, include_baseline=False, share_prefixes=True
        )
        shared = [outcome.result for outcome in campaign.outcomes]
        assert [_result_observables(r) for r in shared] == [
            _result_observables(r) for r in plain
        ]
        # EIO (5) takes the == 5 branch, EINTR (4) the other: a wrongly
        # blind replica would have collapsed both onto one exit code.
        assert [r.outcome.exit_code for r in shared] == [5, 7]

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_errno_read_counter_counts_program_reads(self, engine):
        from repro.minicc import compile_source
        from repro.vm.machine import Machine

        source = """
        int main() {
            int fd;
            int seen;
            seen = 0;
            fd = open("/does/not/exist", 0);
            if (fd < 0) {
                seen = errno;
                if (errno == 2) {
                    return seen;
                }
            }
            return 0;
        }
        """
        binary = compile_source(source, name=f"errno-probe-{engine}")
        machine = Machine(binary, engine=engine)
        status = machine.run()
        assert status.code == 2  # ENOENT observed by the program
        assert machine.libc.errno_reads == 2  # exactly the two errno reads
