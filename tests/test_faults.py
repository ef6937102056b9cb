"""Tests for the structured fault-class layer (PR 8 tentpole + satellites).

Covers the acceptance criteria: every fault class applies identically under
the compiled and reference VM engines, partial-write and crash-point sweeps
are bit-identical across serial / pooled / distributed execution, the
crash-consistency campaign detects the seeded mini_git short-write bug, a
usage-profile report is built from a real campaign trace, and the
satellites — spec validation at submit, delivery-hook hygiene, fault-spec
serialization round-trips with old-store forward compatibility.
"""

import json
import threading

import pytest

from repro.core.controller.monitor import OutcomeKind
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.core.exploration import ResultStore, StoredResult, priority_order
from repro.core.exploration.engine import ExplorationEngine
from repro.core.exploration.space import (
    StructuredFaultPoint,
    enumerate_structured_space,
)
from repro.core.faults import (
    FAULT_CLASSES,
    UNSHAREABLE_CLASSES,
    DropAllHook,
    PartitionHook,
    class_names,
    is_structured_class,
    make_fault,
    structured_scenario,
)
from repro.core.injection.log import InjectionRecord
from repro.coverage.report import build_usage_profile
from repro.distributed.client import CampaignServerError
from repro.distributed.spec import CampaignSpec, build_engine, validate_spec
from repro.oslib.facade import LibcFacade
from repro.oslib.net import SimNetwork
from repro.oslib.os_model import SimOS
from repro.targets.mini_git import MiniGitTarget
from repro.targets.mini_mysql import MiniMySQLTarget
from repro.targets.mini_mysql.myisam import MyISAMEngine
from repro.targets.mini_mysql.server import TABLE_PATH
from repro.targets.pbft import PBFTTarget

from test_campaignd import _Fabric


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _outcome_signature(result):
    outcome = result.outcome
    return (
        outcome.kind,
        outcome.detail,
        outcome.exit_code,
        outcome.location,
        result.injections,
    )


def _report_signature(report):
    return [
        (o.point.key, o.outcome.kind, o.outcome.detail, o.outcome.exit_code,
         o.outcome.location, o.injections, o.fingerprint, o.run_seed)
        for o in report.outcomes
    ]


def _run_git(scenario, workload="commit", options=None):
    return MiniGitTarget().run(
        WorkloadRequest(workload=workload, scenario=scenario,
                        options=dict(options or {}))
    )


#: One representative (function, nth, params, workload) per VM-applicable
#: class, chosen so the trigger actually fires on the workload.
VM_CLASS_PROBES = [
    ("partial_write", "write", 2, {"fraction": 0.5}, "commit"),
    ("short_read", "read", 1, {"fraction": 0.5}, "status"),
    ("fd_exhaustion", "open", 1, {"budget": 2}, "commit"),
    ("heap_exhaustion", "malloc", 1, {"budget": 2}, "merge"),
    ("clock_skew", "time", 1, {"delta": 5.0}, "commit"),
    ("clock_jump", "time", 1, {"delta": 86400.0}, "commit"),
    ("crash_point", "write", 2, {"torn": 1, "fraction": 0.5}, "commit"),
]

NET_CLASS_PROBES = [
    ("net_drop", {}),
    ("net_partition", {"scope": "dst"}),
    ("net_reorder", {}),
]


# ----------------------------------------------------------------------
# taxonomy registry
# ----------------------------------------------------------------------
class TestFaultClassRegistry:
    def test_every_class_is_registered_and_probed(self):
        probed = {name for name, *_ in VM_CLASS_PROBES}
        probed |= {name for name, _ in NET_CLASS_PROBES}
        assert probed == set(class_names()) == set(FAULT_CLASSES)

    def test_class_predicates(self):
        assert is_structured_class("partial_write")
        assert not is_structured_class("errno")
        assert "crash_point" in UNSHAREABLE_CLASSES
        assert "partial_write" not in UNSHAREABLE_CLASSES

    def test_make_fault_carries_class_and_ramp_errnos(self):
        fault = make_fault("fd_exhaustion", {"budget": 2})
        assert fault.fault_class == "fd_exhaustion"
        assert fault.return_value == -1 and fault.errno is not None
        with pytest.raises(ValueError, match="unknown fault class"):
            make_fault("bogus_class")
        with pytest.raises(ValueError, match="ScenarioBuilder.inject"):
            make_fault("errno")

    def test_structured_point_keys_are_stable_and_unique(self):
        points = enumerate_structured_space("mini_git", class_names())
        keys = [point.key for point in points]
        assert len(keys) == len(set(keys))
        assert "mini_git:write#1:partial_write[fraction=0.5]" in keys
        assert "mini_git:write#1:crash_point[torn=0]" in keys
        # Priority ordering is a permutation — no point is lost or invented.
        ordered = priority_order(points)
        assert sorted(p.key for p in ordered) == sorted(keys)

    def test_every_class_space_sweeps_to_completion(self):
        # Each class's whole enumerated space, on the target that can
        # express it: the network classes need the PBFT cluster's wire.
        net_classes = {name for name, _ in NET_CLASS_PROBES}
        for klass in class_names():
            if klass in net_classes:
                target, workload = PBFTTarget(), "simple"
            else:
                target, workload = MiniGitTarget(), "commit"
            points = enumerate_structured_space(target.name, [klass])
            report = ExplorationEngine(
                target, seed=13, workload=workload, store=ResultStore()
            ).explore(points)
            assert report.complete, klass
            assert report.executed == len(points) > 0, klass

    def test_unknown_class_enumeration_raises(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            enumerate_structured_space("mini_git", ["bogus"])


# ----------------------------------------------------------------------
# tentpole: every class differentially guaranteed
# ----------------------------------------------------------------------
class TestDifferentialEngines:
    """Compiled vs. reference VM engine: bit-identical per class."""

    @pytest.mark.parametrize(
        "klass,function,nth,params,workload",
        VM_CLASS_PROBES,
        ids=[probe[0] for probe in VM_CLASS_PROBES],
    )
    def test_class_identical_under_both_engines(
        self, klass, function, nth, params, workload
    ):
        scenario = structured_scenario(klass, function, nth=nth, params=params)
        compiled = _run_git(scenario, workload, {"engine": "compiled"})
        reference = _run_git(scenario, workload, {"engine": "reference"})
        assert compiled.injections >= 1  # the probe actually fired
        assert _outcome_signature(compiled) == _outcome_signature(reference)

    @pytest.mark.parametrize(
        "klass,params", NET_CLASS_PROBES, ids=[probe[0] for probe in NET_CLASS_PROBES]
    )
    def test_net_classes_deterministic_on_pbft(self, klass, params):
        """Network classes only exist on the Python cluster (no compiled
        engine) — the differential guarantee there is run-to-run
        determinism of the whole cluster under the fault."""
        def run():
            scenario = structured_scenario(klass, "sendto", nth=5, params=params)
            return PBFTTarget().run(
                WorkloadRequest(workload="simple", scenario=scenario)
            )

        first, second = run(), run()
        assert first.injections == second.injections >= 1
        assert _outcome_signature(first) == _outcome_signature(second)
        assert first.stats["messages_sent"] == second.stats["messages_sent"]
        assert first.stats["rounds"] == second.stats["rounds"]

    def test_partial_write_truncates_on_disk(self):
        scenario = structured_scenario(
            "partial_write", "write", nth=2, params={"fraction": 0.5}
        )
        result = _run_git(scenario, "commit")
        # The seeded short-write blind spot: the 16-byte object write is
        # truncated to 8 bytes, mini_git treats the short count as success,
        # and the data-loss oracle catches the torn object.
        assert result.outcome.kind is OutcomeKind.DATA_LOSS
        assert "truncated (8 of 16 bytes)" in result.outcome.detail

    def test_clock_jump_advances_simulated_clock(self):
        scenario = structured_scenario(
            "clock_jump", "time", nth=1, params={"delta": 86400.0}
        )
        result = _run_git(scenario, "commit")
        assert result.injections == 1
        assert result.outcome.kind is OutcomeKind.NORMAL


# ----------------------------------------------------------------------
# tentpole: crash-consistency kills and recovery
# ----------------------------------------------------------------------
class TestCrashPoints:
    def test_crash_with_rerun_recovery_heals(self):
        # Default recovery re-runs the crashed workload; write_object then
        # rewrites the torn object completely, so recovery is clean and the
        # kill itself is not reported as a bug.
        scenario = structured_scenario(
            "crash_point", "write", nth=2, params={"torn": 1, "fraction": 0.5}
        )
        result = _run_git(scenario, "commit")
        assert result.outcome.kind is OutcomeKind.NORMAL
        assert result.outcome.detail.startswith("recovered after [crash injected")

    def test_crash_with_foreign_recovery_exposes_torn_state(self):
        # Recovery via the "status" workload never rewrites the object, so
        # the torn 8-byte file survives recovery and the oracle reports it.
        scenario = structured_scenario(
            "crash_point", "write", nth=2,
            params={"torn": 1, "fraction": 0.5}, recovery_workload="status",
        )
        result = _run_git(scenario, "commit")
        assert result.outcome.kind is OutcomeKind.DATA_LOSS
        assert "truncated" in result.outcome.detail

    def test_crash_without_recovery_metadata_is_world_crash(self):
        scenario = structured_scenario(
            "crash_point", "write", nth=2, params={"torn": 0}
        )
        del scenario.metadata["recovery_workload"]
        result = _run_git(scenario, "commit")
        assert result.outcome.kind is OutcomeKind.WORLD_CRASH
        assert not result.outcome.kind.is_high_impact  # oracles still ran

    def test_crash_campaign_detects_seeded_bug(self):
        """The acceptance test: a crash-consistency campaign over enumerated
        crash points — plus the recovery dimension — finds the seeded
        mini_git short-write bug."""
        points = list(enumerate_structured_space("mini_git", ["crash_point"]))
        # Sweep the recovery dimension as first-class points: each torn
        # crash point is also explored with a post-crash "status" recovery.
        for point in list(points):
            if dict(point.params).get("torn"):
                points.append(
                    StructuredFaultPoint(
                        binary=point.binary, function=point.function,
                        address=0, category="structured",
                        return_value=point.return_value, errno=point.errno,
                        fault_index=point.fault_index, site=None,
                        klass=point.klass,
                        params=tuple(sorted(
                            dict(point.params, recovery="status").items()
                        )),
                        occurrence=point.occurrence,
                    )
                )
        engine = ExplorationEngine(
            MiniGitTarget(), seed=13, workload="commit", store=ResultStore()
        )
        report = engine.explore(points)
        assert report.complete
        data_loss = [
            o for o in report.outcomes
            if o.outcome.kind is OutcomeKind.DATA_LOSS
        ]
        assert data_loss, "campaign failed to find the seeded short-write bug"
        assert all("truncated" in o.outcome.detail for o in data_loss)
        # The finding names the recovery dimension in its point key.
        assert any("recovery=status" in o.point.key for o in data_loss)

    def test_partial_write_campaign_detects_seeded_bug(self):
        engine = ExplorationEngine(
            MiniGitTarget(), seed=13, workload="commit", store=ResultStore()
        )
        report = engine.explore(
            enumerate_structured_space("mini_git", ["partial_write"])
        )
        hits = [o for o in report.outcomes if o.outcome.kind is OutcomeKind.DATA_LOSS]
        assert hits and all(o.point.klass == "partial_write" for o in hits)


# ----------------------------------------------------------------------
# tentpole: serial == pooled == distributed
# ----------------------------------------------------------------------
SWEEP_CLASSES = ["crash_point", "partial_write"]


def _sweep_engine(parallelism=None, store=None, request_options=None):
    engine = ExplorationEngine(
        MiniGitTarget(), seed=13, workload="commit",
        store=store if store is not None else ResultStore(),
        parallelism=parallelism, request_options=request_options,
    )
    points = enumerate_structured_space("mini_git", SWEEP_CLASSES)
    return engine, points


class TestExecutionPathIdentity:
    def test_pooled_sweep_bit_identical_to_serial(self):
        serial_engine, points = _sweep_engine()
        serial = serial_engine.explore(points)
        pooled_engine, points = _sweep_engine(parallelism="processes:4")
        pooled = pooled_engine.explore(points)
        assert serial.executed == len(points) > 0
        assert _report_signature(pooled) == _report_signature(serial)

    def test_reference_engine_sweep_bit_identical_to_compiled(self):
        # TestDifferentialEngines checks one probe per class; this holds
        # every point of the sweep (write#1 and fraction=0.0 included) to
        # the reference engine, memo off so both engines really run.
        compiled_engine, points = _sweep_engine(
            request_options={"engine": "compiled", "memo": False})
        compiled = compiled_engine.explore(points)
        reference_engine, points = _sweep_engine(
            request_options={"engine": "reference", "memo": False})
        reference = reference_engine.explore(points)
        assert compiled.executed == len(points) > 0
        assert _report_signature(reference) == _report_signature(compiled)

    def test_distributed_sweep_bit_identical_to_serial(self, tmp_path):
        spec = CampaignSpec(
            target="mini_git", workload="commit", seed=13,
            functions=["write", "fwrite"], fault_classes=SWEEP_CLASSES,
            store_path=str(tmp_path / "faults.jsonl"),
        )
        fabric = _Fabric(shard_size=3, lease_timeout=10.0)
        try:
            client = fabric.client()
            reply = client.submit(spec)
            w0, w1 = fabric.worker(worker_id="w0"), fabric.worker(worker_id="w1")
            worked = True
            while worked:
                worked = w0.run_once() | w1.run_once()
            status = client.status(reply["campaign_id"])
            assert status["state"] == "complete"
            records = client.results(reply["campaign_id"])
        finally:
            fabric.close()

        serial_engine, serial_points = build_engine(spec, store=ResultStore())
        serial = serial_engine.explore(serial_points)
        assert [
            (r["key"].split("|", 1)[1], r["outcome"], r["detail"], r["exit_code"],
             r["location"], r["injections"], r["fingerprint"], r["run_seed"])
            for r in records
        ] == [
            (o.point.key, o.outcome.kind.value, o.outcome.detail,
             o.outcome.exit_code, o.outcome.location, o.injections,
             o.fingerprint, o.run_seed)
            for o in serial.outcomes
        ]
        # Structured dimensions survive the wire round trip.
        structured = [r for r in records if r.get("fault_class") != "errno"]
        assert {r["fault_class"] for r in structured} == set(SWEEP_CLASSES)


# ----------------------------------------------------------------------
# tentpole: usage-profile report from a real campaign trace
# ----------------------------------------------------------------------
class TestUsageProfile:
    def test_profile_built_from_campaign_store(self):
        engine, points = _sweep_engine()
        engine.explore(points)
        profile = build_usage_profile("mini_git", engine.store.results())
        assert profile.runs == len(points)
        ranked = profile.ranked()
        assert ranked and ranked[0].total_calls >= ranked[-1].total_calls
        write = profile.functions["write"]
        assert write.total_calls > 0 and write.runs_reached == profile.runs
        # Both classes target write and fwrite; write gets half the points.
        assert write.points_swept == len(points) // 2
        assert write.fault_classes == set(SWEEP_CLASSES)
        assert write.failures >= 1  # the seeded short-write data loss
        assert 0.0 < write.failure_rate <= 1.0
        # Functions the workload exercises but the sweep never targeted.
        unswept = profile.unswept()
        assert "open" in unswept and "write" not in unswept
        payload = profile.to_dict()
        assert payload["target"] == "mini_git"
        assert payload["functions"][0]["function"] == ranked[0].function
        assert "usage profile for mini_git" in profile.describe()

    def test_profile_tolerates_old_records_without_calls(self):
        old = StoredResult(
            key="w|k", index=0, scenario="s", function="close",
            return_value=-1, errno=9, category="unchecked", workload="w",
            outcome="crash",
        )
        profile = build_usage_profile("legacy", [old])
        assert profile.runs == 1
        close = profile.functions["close"]
        assert close.points_swept == 1 and close.failures == 1
        assert close.fault_classes == {"errno"}
        assert close.total_calls == 0  # no per-call trace in old records


# ----------------------------------------------------------------------
# satellite: fault-spec serialization round-trips + forward compat
# ----------------------------------------------------------------------
class TestFaultSerialization:
    @pytest.mark.parametrize("klass", sorted(FAULT_CLASSES))
    def test_injection_record_round_trips_every_class(self, klass):
        definition = FAULT_CLASSES[klass]
        fault = make_fault(klass, definition.param_dicts()[0])
        record = InjectionRecord(
            index=0, function=definition.functions[0], args=(1, 2),
            injected=True, call_count=3, node="n", fault=fault,
            trigger_ids=["t"],
        )
        clone = InjectionRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.fault is not None
        assert clone.fault.fault_class == klass
        assert clone.fault.params == fault.params
        assert clone.fault.return_value == fault.return_value
        assert clone.fault.errno == fault.errno

    def test_errno_log_without_class_fields_loads_as_errno(self):
        # A record dict written before the taxonomy existed.
        payload = {
            "index": 0, "function": "read", "args": [3, 64], "injected": True,
            "call_count": 1, "has_fault": True, "return_value": -1, "errno": 5,
            "triggers": [], "stack": [], "frames": [], "source": "", "sim_time": 0.0,
        }
        record = InjectionRecord.from_dict(payload)
        assert record.fault.fault_class == "errno"
        assert record.fault.params == ()

    def test_stored_result_round_trips_structured_fields(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        result = StoredResult(
            key="w|k", index=1, scenario="s", function="write",
            return_value=8, errno=None, category="structured", workload="w",
            outcome="data_loss", fault_class="partial_write",
            fault_params={"fraction": 0.5}, calls={"write": 4, "open": 2},
        )
        with ResultStore(path) as store:
            store.record(result)
        loaded = ResultStore(path).get("w|k")
        assert loaded.fault_class == "partial_write"
        assert loaded.fault_params == {"fraction": 0.5}
        assert loaded.calls == {"write": 4, "open": 2}

    def test_old_errno_only_store_loads_and_resumes(self, tmp_path):
        """A store written before the taxonomy (no fault_class /
        fault_params / calls keys) loads with errno defaults and resumes
        with zero re-runs."""
        path = str(tmp_path / "old.jsonl")

        def explore(**kwargs):
            with ResultStore(path) as store:
                engine = ExplorationEngine(
                    MiniGitTarget(), seed=7, workload="status", store=store,
                )
                return engine.explore(points, **kwargs)

        points = enumerate_structured_space("mini_git", ["partial_write"])
        explore(max_runs=3)

        # Rewrite the store as an old campaign would have written it.
        stripped = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                payload = json.loads(line)
                for key in ("fault_class", "fault_params", "calls"):
                    payload.pop(key, None)
                stripped.append(json.dumps(payload))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(stripped) + "\n")

        loaded = ResultStore(path)
        assert len(loaded) == 3
        assert all(r.fault_class == "errno" and r.calls == {} for r in loaded)

        resumed = explore()
        assert resumed.resumed == 3 and resumed.complete
        assert resumed.executed == len(points) - 3


# ----------------------------------------------------------------------
# satellite: campaign-spec validation at submit
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_validate_spec_accepts_structured_campaign(self):
        validate_spec(CampaignSpec(
            target="mini_git", workload="commit",
            fault_classes=["partial_write", "crash_point"],
        ))

    def test_validate_spec_rejects_each_field(self):
        with pytest.raises(ValueError, match="known targets"):
            validate_spec(CampaignSpec(target="nope"))
        with pytest.raises(ValueError, match="known workloads"):
            validate_spec(CampaignSpec(target="mini_git", workload="nope"))
        with pytest.raises(ValueError, match="strategy"):
            validate_spec(CampaignSpec(target="mini_git", strategy="nope"))
        with pytest.raises(ValueError, match="known classes"):
            validate_spec(CampaignSpec(target="mini_git", fault_classes=["nope"]))

    def test_submit_rejects_bad_spec_with_structured_error(self):
        fabric = _Fabric()
        try:
            client = fabric.client()
            with pytest.raises(CampaignServerError, match="known workloads"):
                client.submit(CampaignSpec(target="mini_git", workload="nope"))
            with pytest.raises(CampaignServerError, match="unknown fault class"):
                client.submit(CampaignSpec(target="mini_git", fault_classes=["bogus"]))
            # The rejection is a clean reply, not a dropped connection.
            assert client.ping()["type"] == "pong"
            # And a valid structured spec still submits.
            reply = client.submit(CampaignSpec(
                target="mini_git", workload="status", seed=7,
                functions=["write"], fault_classes=["partial_write"],
            ))
            assert reply["type"] == "submitted"
        finally:
            fabric.close()


# ----------------------------------------------------------------------
# satellite: delivery-hook hygiene (capture/restore/reset)
# ----------------------------------------------------------------------
class TestDeliveryHookHygiene:
    def test_hooks_are_structural_values(self):
        assert PartitionHook([2, 1]) == PartitionHook((1, 2))
        assert hash(DropAllHook()) == hash(DropAllHook())
        network = SimNetwork()
        network.add_delivery_hook(PartitionHook([3]))
        assert network.has_delivery_hook(PartitionHook([3]))
        assert not network.has_delivery_hook(PartitionHook([4]))

    def test_capture_restore_round_trips_hooks(self):
        network = SimNetwork()
        a = network.socket("a")
        network.bind(a, 1)
        network.add_delivery_hook(DropAllHook())
        state = network.capture_state()
        network.clear_delivery_hooks()
        assert network.delivery_hook_count() == 0
        network.restore_state(state)
        assert network.has_delivery_hook(DropAllHook())
        network.sendto(a, b"x", 1)
        assert network.dropped_count >= 1

    def test_os_reset_clears_hooks(self):
        os = SimOS("hygiene")
        os.network.add_delivery_hook(DropAllHook())
        os.reset()
        assert os.network.delivery_hook_count() == 0
        # Delivery works again after the reset.
        a = os.network.socket("a")
        os.network.bind(a, 1)
        os.network.sendto(a, b"ok", 1)
        payload, _source = os.network.recvfrom(a)
        assert payload == b"ok"

    def test_net_partition_does_not_leak_between_runs(self):
        """The drop-everything regression: a partition installed by one run
        must never survive into the next run's fresh cluster."""
        scenario = structured_scenario(
            "net_partition", "sendto", nth=5, params={"scope": "dst"}
        )
        target = PBFTTarget()
        faulted = target.run(WorkloadRequest(workload="simple", scenario=scenario))
        assert faulted.injections == 1
        clean = target.run(WorkloadRequest(workload="simple", scenario=None))
        assert clean.outcome.kind is OutcomeKind.NORMAL
        cluster = clean.stats["cluster"]
        assert cluster.network.delivery_hook_count() == 0


# ----------------------------------------------------------------------
# satellite: short-write audit of the target suite
# ----------------------------------------------------------------------
class TestShortWriteAudit:
    def _facade(self, scenario):
        os = SimOS("audit")
        os.fs.make_dirs("/var/lib/mysql/data")
        gate = make_gate(scenario)
        return LibcFacade(os, gate=gate, node="mysqld"), os

    def test_mi_repair_rejects_short_write(self):
        scenario = structured_scenario(
            "partial_write", "write", nth=1, params={"fraction": 0.5}
        )
        libc, os = self._facade(scenario)
        engine = MyISAMEngine(libc)
        assert engine.mi_repair("t1") == -1  # fixed: short write aborts repair

    def test_mi_repair_clean_path_still_succeeds(self):
        libc, os = self._facade(None)
        engine = MyISAMEngine(libc)
        assert engine.mi_repair("t1") == 0
        assert os.fs.file_contents("/var/lib/mysql/data/t1.MYD") == b"repaired"

    def test_seeded_mini_git_blind_spot_is_silent_without_oracle(self):
        # The seeded bug's defining property: the program itself reports
        # success; only the data-loss oracle (exercised above) catches it.
        scenario = structured_scenario(
            "partial_write", "write", nth=2, params={"fraction": 0.5}
        )
        result = _run_git(scenario, "commit")
        assert result.injections == 1
        assert result.outcome.kind is OutcomeKind.DATA_LOSS
        assert result.outcome.exit_code == 0  # mini_git exited "successfully"


class TestFacadeShortIO:
    """The short-I/O classes on the Python-level servers: the facade's
    ``read`` and ``fwrite`` hand the gate a ``partial`` closure, which
    performs the real call with the clamped count."""

    def test_short_read_clamps_a_mini_mysql_row_read(self):
        # Read 1 is startup's errmsg.sys load; read 2 is the first point
        # query's 64-byte row read, and it gets half.
        scenario = structured_scenario("short_read", "read", nth=2, params={"fraction": 0.5})
        target = MiniMySQLTarget()
        server = target.make_server(
            WorkloadRequest(workload="sysbench-readonly", scenario=scenario)
        )
        server.startup()
        assert len(server.error_messages) == 12
        assert server.execute_read_query(0) == 32
        assert server.execute_read_query(1) == 64  # one-shot
        assert server.libc.gate.injected_calls == 1
        # The file system served exactly the clamped count: the next read
        # of the same descriptor starts where the short one stopped.
        table = server.os.fs.file_contents(TABLE_PATH)
        libc = LibcFacade(server.os, gate=make_gate(structured_scenario(
            "short_read", "read", nth=1, params={"fraction": 0.5}
        )))
        fd = libc.open(TABLE_PATH)
        assert libc.read(fd, 64) == table[:32]
        assert libc.read(fd, 64) == table[32:96]
        result = target.run(WorkloadRequest(
            workload="sysbench-readonly", scenario=scenario,
            options={"transactions": 2},
        ))
        assert result.injections == 1
        assert result.outcome.kind is OutcomeKind.NORMAL

    def test_partial_write_tears_one_pbft_checkpoint(self):
        scenario = structured_scenario(
            "partial_write", "fwrite", nth=1, params={"fraction": 0.5}
        )
        result = PBFTTarget().run(WorkloadRequest(workload="simple", scenario=scenario))
        assert result.injections == 1
        cluster = result.stats["cluster"]
        contents = [
            os.fs.file_contents(f"/var/pbft/{name}/checkpoint_16.ckp")
            for name, os in cluster.oses.items()
            if name.startswith("replica")
        ]
        full = max(contents, key=len)
        assert full.startswith(b"view=") and full.endswith(b" executed=16\n")
        # The first fwrite of the cluster reached the disk half written;
        # every other checkpoint is whole.
        assert sorted(contents, key=len) == [full[: len(full) // 2]] + [full] * 3
