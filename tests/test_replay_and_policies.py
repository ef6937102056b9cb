"""Replay hardening and central-controller policy tests (PR 2 satellites).

* deterministic failure replay: a seeded mini_apache campaign's injections,
  rebuilt via ``build_replay_scenario``, re-inject identically on re-run;
* injection-record serialization round-trips, including errno-only faults;
* unit tests for the three distributed injection policies.
"""

import json

import pytest

from repro.core.controller.campaign import TestCampaign as InjectionCampaign
from repro.core.injection.context import CallContext
from repro.core.injection.faults import FaultSpec
from repro.core.injection.log import InjectionLog, InjectionRecord
from repro.core.injection.replay import build_replay_scenario
from repro.core.scenario.builder import ScenarioBuilder
from repro.core.scenario.xml_io import parse_scenario_xml, scenario_to_xml
from repro.distributed.central_controller import (
    CentralController,
    PacketLossPolicy,
    RotatingAttackPolicy,
    SilenceNodePolicy,
)
from repro.oslib.errno_codes import Errno
from repro.targets.mini_apache import MiniApacheTarget


# ----------------------------------------------------------------------
# replay determinism on mini_apache
# ----------------------------------------------------------------------
def _random_apache_scenario(name: str, function: str, return_value: int, errno):
    """One random injection per run against a mini_apache library call."""
    return (
        ScenarioBuilder(name)
        .trigger("luck", "RandomTrigger", probability=0.35)
        .trigger("once", "SingletonTrigger")
        .inject(function, ["luck", "once"], return_value=return_value, errno=errno)
        .build()
    )


def _injection_tuples(result):
    return [
        (
            record.function,
            record.call_count,
            record.fault.return_value,
            record.fault.errno,
        )
        for record in result.log.injections()
    ]


class TestReplayDeterminism:
    def test_seeded_campaign_replays_identically(self):
        target = MiniApacheTarget()
        scenarios = [
            _random_apache_scenario("rand-open", "open", -1, "EACCES"),
            _random_apache_scenario("rand-read", "apr_file_read", 70008, None),
            _random_apache_scenario("rand-close", "close", -1, "EIO"),
        ]
        campaign = InjectionCampaign(target, workload="ab-static").run(
            scenarios, include_baseline=False, seed=1234, requests=40
        )

        replayed = 0
        for outcome in campaign.outcomes:
            for record in outcome.result.log.injections():
                replay = build_replay_scenario(record)
                # Re-run the workload under the replay scenario (twice: the
                # replay itself must also be deterministic).
                first = target.run(
                    _request(replay, workload="ab-static", requests=40)
                )
                second = target.run(
                    _request(replay, workload="ab-static", requests=40)
                )
                expected = [
                    (
                        record.function,
                        record.call_count,
                        record.fault.return_value,
                        record.fault.errno,
                    )
                ]
                assert _injection_tuples(first) == expected
                assert _injection_tuples(second) == expected
                assert first.outcome.kind == second.outcome.kind
                # One injection per original run (singleton), so the replay
                # reproduces the original run's outcome too.
                assert first.outcome.kind == outcome.outcome.kind
                replayed += 1
        assert replayed >= 1, "seeded campaign should have injected at least once"

    def test_seeded_campaign_is_reproducible(self):
        target = MiniApacheTarget()
        scenarios = [
            _random_apache_scenario("rand-open", "open", -1, "EACCES"),
            _random_apache_scenario("rand-read", "apr_file_read", 70008, None),
        ]

        def signatures():
            campaign = InjectionCampaign(target, workload="ab-static").run(
                scenarios, include_baseline=False, seed=77, requests=25
            )
            return [_injection_tuples(outcome.result) for outcome in campaign.outcomes]

        assert signatures() == signatures()


def _request(scenario, workload, **options):
    from repro.core.controller.target import WorkloadRequest

    return WorkloadRequest(workload=workload, scenario=scenario, options=dict(options))


# ----------------------------------------------------------------------
# replay metadata preservation (errno-only faults) and record round-trips
# ----------------------------------------------------------------------
class TestReplayMetadataPreservation:
    def _errno_only_record(self):
        log = InjectionLog()
        return log.record(
            "apr_file_read",
            (7, 1024),
            injected=True,
            call_count=5,
            node="httpd",
            fault=FaultSpec(return_value=70008, errno=None),
            trigger_ids=["fd_kind", "apache_core"],
            source="httpd_core.py:118",
        )

    def test_errno_only_replay_preserves_trigger_metadata(self):
        # Regression: errno-only error-return specs (errno=None) must keep
        # the original record's trigger metadata on the replay scenario.
        replay = build_replay_scenario(self._errno_only_record())
        assert replay.metadata["original_triggers"] == ["fd_kind", "apache_core"]
        assert replay.metadata["original_call_count"] == 5
        assert replay.metadata["original_node"] == "httpd"
        assert replay.metadata["original_return_value"] == 70008
        assert replay.metadata["original_errno"] is None
        assert replay.plans[0].fault == FaultSpec(70008, None)

    def test_errno_only_replay_survives_xml(self):
        replay = build_replay_scenario(self._errno_only_record())
        parsed = parse_scenario_xml(scenario_to_xml(replay))
        assert parsed.metadata == replay.metadata
        assert parsed.plans[0].injects
        assert parsed.plans[0].fault == FaultSpec(70008, None)

    def test_record_dict_roundtrip_keeps_errno_only_fault(self):
        # Regression: a serialized log record with an errno-only fault used
        # to be indistinguishable from a pass-through (errno is None in
        # both); from_dict must rebuild the fault and stay replayable.
        record = self._errno_only_record()
        payload = json.loads(json.dumps(record.to_dict()))
        restored = InjectionRecord.from_dict(payload)
        assert restored.fault == FaultSpec(70008, None)
        assert restored.trigger_ids == ("fd_kind", "apache_core")
        replay = build_replay_scenario(restored)
        assert replay.metadata["original_triggers"] == ["fd_kind", "apache_core"]
        assert replay.plans[0].fault == FaultSpec(70008, None)

    def test_record_dict_roundtrip_with_errno_and_stack(self):
        from repro.common.frames import StackFrame

        log = InjectionLog()
        record = log.record(
            "read",
            (3, 0, 8),
            injected=True,
            call_count=2,
            fault=FaultSpec(-1, int(Errno.EINTR)),
            trigger_ids=["t"],
            stack=[StackFrame(module="m", function="f", line=4)],
            source="m.c:4",
        )
        restored = InjectionRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record

    def test_passthrough_record_stays_unreplayable(self):
        log = InjectionLog(record_passthrough=True)
        record = log.record("read", (), injected=False, call_count=1)
        restored = InjectionRecord.from_dict(record.to_dict())
        assert restored.fault is None
        with pytest.raises(ValueError):
            build_replay_scenario(restored)


# ----------------------------------------------------------------------
# CentralController policies
# ----------------------------------------------------------------------
CTX = CallContext(function="sendto")


class TestPacketLossPolicy:
    def test_seeded_decisions_are_reproducible(self):
        first = PacketLossPolicy(probability=0.5, seed=9)
        second = PacketLossPolicy(probability=0.5, seed=9)
        decisions = [first.should_inject("n0", "sendto", (), CTX) for _ in range(50)]
        assert decisions == [second.should_inject("n0", "sendto", (), CTX) for _ in range(50)]
        assert any(decisions) and not all(decisions)

    def test_reset_replays_the_sequence(self):
        policy = PacketLossPolicy(probability=0.5, seed=3)
        before = [policy.should_inject("n0", "recvfrom", (), CTX) for _ in range(20)]
        policy.reset()
        assert [policy.should_inject("n0", "recvfrom", (), CTX) for _ in range(20)] == before

    def test_probability_extremes(self):
        always = PacketLossPolicy(probability=1.0, seed=0)
        never = PacketLossPolicy(probability=0.0, seed=0)
        assert all(always.should_inject("n0", "sendto", (), CTX) for _ in range(10))
        assert not any(never.should_inject("n0", "sendto", (), CTX) for _ in range(10))

    def test_non_target_function_passes_through(self):
        policy = PacketLossPolicy(probability=1.0, seed=0)
        assert not policy.should_inject("n0", "read", (), CTX)
        assert not policy.should_inject("n0", "malloc", (), CTX)

    def test_node_restriction(self):
        policy = PacketLossPolicy(probability=1.0, seed=0, nodes=("replica1",))
        assert policy.should_inject("replica1", "sendto", (), CTX)
        assert not policy.should_inject("replica2", "sendto", (), CTX)


class TestSilenceNodePolicy:
    def test_only_the_silenced_node_fails(self):
        policy = SilenceNodePolicy(node="replica2")
        assert policy.should_inject("replica2", "sendto", (), CTX)
        assert policy.should_inject("replica2", "recvfrom", (), CTX)
        assert not policy.should_inject("replica0", "sendto", (), CTX)

    def test_non_target_function_passes_through(self):
        policy = SilenceNodePolicy(node="replica2")
        assert not policy.should_inject("replica2", "fopen", (), CTX)

    def test_reset_is_stateless(self):
        policy = SilenceNodePolicy(node="replica2")
        assert policy.should_inject("replica2", "sendto", (), CTX)
        policy.reset()
        assert policy.should_inject("replica2", "sendto", (), CTX)


class TestRotatingAttackPolicy:
    def test_rotation_at_burst_boundaries(self):
        policy = RotatingAttackPolicy(nodes=("a", "b", "c"), burst=3)
        # Burst of 3 on 'a': exactly 3 injections, then the victim moves.
        for _ in range(3):
            assert policy.current_victim() == "a"
            assert policy.should_inject("a", "sendto", (), CTX)
        assert policy.current_victim() == "b"
        assert not policy.should_inject("a", "sendto", (), CTX)
        for _ in range(3):
            assert policy.should_inject("b", "sendto", (), CTX)
        assert policy.current_victim() == "c"
        for _ in range(3):
            assert policy.should_inject("c", "sendto", (), CTX)
        # Rotation wraps around to the first node.
        assert policy.current_victim() == "a"
        assert policy.should_inject("a", "sendto", (), CTX)

    def test_non_victim_and_non_target_pass_through(self):
        policy = RotatingAttackPolicy(nodes=("a", "b"), burst=2)
        assert not policy.should_inject("b", "sendto", (), CTX)  # not the victim
        assert not policy.should_inject("a", "read", (), CTX)  # not a comm call
        # Neither consumed any of the victim's burst budget.
        assert policy.should_inject("a", "sendto", (), CTX)
        assert policy.should_inject("a", "sendto", (), CTX)
        assert policy.current_victim() == "b"

    def test_empty_node_list_never_injects(self):
        policy = RotatingAttackPolicy(nodes=(), burst=2)
        assert policy.current_victim() is None
        assert not policy.should_inject("a", "sendto", (), CTX)

    def test_reset_restores_first_victim(self):
        policy = RotatingAttackPolicy(nodes=("a", "b"), burst=1)
        assert policy.should_inject("a", "sendto", (), CTX)
        assert policy.current_victim() == "b"
        policy.reset()
        assert policy.current_victim() == "a"
        assert policy.should_inject("a", "sendto", (), CTX)


class TestCentralControllerAccounting:
    def test_counters_and_history_with_policy(self):
        controller = CentralController(SilenceNodePolicy(node="r0"))
        assert controller.should_inject("r0", "sendto", (), CTX)
        assert not controller.should_inject("r1", "sendto", (), CTX)
        assert controller.consultations == 2
        assert controller.injections_by_node == {"r0": 1}
        assert controller.consultations_by_node == {"r0": 1, "r1": 1}
        assert controller.history == [("r0", "sendto", True), ("r1", "sendto", False)]
        controller.reset()
        assert controller.consultations == 0 and controller.history == []

    def test_policy_swap(self):
        controller = CentralController()
        assert not controller.should_inject("r0", "sendto", (), CTX)  # no policy
        controller.set_policy(PacketLossPolicy(probability=1.0, seed=0))
        assert controller.should_inject("r0", "sendto", (), CTX)
