"""Tests for the campaign fabric (PR 7 tentpole) and its durability fixes.

Covers the acceptance criteria end to end: a multi-worker campaign over
the wire protocol is bit-identical to a serial ``ExplorationEngine``
run — including after a worker dies mid-campaign and after the
coordinator itself is killed and restarted (resume from the result store
re-runs nothing already checkpointed) — plus the satellite bugfixes:
interior store corruption raises instead of being skipped, records are
flushed/fsynced per append, and the central controller's counters are
thread-safe.
"""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller.executor import ProcessPoolBackend
from repro.core.controller.memo import clear_suffix_memo
from repro.core.controller.monitor import OutcomeKind
from repro.core.exploration.engine import ExplorationEngine, RoundPlanner
from repro.core.exploration.store import ResultStore, StoreCorruptError, StoredResult
from repro.core.profiler.cache import artifact_cache_stats
import repro.distributed.campaignd as campaignd_module
from repro.distributed.campaignd import MIN_LEASE_POINTS, CampaignCoordinator
from repro.distributed.client import CampaignClient, CampaignServerError
from repro.distributed.central_controller import CentralController, Policy
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    MessageStream,
    MessageTooLarge,
    ProtocolError,
    connect,
)
from repro.distributed.spec import CampaignSpec, build_engine, spec_fingerprint
import repro.distributed.worker as worker_module
from repro.distributed.worker import (
    ENGINES_PER_WORKER,
    RESULT_BATCH_RECORDS,
    CampaignWorker,
    lease_batches,
)
from repro.targets import register_target, unregister_target
from repro.targets.mini_git import MiniGitTarget


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _stored(key, outcome="normal", index=0, run_seed=None):
    return StoredResult(
        key=key, index=index, scenario=f"s-{key}", function="read",
        return_value=-1, errno=5, category="unchecked", workload="w",
        outcome=outcome, run_seed=run_seed,
    )


def _signature_from_outcomes(report):
    return [
        (o.point.key, o.outcome.kind.value, o.outcome.detail, o.outcome.exit_code,
         o.outcome.location, o.injections, o.fingerprint, o.run_seed)
        for o in report.outcomes
    ]


def _signature_from_records(records):
    return [
        (r["key"].split("|", 1)[1], r["outcome"], r["detail"], r["exit_code"],
         r["location"], r["injections"], r["fingerprint"], r["run_seed"])
        for r in records
    ]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_pids(pid):
    """The pids of *pid*'s children, from /proc (Linux).

    A thread that exits between the listing and the read is skipped: a
    fabric worker ends one heartbeat thread per lease, and its task
    directory can vanish under the loop.  A pool's children belong to the
    thread that forked them, the worker's main thread, which lives on.
    """
    children = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children.update(int(child) for child in handle.read().split())
        except FileNotFoundError:
            continue
    return children


def _state(pid):
    """Process *pid*'s state letter from /proc (``R``, ``S``, ``Z``, ...),
    or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


def _running(pid):
    """Whether process *pid* still runs: it exists and is not a zombie."""
    return _state(pid) not in (None, "Z")


class _Fabric:
    """One coordinator plus helpers, torn down reliably."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        self.coordinator = CampaignCoordinator(**kwargs)
        self.address = self.coordinator.start()
        self.workers = []
        self.threads = []
        self.clients = []

    def client(self) -> CampaignClient:
        client = CampaignClient(self.address)
        self.clients.append(client)
        return client

    def worker(self, **kwargs) -> CampaignWorker:
        worker = CampaignWorker(self.address, **kwargs)
        self.workers.append(worker)
        return worker

    def spawn(self, worker: CampaignWorker) -> threading.Thread:
        thread = threading.Thread(target=worker.run_forever, daemon=True)
        thread.start()
        self.threads.append(thread)
        return thread

    def close(self):
        for worker in self.workers:
            worker.stop()
        for client in self.clients:
            client.close()
        self.coordinator.stop()
        for worker in self.workers:
            worker.close()
        for thread in self.threads:
            thread.join(timeout=5)


@pytest.fixture
def fabric_factory():
    fabrics = []

    def make(**kwargs):
        fabric = _Fabric(**kwargs)
        fabrics.append(fabric)
        return fabric

    yield make
    for fabric in fabrics:
        fabric.close()


GIT_SPEC_KWARGS = dict(
    target="mini_git", workload="status", seed=7, functions=["close", "malloc"],
)


def _serial_signature(spec_kwargs=GIT_SPEC_KWARGS):
    spec = CampaignSpec(**spec_kwargs)
    engine, points = build_engine(spec, store=ResultStore())
    return _signature_from_outcomes(engine.explore(points))


def _shard_engine(spec_kwargs=GIT_SPEC_KWARGS):
    """A worker-side engine and its fault space keyed by point key."""
    engine, points = build_engine(CampaignSpec(**spec_kwargs))
    return engine, {point.key: point for point in points}


def _greet(fabric, worker_id):
    """A raw worker link to *fabric*, past its ``hello``."""
    stream = connect(fabric.address)
    stream.send({"type": "hello", "role": "worker", "worker_id": worker_id,
                 "version": PROTOCOL_VERSION})
    assert stream.recv()["type"] == "welcome"
    return stream


def _fetch(stream, worker_id):
    stream.send({"type": "fetch", "worker_id": worker_id})
    shard = stream.recv()
    assert shard["type"] == "shard", shard
    return shard


def _done_batch(shard, records, **fields):
    return {"type": "result_batch", "lease_id": shard["lease_id"],
            "campaign_id": shard["campaign_id"],
            "records": [record.to_dict() for record in records],
            "done": True, **fields}


# ----------------------------------------------------------------------
# satellite: store corruption semantics
# ----------------------------------------------------------------------
class TestStoreCorruption:
    def _write_lines(self, path, lines, final_newline=True):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if final_newline else ""))

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        good = json.dumps(_stored("a").to_dict())
        self._write_lines(path, [good, '{"key": "b", "outco', json.dumps(_stored("c").to_dict())])
        with pytest.raises(StoreCorruptError) as excinfo:
            ResultStore(str(path))
        assert excinfo.value.line_number == 2
        assert "torn" not in excinfo.value.reason

    def test_interior_non_object_line_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._write_lines(path, ['[1, 2, 3]', json.dumps(_stored("a").to_dict())])
        with pytest.raises(StoreCorruptError):
            ResultStore(str(path))

    def test_torn_final_line_is_tolerated_and_repairable(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        store.record(_stored("a"))
        store.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "outcome": "cra')  # crash mid-append
        reloaded = ResultStore(str(path))
        assert reloaded.completed_keys() == {"a"}
        assert reloaded.has_torn_tail
        assert reloaded.repair() is True
        assert not reloaded.has_torn_tail
        assert reloaded.repair() is False
        # The partial bytes are gone from disk.
        content = path.read_text(encoding="utf-8")
        assert content.endswith("\n") and '"b"' not in content
        assert ResultStore(str(path)).completed_keys() == {"a"}

    def test_append_after_torn_load_truncates_first(self, tmp_path):
        """A resumed store must never concatenate a new record onto the
        leftover partial line (that would turn a benign torn tail into
        interior corruption on the *next* load)."""
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.record(_stored("a"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "out')
        resumed = ResultStore(str(path))
        resumed.record(_stored("c", index=2))
        resumed.close()
        reloaded = ResultStore(str(path))  # would raise if concatenated
        assert reloaded.completed_keys() == {"a", "c"}

    def test_crash_simulated_partial_write_resumes_cleanly(self, tmp_path):
        """Simulate a hard kill mid-append by truncating the file at an
        arbitrary byte inside the last record."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        for index, key in enumerate("abcd"):
            store.record(_stored(key, index=index))
        store.close()
        full = path.read_bytes()
        path.write_bytes(full[: len(full) - 17])  # tear the last record
        reloaded = ResultStore(str(path))
        assert reloaded.completed_keys() == {"a", "b", "c"}
        assert reloaded.has_torn_tail

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        good = json.dumps(_stored("a").to_dict())
        self._write_lines(path, ["", good, "", ""])
        assert ResultStore(str(path)).completed_keys() == {"a"}


class TestStoreDurability:
    def test_records_are_flushed_per_append(self, tmp_path):
        """A second reader (the coordinator's status path, tail -f) must
        see each record immediately, while the writer stays open."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path), durable=False)
        store.record(_stored("a"))
        assert ResultStore(str(path)).completed_keys() == {"a"}
        store.record(_stored("b", index=1))
        assert ResultStore(str(path)).completed_keys() == {"a", "b"}
        store.close()

    def test_durable_knob_controls_fsync(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        durable = ResultStore(str(tmp_path / "durable.jsonl"), durable=True)
        durable.record(_stored("a"))
        durable.record(_stored("b", index=1))
        assert len(calls) == 2
        relaxed = ResultStore(str(tmp_path / "relaxed.jsonl"), durable=False)
        relaxed.record(_stored("a"))
        assert len(calls) == 2  # unchanged: no fsync without the knob
        durable.close()
        relaxed.close()

    def test_store_is_reusable_after_close(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            store.record(_stored("a"))
        store.record(_stored("b", index=1))  # reopens transparently
        store.close()
        assert ResultStore(str(path)).completed_keys() == {"a", "b"}

    def test_sync_fsyncs_the_open_handle_once(self, tmp_path, monkeypatch):
        """Group commit: records of a ``durable=False`` store are fsynced
        by one ``sync()``, which does nothing without an open handle."""
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        ResultStore().sync()  # memory store
        store = ResultStore(str(tmp_path / "group.jsonl"), durable=False)
        store.sync()  # nothing appended yet
        store.record(_stored("a"))
        store.record(_stored("b", index=1))
        assert calls == []
        store.sync()
        assert len(calls) == 1
        store.close()
        store.sync()  # closed
        assert len(calls) == 1


class TestGroupCommit:
    @pytest.mark.parametrize("durable", [True, False])
    def test_one_fsync_per_acked_batch_before_its_ack(
        self, fabric_factory, tmp_path, monkeypatch, durable
    ):
        """A coordinator with durable stores fsyncs each ``result_batch``
        exactly once, before the batch's ack is sent (ack implies
        durable); with ``durable_stores=False`` it never fsyncs."""
        events = []
        real_fsync = os.fsync
        real_send = MessageStream.send

        def fsync(fd):
            events.append(("fsync", None))
            real_fsync(fd)

        def send(stream, message):
            if message["type"] == "result_batch":
                events.append(("batch", len(message["records"])))
            elif message["type"] == "ack" and "accepted" in message:
                events.append(("ack", message["accepted"]))
            real_send(stream, message)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(MessageStream, "send", send)
        fabric = fabric_factory(shard_size=16, durable_stores=durable)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "commit.jsonl"), **GIT_SPEC_KWARGS)
        campaign_id = client.submit(spec)["campaign_id"]
        worker = fabric.worker()
        while worker.run_once():
            pass

        status = client.status(campaign_id)
        assert status["state"] == "complete"
        batches = [size for kind, size in events if kind == "batch"]
        acked = [size for kind, size in events if kind == "ack"]
        assert acked == batches and sum(acked) == status["total"]
        assert max(acked) > 1  # batches really carry several records
        commits = [kind for kind, _ in events if kind != "batch"]
        assert commits == (["fsync", "ack"] if durable else ["ack"]) * len(acked)


# ----------------------------------------------------------------------
# satellite: central controller thread safety
# ----------------------------------------------------------------------
class _YieldingPolicy(Policy):
    """Always injects, yielding the GIL mid-decision to force interleaving."""

    def should_inject(self, node, function, args, ctx):
        time.sleep(0)
        return True


class TestCentralControllerLocking:
    def test_concurrent_consultations_count_exactly(self):
        controller = CentralController(_YieldingPolicy())
        controller.history_limit = 10_000_000
        threads_n, per_thread = 8, 400
        barrier = threading.Barrier(threads_n)

        def drive(node):
            barrier.wait()
            for _ in range(per_thread):
                controller.should_inject(node, "sendto", (), None)

        threads = [
            threading.Thread(target=drive, args=(f"n{i}",)) for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = threads_n * per_thread
        assert controller.consultations == total
        assert sum(controller.consultations_by_node.values()) == total
        assert sum(controller.injections_by_node.values()) == total
        assert all(
            count == per_thread for count in controller.injections_by_node.values()
        )
        assert len(controller.history) == total

    def test_concurrent_reset_leaves_consistent_state(self):
        controller = CentralController(_YieldingPolicy())
        stop = threading.Event()

        def consult():
            while not stop.is_set():
                controller.should_inject("n", "sendto", (), None)

        thread = threading.Thread(target=consult)
        thread.start()
        for _ in range(50):
            controller.reset()
        stop.set()
        thread.join()
        controller.reset()
        assert controller.consultations == 0
        assert controller.injections_by_node == {}


# ----------------------------------------------------------------------
# satellite: wire-protocol framing edge cases
# ----------------------------------------------------------------------
class TestProtocolFraming:
    def _pair(self, max_message_bytes=1024):
        left, right = socket.socketpair()
        return (
            MessageStream(left, max_message_bytes=max_message_bytes),
            MessageStream(right, max_message_bytes=max_message_bytes),
        )

    def test_round_trip(self):
        a, b = self._pair()
        a.send({"type": "ping", "n": 1})
        assert b.recv() == {"type": "ping", "n": 1}
        b.send({"type": "pong"})
        assert a.recv() == {"type": "pong"}
        a.close()
        b.close()

    def test_oversized_outgoing_message_is_rejected_locally(self):
        a, b = self._pair(max_message_bytes=128)
        with pytest.raises(MessageTooLarge):
            a.send({"type": "submit", "blob": "x" * 1024})
        a.close()
        b.close()

    def test_oversized_incoming_line_is_rejected(self):
        a, b = self._pair(max_message_bytes=256)
        raw = b'{"type": "x", "blob": "' + b"y" * 2048 + b'"}\n'
        a._sock.sendall(raw)  # bypass the sender-side cap
        with pytest.raises(MessageTooLarge):
            b.recv()
        a.close()
        b.close()

    def test_garbage_line_raises_protocol_error(self):
        a, b = self._pair()
        a._sock.sendall(b"this is not json\n")
        with pytest.raises(ProtocolError):
            b.recv()
        a.close()
        b.close()

    def test_message_without_type_raises(self):
        a, b = self._pair()
        a._sock.sendall(b'{"no_type": 1}\n')
        with pytest.raises(ProtocolError):
            b.recv()
        a.close()
        b.close()

    def test_half_closed_socket_raises_connection_closed(self):
        a, b = self._pair()
        a.send({"type": "ping"})
        a._sock.shutdown(socket.SHUT_WR)  # half-close: we still could read
        assert b.recv() == {"type": "ping"}
        with pytest.raises(ConnectionClosed):
            b.recv()
        a.close()
        b.close()

    def test_recv_after_close_raises_connection_closed(self):
        a, b = self._pair()
        a.send({"type": "ping"})
        b.close()
        # Closed locally (by stop(), from another thread): a closed link,
        # not a bare EBADF from the released socket.
        with pytest.raises(ConnectionClosed):
            b.recv()
        a.close()
        # A timeout on an open stream still surfaces as a timeout.
        c, d = self._pair()
        with pytest.raises(socket.timeout):
            c.recv(timeout=0.01)
        c.close()
        d.close()

    def test_blank_lines_are_skipped(self):
        a, b = self._pair()
        a._sock.sendall(b"\n\n" + b'{"type": "ping"}\n' + b"\n")
        assert b.recv() == {"type": "ping"}
        a.close()
        b.close()

    def test_split_and_coalesced_frames(self):
        a, b = self._pair()
        payload = b'{"type": "one"}\n{"type": "two"}\n'
        a._sock.sendall(payload[:7])
        a._sock.sendall(payload[7:])
        assert b.recv()["type"] == "one"
        assert b.recv()["type"] == "two"
        a.close()
        b.close()


class TestServerFraming:
    """The same edge cases through a real coordinator."""

    def test_server_reports_oversized_then_closes(self, fabric_factory):
        fabric = fabric_factory(max_message_bytes=512)
        stream = connect(fabric.address)
        stream._sock.sendall(b'{"pad": "' + b"x" * 4096 + b'"}\n')
        reply = stream.recv()
        assert reply["type"] == "error"
        with pytest.raises(ConnectionClosed):
            stream.recv()
        stream.close()

    def test_server_survives_garbage_and_keeps_serving(self, fabric_factory):
        fabric = fabric_factory()
        stream = connect(fabric.address)
        stream._sock.sendall(b"garbage garbage\n")
        assert stream.recv()["type"] == "error"
        stream.send({"type": "ping"})
        assert stream.recv()["type"] == "pong"
        stream.close()

    def test_server_handles_half_close_gracefully(self, fabric_factory):
        fabric = fabric_factory()
        stream = connect(fabric.address)
        stream.send({"type": "ping"})
        assert stream.recv()["type"] == "pong"
        stream._sock.shutdown(socket.SHUT_WR)
        with pytest.raises(ConnectionClosed):
            stream.recv()  # server closed its side in response
        stream.close()
        # The coordinator still serves fresh connections.
        with fabric.client() as client:
            assert client.ping()["type"] == "pong"

    def test_unknown_message_type_is_an_error_not_a_drop(self, fabric_factory):
        fabric = fabric_factory()
        stream = connect(fabric.address)
        stream.send({"type": "frobnicate"})
        assert stream.recv()["type"] == "error"
        stream.send({"type": "ping"})
        assert stream.recv()["type"] == "pong"
        stream.close()

    def test_interleaved_clients_get_consistent_streams(self, fabric_factory):
        """Two clients on one coordinator: each connection's replies stay
        internally ordered while the other hammers the server."""
        fabric = fabric_factory()
        errors = []

        def hammer():
            try:
                with CampaignClient(fabric.address) as client:
                    for _ in range(50):
                        assert client.ping()["type"] == "pong"
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestCoordinatorStop:
    def test_stop_ends_the_accept_thread(self):
        # On Linux, close() alone does not wake an accept() blocked on the
        # listener, which would keep the thread and its coordinator alive.
        coordinator = CampaignCoordinator(port=0)
        address = coordinator.start()
        client = CampaignClient(address)
        try:
            assert client.ping()["type"] == "pong"
            coordinator.stop()
            thread = coordinator._accept_thread
            thread.join(timeout=2)
            assert not thread.is_alive()
        finally:
            client.close()
            coordinator.stop()


    def test_stop_with_an_idle_worker_connected_raises_in_no_thread(self, monkeypatch):
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        coordinator = CampaignCoordinator(port=0)
        worker = CampaignWorker(coordinator.start())
        try:
            assert worker.run_once() is False  # connected, and idle
            coordinator.stop()
            for thread in threading.enumerate():
                if thread.name == "campaignd-conn":
                    thread.join(timeout=2)
                    assert not thread.is_alive()
        finally:
            worker.close()
            coordinator.stop()
        assert unhandled == []


class TestProtocolVersion:
    """One wire version: a mismatch is refused, never negotiated."""

    @pytest.mark.parametrize("hello", [
        {"type": "hello", "role": "worker", "version": PROTOCOL_VERSION - 1},
        {"type": "hello", "role": "worker"},
        {"type": "hello", "role": "worker", "version": 5},
    ], ids=["old-version", "no-version", "version-5"])
    def test_coordinator_refuses_other_versions_and_closes(
        self, fabric_factory, hello
    ):
        fabric = fabric_factory()
        stream = connect(fabric.address)
        stream.send(hello)
        assert stream.recv()["type"] == "error"
        with pytest.raises(ConnectionClosed):
            stream.recv()
        stream.close()

    def test_coordinator_welcomes_its_own_version(self, fabric_factory):
        fabric = fabric_factory()
        stream = connect(fabric.address)
        stream.send({"type": "hello", "role": "worker", "version": PROTOCOL_VERSION})
        welcome = stream.recv()
        assert welcome["type"] == "welcome"
        assert welcome["version"] == PROTOCOL_VERSION
        stream.close()

    def test_worker_and_client_refuse_a_mismatched_coordinator(
        self, fabric_factory, monkeypatch
    ):
        monkeypatch.setattr(campaignd_module, "PROTOCOL_VERSION", 3)
        fabric = fabric_factory()
        worker = fabric.worker()
        with pytest.raises(ProtocolError):
            worker.run_once()
        with pytest.raises(ProtocolError):
            CampaignClient(fabric.address)


# ----------------------------------------------------------------------
# campaign spec
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_round_trip_and_fingerprint_stability(self):
        spec = CampaignSpec(**GIT_SPEC_KWARGS)
        clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert spec_fingerprint(clone) == spec_fingerprint(spec)
        assert spec_fingerprint(CampaignSpec(target="mini_git", seed=8)) != (
            spec_fingerprint(CampaignSpec(target="mini_git", seed=7))
        )

    def test_rejects_unknown_fields_and_missing_target(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"target": "mini_git", "bogus": 1})
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"workload": "status"})
        with pytest.raises(ValueError):
            CampaignSpec.from_dict("mini_git")


# ----------------------------------------------------------------------
# the fabric end to end
# ----------------------------------------------------------------------
class _DyingWorker(CampaignWorker):
    """A worker that crashes mid-lease, whatever its outcomes: once
    *die_after* of its records are acked it drops its link, with no
    ``done`` batch and no further traffic.  A batch that would stream past
    that many records goes out cut to them, without ``done``, so the crash
    loses the rest of the lease even when the lease would report back in
    one batch."""

    def __init__(self, address, die_after, **kwargs):
        super().__init__(address, **kwargs)
        self._result_budget = die_after

    def _rpc(self, message):
        if message.get("type") == "result_batch":
            records = message["records"]
            if len(records) > self._result_budget:
                if self._result_budget:
                    head = {key: value for key, value in message.items()
                            if key not in ("done", "stats")}
                    reply = super()._rpc(
                        dict(head, records=records[: self._result_budget])
                    )
                    assert reply["type"] == "ack", reply
                    self.results_streamed += self._result_budget
                self.stop()
                self._drop_stream()
                raise ConnectionClosed("simulated worker crash")
            self._result_budget -= len(records)
        return super()._rpc(message)


class TestCampaignFabric:
    def test_multi_worker_campaign_is_bit_identical_to_serial(
        self, fabric_factory, tmp_path
    ):
        fabric = fabric_factory(shard_size=3, lease_timeout=10.0)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "git.jsonl"), **GIT_SPEC_KWARGS)
        reply = client.submit(spec)
        assert reply["type"] == "submitted" and reply["state"] == "running"
        # Two workers drain the queue in strict alternation — deterministic
        # interleaving, so both provably execute shards of this campaign.
        w0 = fabric.worker(worker_id="w0")
        w1 = fabric.worker(worker_id="w1")
        worked = True
        while worked:
            worked = w0.run_once() | w1.run_once()
        assert w0.shards_completed and w1.shards_completed
        events = list(client.tail(reply["campaign_id"], timeout=60))
        assert events[-1]["type"] == "campaign_complete"

        status = client.status(reply["campaign_id"])
        assert status["state"] == "complete"
        assert status["completed"] == status["total"]
        assert status["executed"] == status["total"]  # every point ran exactly once
        assert set(status["workers_seen"]) == {"w0", "w1"}

        records = client.results(reply["campaign_id"])
        assert _signature_from_records(records) == _serial_signature()
        # Tail events carry the same records, in completion order.
        tailed = [e["record"] for e in events if e["type"] == "result"]
        assert {r["key"] for r in tailed} == {r["key"] for r in records}

    def test_pooled_worker_forks_one_pool_for_all_its_leases(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        pools = []
        make_pool = ProcessPoolBackend._make_pool

        def counted(backend):
            pools.append(backend)
            return make_pool(backend)

        monkeypatch.setattr(ProcessPoolBackend, "_make_pool", counted)
        fabric = fabric_factory(shard_size=4, lease_timeout=30.0)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "git.jsonl"), **GIT_SPEC_KWARGS)
        campaign_id = client.submit(spec)["campaign_id"]
        worker = fabric.worker(worker_id="pooled", parallelism="processes:2")
        while worker.run_once():
            pass
        assert worker.shards_completed >= 3
        assert len(pools) == 1
        assert _signature_from_records(client.results(campaign_id)) == _serial_signature()
        worker.close()
        assert pools[0]._pool is None  # close() reaps the pool

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
        reason="reads child pids from /proc",
    )
    def test_pool_children_exit_when_a_pooled_worker_is_killed(
        self, fabric_factory, tmp_path
    ):
        fabric = fabric_factory(shard_size=4, lease_timeout=30.0)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "git.jsonl"), **GIT_SPEC_KWARGS)
        campaign_id = client.submit(spec)["campaign_id"]
        host, port = fabric.address
        log_path = tmp_path / "worker.log"
        with open(log_path, "wb") as log:
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.cli.campaignd", "worker",
                 "--host", host, "--port", str(port), "--poll-interval", "0.05",
                 "--parallelism", "processes:2"],
                env={**os.environ, "PYTHONPATH": SRC},
                stdout=subprocess.DEVNULL, stderr=log,
            )
        children = set()

        def seen():
            """What the test saw: the worker, its pool children with their
            states, and the worker's stderr."""
            states = {pid: _state(pid) for pid in sorted(children)}
            return (
                f"worker pid {worker.pid} exit code {worker.poll()}; "
                f"children and states {states}; worker stderr:\n"
                + log_path.read_text(encoding="utf-8", errors="replace")
            )

        try:
            deadline = time.monotonic() + 60
            while not client.status(campaign_id)["completed"]:
                assert worker.poll() is None, seen()
                assert time.monotonic() < deadline, seen()
                time.sleep(0.05)
            children = _child_pids(worker.pid)
            assert len(children) == 2, seen()  # the pool the first lease forked
            worker.kill()
            worker.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_running, children)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, children)), seen()
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)
            for pid in filter(_running, children):  # a failed run's orphans
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    @staticmethod
    def _count_engine_builds(monkeypatch):
        builds = []
        build = worker_module.build_engine

        def counted(spec, store=None, target=None):
            builds.append(spec)
            return build(spec, store=store, target=target)

        monkeypatch.setattr(worker_module, "build_engine", counted)
        return builds

    def test_worker_shares_one_engine_across_store_paths(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        # The store path and shard size are the coordinator's: forty
        # campaigns that differ only in them execute alike, so a
        # long-lived worker builds one engine for all of them.
        builds = self._count_engine_builds(monkeypatch)
        fabric = fabric_factory(shard_size=2, durable_stores=False)
        client = fabric.client()
        worker = fabric.worker(worker_id="long-lived")
        kwargs = dict(target="mini_git", workload="status", seed=7, functions=["close"])
        leases = 0
        for number in range(40):
            spec = CampaignSpec(
                store_path=str(tmp_path / f"spec{number}.jsonl"),
                shard_size=2 + number % 2,
                **kwargs,
            )
            campaign_id = client.submit(spec)["campaign_id"]
            while worker.run_once():
                leases += 1
            assert client.status(campaign_id)["state"] == "complete"
        assert leases > 40
        assert len(builds) == 1 and len(worker._engines) == 1
        records = client.results(campaign_id)
        assert _signature_from_records(records) == _serial_signature(kwargs)

    def test_worker_keeps_a_bounded_number_of_engines(
        self, fabric_factory, monkeypatch
    ):
        # Specs that differ in their seed execute differently, so each
        # needs an engine; a long-lived worker keeps only the most recently
        # used few.
        builds = self._count_engine_builds(monkeypatch)
        fabric = fabric_factory(shard_size=2, durable_stores=False)
        client = fabric.client()
        worker = fabric.worker(worker_id="long-lived")
        specs = [
            CampaignSpec(
                target="mini_git", workload="status", seed=seed, functions=["close"],
            )
            for seed in range(2 * ENGINES_PER_WORKER + 1)
        ]
        leases = 0
        for spec in specs:
            campaign_id = client.submit(spec)["campaign_id"]
            while worker.run_once():
                leases += 1
                assert len(worker._engines) <= ENGINES_PER_WORKER
            assert client.status(campaign_id)["state"] == "complete"
        # Every spec took several leases but one build: its later leases
        # found the engine its first one built.
        assert leases > len(specs)
        assert builds == specs
        assert len(worker._engines) == ENGINES_PER_WORKER
        # A spec inside the bound builds nothing and becomes the most
        # recently used, so it outlives the next build; an evicted spec
        # builds again.
        oldest = specs[-ENGINES_PER_WORKER]
        cached = worker._engine_for(oldest)
        assert len(builds) == len(specs)
        worker._engine_for(specs[0])
        assert builds[len(specs):] == [specs[0]]
        assert worker._engine_for(oldest) is cached
        assert len(builds) == len(specs) + 1
        assert len(worker._engines) == ENGINES_PER_WORKER

    @pytest.mark.parametrize("extra", [0, 1])
    def test_round_robin_leases_across_running_campaigns(
        self, fabric_factory, monkeypatch, extra
    ):
        # The coordinator leases round-robin across its running campaigns,
        # so one worker serving them touches each in turn.  Up to the bound
        # it builds each campaign's engine once; one campaign more and
        # every lease finds its engine evicted by the leases since, and
        # rebuilds it (bar a few in the last rotation, as campaigns finish
        # and drop out of it).  Records are the same either way.
        builds = self._count_engine_builds(monkeypatch)
        fabric = fabric_factory(shard_size=2, durable_stores=False)
        client = fabric.client()
        worker = fabric.worker(worker_id="round-robin")
        kwargs = [
            dict(target="mini_git", workload="status", seed=seed, functions=["close"])
            for seed in range(ENGINES_PER_WORKER + extra)
        ]
        campaign_ids = [
            client.submit(CampaignSpec(**spec_kwargs))["campaign_id"]
            for spec_kwargs in kwargs
        ]
        leases = 0
        while worker.run_once():
            leases += 1
            assert len(worker._engines) <= ENGINES_PER_WORKER
        assert leases > 2 * len(kwargs)
        if extra:
            assert leases - len(kwargs) < len(builds) <= leases
        else:
            assert len(builds) == len(kwargs)
        for campaign_id, spec_kwargs in zip(campaign_ids, kwargs):
            assert client.status(campaign_id)["state"] == "complete"
            records = client.results(campaign_id)
            assert _signature_from_records(records) == _serial_signature(spec_kwargs)

    def test_worker_runs_every_campaign_of_a_target_on_one_instance(
        self, fabric_factory, monkeypatch
    ):
        # Boot templates are cached per target instance, and a worker
        # resolves each target name once: campaigns of two workloads that
        # share a boot scope boot the target once between them.
        monkeypatch.setenv("REPRO_SNAPSHOTS", "1")  # templates are the snapshot path's
        clear_suffix_memo()  # a memo hit would boot nothing
        fabric = fabric_factory(durable_stores=False)
        client = fabric.client()
        worker = fabric.worker(worker_id="one-target")
        kwargs = [
            dict(GIT_SPEC_KWARGS, workload=workload) for workload in ("status", "commit")
        ]
        before = artifact_cache_stats()
        campaign_ids = []
        for spec_kwargs in kwargs:
            campaign_ids.append(client.submit(CampaignSpec(**spec_kwargs))["campaign_id"])
            while worker.run_once():
                pass
        after = artifact_cache_stats()
        assert after.boot_misses - before.boot_misses == 1
        assert after.boot_shared_hits > before.boot_shared_hits
        assert list(worker._targets) == ["mini_git"] and len(worker._engines) == 2
        for campaign_id, spec_kwargs in zip(campaign_ids, kwargs):
            assert client.status(campaign_id)["state"] == "complete"
            records = client.results(campaign_id)
            assert _signature_from_records(records) == _serial_signature(spec_kwargs)

    def test_submit_is_idempotent_per_spec(self, fabric_factory, tmp_path):
        fabric = fabric_factory()
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "s.jsonl"), **GIT_SPEC_KWARGS)
        first = client.submit(spec)
        second = client.submit(spec)
        assert second["campaign_id"] == first["campaign_id"]
        assert second["resubmitted"] is True

    def test_unknown_target_is_a_clean_error(self, fabric_factory):
        fabric = fabric_factory()
        client = fabric.client()
        with pytest.raises(CampaignServerError, match="unknown target"):
            client.submit(CampaignSpec(target="no_such_target"))
        assert client.ping()["type"] == "pong"  # connection survives

    def test_group_key_failure_rejects_the_submit(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        """No silent contiguous-shard fallback: a spec whose group keys
        cannot be read from its campaign plan is refused, and the
        coordinator keeps serving."""
        derive = RoundPlanner.group_key_of

        def failing(planner, point):
            if planner.engine.seed == 99:
                raise RuntimeError("group keys unavailable")
            return derive(planner, point)

        monkeypatch.setattr(RoundPlanner, "group_key_of", failing)
        fabric = fabric_factory()
        client = fabric.client()
        broken = dict(GIT_SPEC_KWARGS, seed=99)
        with pytest.raises(CampaignServerError, match="group keys unavailable"):
            client.submit(CampaignSpec(store_path=str(tmp_path / "b.jsonl"), **broken))
        assert client.list_campaigns() == []

        spec = CampaignSpec(store_path=str(tmp_path / "ok.jsonl"), **GIT_SPEC_KWARGS)
        reply = client.submit(spec)
        worker = fabric.worker()
        while worker.run_once():
            pass
        assert client.status(reply["campaign_id"])["state"] == "complete"
        assert _signature_from_records(
            client.results(reply["campaign_id"])
        ) == _serial_signature()

    def test_cancel_stops_scheduling(self, fabric_factory, tmp_path):
        fabric = fabric_factory(shard_size=2)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "c.jsonl"), **GIT_SPEC_KWARGS)
        reply = client.submit(spec)  # no workers: nothing will run
        cancelled = client.cancel(reply["campaign_id"])
        assert cancelled["state"] == "cancelled"
        status = client.status(reply["campaign_id"])
        assert status["state"] == "cancelled" and status["queued"] == 0
        worker = fabric.worker()
        assert worker.run_once() is False  # nothing to fetch
        events = list(client.tail(reply["campaign_id"], timeout=10))
        assert events[-1]["type"] == "campaign_cancelled"

    def test_worker_killed_mid_campaign_shard_is_requeued(
        self, fabric_factory, tmp_path
    ):
        """Kill one of two workers mid-shard, one record into its first
        lease: its lease expires, the shard re-queues, and the merged
        results are still bit-identical."""
        fabric = fabric_factory(shard_size=4, lease_timeout=0.5)
        dying = _DyingWorker(
            fabric.address, die_after=1, worker_id="doomed", poll_interval=0.01
        )
        fabric.workers.append(dying)
        survivor = fabric.worker(worker_id="survivor", poll_interval=0.01)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "kill.jsonl"), **GIT_SPEC_KWARGS)
        reply = client.submit(spec)

        fabric.spawn(dying)
        fabric.spawn(survivor)
        events = list(client.tail(reply["campaign_id"], timeout=60))
        assert events[-1]["type"] == "campaign_complete"

        status = client.status(reply["campaign_id"])
        assert status["completed"] == status["total"]
        assert "doomed" in status["workers_seen"]
        assert dying.results_streamed == 1 and dying.shards_completed == 0
        records = client.results(reply["campaign_id"])
        assert _signature_from_records(records) == _serial_signature()

    def test_stale_lease_after_expiry_reconnect(self, fabric_factory, tmp_path):
        """A worker that goes silent past the lease timeout and then comes
        back finds its lease honoured no more: results and heartbeats are
        answered stale, and the shard has been handed to someone else."""
        fabric = fabric_factory(shard_size=4, lease_timeout=0.3)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "stale.jsonl"), **GIT_SPEC_KWARGS)
        client.submit(spec)

        stream = connect(fabric.address)
        stream.send({"type": "hello", "role": "worker", "worker_id": "sleepy",
                     "version": PROTOCOL_VERSION})
        assert stream.recv()["type"] == "welcome"
        stream.send({"type": "fetch", "worker_id": "sleepy"})
        shard = stream.recv()
        assert shard["type"] == "shard"

        time.sleep(0.5)  # outlive the lease without a heartbeat

        # Another worker now gets the same (re-queued) assignments.
        other = connect(fabric.address)
        other.send({"type": "hello", "role": "worker", "worker_id": "fresh",
                    "version": PROTOCOL_VERSION})
        assert other.recv()["type"] == "welcome"
        other.send({"type": "fetch", "worker_id": "fresh"})
        reissued = other.recv()
        assert reissued["type"] == "shard"
        assert reissued["assignments"] == shard["assignments"]
        assert reissued["lease_id"] != shard["lease_id"]

        # The sleeper's lease is rejected on every verb.
        stream.send({"type": "heartbeat", "lease_id": shard["lease_id"]})
        assert stream.recv()["type"] == "stale_lease"
        engine, by_key = _shard_engine()
        record = next(iter(engine.run_assignments(by_key, shard["assignments"][:1])))
        stream.send({
            "type": "result_batch", "lease_id": shard["lease_id"],
            "records": [record.to_dict()],
        })
        assert stream.recv()["type"] == "stale_lease"
        stream.send({
            "type": "result_batch", "lease_id": shard["lease_id"],
            "records": [record.to_dict()], "done": True, "stats": {"memo_hits": 1},
        })
        assert stream.recv()["type"] == "stale_lease"
        stream.close()
        other.close()

    def test_duplicate_result_delivery_is_idempotent(self, fabric_factory, tmp_path):
        """The same record delivered twice (retry races) stores once."""
        fabric = fabric_factory(shard_size=2, lease_timeout=30.0)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "dup.jsonl"), **GIT_SPEC_KWARGS)
        reply = client.submit(spec)

        stream = connect(fabric.address)
        stream.send({"type": "hello", "role": "worker", "worker_id": "dupper",
                     "version": PROTOCOL_VERSION})
        stream.recv()
        stream.send({"type": "fetch", "worker_id": "dupper"})
        shard = stream.recv()
        engine, by_key = _shard_engine()
        record = next(iter(engine.run_assignments(by_key, shard["assignments"][:1])))
        for _ in range(2):
            stream.send({
                "type": "result_batch", "lease_id": shard["lease_id"],
                "records": [record.to_dict()],
            })
            assert stream.recv()["type"] == "ack"
        stream.close()

        status = client.status(reply["campaign_id"])
        assert status["completed"] == status["resumed_at_submit"] + 1
        store = ResultStore(str(tmp_path / "dup.jsonl"))
        assert len([k for k in store.completed_keys() if k == record.key]) == 1

    def test_batch_with_a_foreign_key_is_rejected_whole(self, fabric_factory, tmp_path):
        """A ``result_batch`` is all-or-nothing: one record whose key is not
        part of the campaign gets the batch an ``error``, and the valid
        record before it is neither stored nor counted."""
        fabric = fabric_factory(shard_size=2, lease_timeout=30.0)
        client = fabric.client()
        path = tmp_path / "whole.jsonl"
        reply = client.submit(CampaignSpec(store_path=str(path), **GIT_SPEC_KWARGS))

        stream = connect(fabric.address)
        stream.send({"type": "hello", "role": "worker", "worker_id": "forger",
                     "version": PROTOCOL_VERSION})
        assert stream.recv()["type"] == "welcome"
        stream.send({"type": "fetch", "worker_id": "forger"})
        shard = stream.recv()
        # One shard shape for every campaign: explicit assignments only.
        assert set(shard) == {
            "type", "campaign_id", "lease_id", "lease_timeout", "spec", "assignments",
        }
        assert len(shard["assignments"]) == 2
        engine, by_key = _shard_engine()
        first, second = engine.run_assignments(by_key, shard["assignments"])
        stream.send({
            "type": "result_batch", "lease_id": shard["lease_id"],
            "records": [first.to_dict()],
        })
        assert stream.recv()["type"] == "ack"
        stored = path.read_bytes()
        completed = client.status(reply["campaign_id"])["completed"]

        stream.send({
            "type": "result_batch", "lease_id": shard["lease_id"],
            "records": [second.to_dict(), dict(second.to_dict(), key="not-a-key")],
        })
        rejected = stream.recv()
        assert rejected["type"] == "error" and "not-a-key" in rejected["error"]
        stream.close()
        assert path.read_bytes() == stored
        assert client.status(reply["campaign_id"])["completed"] == completed


#: A static mini_git campaign of a few dozen points, so that leases sized
#: by the round differ from the floor.
SIZED_SPEC_KWARGS = dict(target="mini_git", workload="status", seed=7)


class TestLeaseSizing:
    """Leases of a default coordinator (no ``shard_size``): each ``fetch``
    takes half a connected worker's share of what the round has left, at
    least ``MIN_LEASE_POINTS``."""

    @staticmethod
    def _record_leases(monkeypatch):
        """``(worker id, schedule indices)`` of every lease a worker runs."""
        leases = []
        execute = CampaignWorker._execute_shard

        def recorded(worker, shard):
            leases.append(
                (worker.worker_id, [index for index, _ in shard["assignments"]])
            )
            return execute(worker, shard)

        monkeypatch.setattr(CampaignWorker, "_execute_shard", recorded)
        return leases

    @staticmethod
    def _submit(fabric, tmp_path):
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "sized.jsonl"), **SIZED_SPEC_KWARGS)
        return client, client.submit(spec)["campaign_id"]

    @staticmethod
    def _assert_serial_records(client, campaign_id):
        status = client.status(campaign_id)
        assert status["state"] == "complete" and status["executed"] == status["total"]
        records = client.results(campaign_id)
        assert _signature_from_records(records) == _serial_signature(SIZED_SPEC_KWARGS)

    def test_one_worker_takes_a_round_in_logarithmically_many_leases(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        leases = self._record_leases(monkeypatch)
        fabric = fabric_factory()
        worker = fabric.worker(worker_id="alone")
        assert worker.run_once() is False  # connected before the submit
        client, campaign_id = self._submit(fabric, tmp_path)
        while worker.run_once():
            pass
        total = client.status(campaign_id)["total"]
        assert total > 4 * MIN_LEASE_POINTS
        assert len(leases) <= math.ceil(math.log2(total / MIN_LEASE_POINTS)) + 2
        # Every point leased once, the round's buckets in schedule order,
        # and the first lease half the round.
        indices = [index for _, lease in leases for index in lease]
        assert sorted(indices) == list(range(total))
        firsts = [lease[0] for _, lease in leases]
        assert firsts == sorted(firsts)
        assert len(leases[0][1]) <= math.ceil(total / 2) < 2 * len(leases[0][1])
        self._assert_serial_records(client, campaign_id)

    def test_a_connected_fleet_splits_the_round_finely(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        leases = self._record_leases(monkeypatch)
        fabric = fabric_factory()
        workers = [fabric.worker(worker_id=f"w{n}") for n in range(3)]
        for worker in workers:
            assert worker.run_once() is False  # the fleet connects first
        client, campaign_id = self._submit(fabric, tmp_path)
        worked = True
        while worked:
            worked = False
            for worker in workers:
                worked |= worker.run_once()
        total = client.status(campaign_id)["total"]
        assert len(leases[0][1]) <= max(MIN_LEASE_POINTS, math.ceil(total / 6))
        assert {worker_id for worker_id, _ in leases} == {"w0", "w1", "w2"}
        self._assert_serial_records(client, campaign_id)

    def test_a_killed_workers_unfinished_points_go_to_another_worker(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        leases = self._record_leases(monkeypatch)
        fabric = fabric_factory(lease_timeout=0.5)
        client, campaign_id = self._submit(fabric, tmp_path)
        # Alone on the fabric, the doomed worker leases half the round and
        # crashes once its first record is acked.
        doomed = _DyingWorker(fabric.address, die_after=1, worker_id="doomed")
        fabric.workers.append(doomed)
        with pytest.raises(ConnectionClosed):
            doomed.run_once()
        [(_, doomed_lease)] = leases
        stored = {record["index"] for record in client.results(campaign_id)}
        unfinished = set(doomed_lease) - stored
        assert len(stored) == doomed.results_streamed == 1 and unfinished

        survivor = fabric.worker(worker_id="survivor")
        deadline = time.monotonic() + 60
        while client.status(campaign_id)["state"] == "running":
            assert time.monotonic() < deadline
            if not survivor.run_once():
                time.sleep(0.05)  # until the doomed lease expires
        assert all(worker_id == "survivor" for worker_id, _ in leases[1:])
        assert unfinished <= {index for _, lease in leases[1:] for index in lease}
        self._assert_serial_records(client, campaign_id)

    def test_concurrent_workers_lease_every_point_once(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        # More workers than cores, one thread each, with a short switch
        # interval: their hellos and fetches interleave, and a lost update
        # to the queue, its point count or the fleet would lease a point
        # twice or never.
        leases = self._record_leases(monkeypatch)
        fabric = fabric_factory()
        client, campaign_id = self._submit(fabric, tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for n in range(4):
                fabric.spawn(fabric.worker(worker_id=f"t{n}", poll_interval=0.01))
            deadline = time.monotonic() + 60
            while client.status(campaign_id)["state"] == "running":
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            sys.setswitchinterval(interval)
        status = client.status(campaign_id)
        assert status["queued"] == 0 and status["leased"] == 0
        indices = [index for _, lease in leases for index in lease]
        assert sorted(indices) == list(range(status["total"]))
        self._assert_serial_records(client, campaign_id)


class TestResultBatches:
    """A worker reports a lease back in one or two ``result_batch``
    messages: the last one ``done``, an earlier one only for the lease's
    first failure or a full batch (``lease_batches``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        outcomes=st.lists(st.sampled_from([kind.value for kind in OutcomeKind]),
                          max_size=40),
        missing=st.integers(0, 3),
        cap=st.integers(1, 50),
    )
    def test_batches_keep_order_cap_first_failure_and_one_done(
        self, outcomes, missing, cap
    ):
        records = [_stored(f"k{n}", outcome, index=n) for n, outcome in enumerate(outcomes)]
        # *missing* > 0: fewer records came than the lease assigned.
        batches = list(lease_batches(iter(records), len(records) + missing, cap))
        assert [record for batch, _ in batches for record in batch] == records
        assert all(len(batch) <= cap for batch, _ in batches)
        assert [done for _, done in batches] == [False] * (len(batches) - 1) + [True]
        failures = [n for n, record in enumerate(records) if record.outcome_kind.is_failure]
        ends = []
        for batch, _ in batches:
            ends.append((ends[-1] if ends else 0) + len(batch))
        if failures:
            # The lease's first failure is the last record of its batch.
            assert failures[0] + 1 in ends
        for batch, _ in batches[:-1]:
            assert len(batch) == cap or batch[-1] is records[failures[0]]
        if not missing:
            assert batches[-1][0] or not records
            if len(records) <= cap:
                early = bool(failures) and failures[0] < len(records) - 1
                assert len(batches) == (2 if early else 1)

    def test_a_full_batch_of_the_largest_e2ebench_record_fits_a_default_link(self):
        path = os.path.join(os.path.dirname(SRC), "e2ebench", "reference.jsonl")
        with open(path, encoding="utf-8") as handle:
            records = [
                StoredResult.from_dict(json.loads(line)).to_dict()
                for line in handle if line.strip()
            ]
        largest = max(records, key=lambda record: len(json.dumps(record)))
        left, right = socket.socketpair()
        sender, receiver = MessageStream(left), MessageStream(right)
        try:
            # Twice the cap still fits: a full batch is well under the link's
            # max_message_bytes.
            for count in (RESULT_BATCH_RECORDS, 2 * RESULT_BATCH_RECORDS):
                message = {"type": "result_batch", "lease_id": "l1",
                           "campaign_id": "c1", "records": [largest] * count,
                           "done": True, "stats": {"memo_hits": 1}}
                received = []
                reader = threading.Thread(target=lambda: received.append(receiver.recv()))
                reader.start()
                sender.send(message)
                reader.join(timeout=10)
                assert not reader.is_alive() and received == [message]
        finally:
            sender.close()
            receiver.close()

    def test_a_worker_with_a_small_message_cap_splits_its_batches(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        batches = []
        real_send = MessageStream.send

        def send(stream, message):
            real_send(stream, message)
            if message["type"] == "result_batch":
                batches.append((len(message["records"]), message.get("done", False)))

        monkeypatch.setattr(MessageStream, "send", send)
        fabric = fabric_factory()
        worker = fabric.worker(max_message_bytes=4096)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "small.jsonl"), **SIZED_SPEC_KWARGS)
        campaign_id = client.submit(spec)["campaign_id"]
        while worker.run_once():
            pass
        status = client.status(campaign_id)
        assert status["state"] == "complete" and status["executed"] == status["total"]
        assert sum(count for count, _ in batches) == status["total"]
        per_lease, sent = [], 0
        for _, done in batches:
            sent += 1
            if done:
                per_lease.append(sent)
                sent = 0
        assert len(per_lease) == worker.shards_completed and sent == 0
        # Without the split a lease goes out in at most two batches.
        assert max(per_lease) > 2
        records = client.results(campaign_id)
        assert _signature_from_records(records) == _serial_signature(SIZED_SPEC_KWARGS)


class TestDoneBatch:
    """The lease's last ``result_batch`` carries ``done``: the coordinator
    stores, fsyncs and acks it like any batch, then settles the lease."""

    @staticmethod
    def _submit(fabric, tmp_path, name):
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / name), **GIT_SPEC_KWARGS)
        return client, client.submit(spec)["campaign_id"]

    def test_a_done_batch_settles_its_lease(self, fabric_factory, tmp_path):
        fabric = fabric_factory(shard_size=4)
        client, campaign_id = self._submit(fabric, tmp_path, "settle.jsonl")
        stream = _greet(fabric, "settler")
        try:
            shard = _fetch(stream, "settler")
            assert len(shard["assignments"]) == 4
            engine, by_key = _shard_engine()
            records = list(engine.run_assignments(by_key, shard["assignments"][:2]))
            done = _done_batch(shard, records, stats={
                "memo_hits": 3, "boot_hits": 1, "note": "x", "flag": True,
            })
            stream.send(done)
            assert stream.recv() == {"type": "ack", "accepted": 2, "remaining": 2}
            status = client.status(campaign_id)
            assert status["active_leases"] == 0 and status["leased"] == 0
            assert status["completed"] == status["resumed_at_submit"] + 2
            assert status["cache"] == {"memo_hits": 3, "boot_hits": 1}
            # A settled lease is stale, and its unfinished points lead the queue.
            stream.send(done)
            assert stream.recv() == {"type": "stale_lease"}
            again = _fetch(stream, "settler")
            assert again["assignments"][:2] == shard["assignments"][2:]
            stream.send(_done_batch(again, [], stats={"memo_hits": 2}))
            assert stream.recv()["type"] == "ack"
            assert client.status(campaign_id)["cache"] == {"memo_hits": 5, "boot_hits": 1}
        finally:
            stream.close()

    def test_an_empty_batch_is_accepted_only_with_done_and_not_fsynced(
        self, fabric_factory, tmp_path, monkeypatch
    ):
        fabric = fabric_factory(shard_size=4)
        client, campaign_id = self._submit(fabric, tmp_path, "empty.jsonl")
        stream = _greet(fabric, "empty")
        try:
            shard = _fetch(stream, "empty")
            fsyncs = []
            real_fsync = os.fsync
            monkeypatch.setattr(
                os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))
            )
            empty = {"type": "result_batch", "lease_id": shard["lease_id"], "records": []}
            stream.send(empty)
            rejected = stream.recv()
            assert rejected["type"] == "error" and "no records" in rejected["error"]
            assert client.status(campaign_id)["active_leases"] == 1
            stream.send(dict(empty, done=True))
            assert stream.recv() == {"type": "ack", "accepted": 0, "remaining": 4}
            assert fsyncs == []
            status = client.status(campaign_id)
            assert status["active_leases"] == 0 and status["executed"] == 0
            assert status["queued"] == status["total"] - status["completed"]
        finally:
            stream.close()

    def test_shard_done_is_an_unknown_message_type(self, fabric_factory, tmp_path):
        fabric = fabric_factory(shard_size=4)
        client, campaign_id = self._submit(fabric, tmp_path, "gone.jsonl")
        stream = _greet(fabric, "old")
        try:
            shard = _fetch(stream, "old")
            stream.send({"type": "shard_done", "lease_id": shard["lease_id"], "stats": {}})
            reply = stream.recv()
            assert reply["type"] == "error"
            assert "unknown message type 'shard_done'" in reply["error"]
            assert client.status(campaign_id)["active_leases"] == 1
            stream.send({"type": "ping"})
            assert stream.recv()["type"] == "pong"
        finally:
            stream.close()


class TestLeaseIndex:
    """The coordinator indexes open leases and running campaigns, so a
    request finds its lease, and a ``fetch`` its campaigns, without walking
    every campaign it has run."""

    def test_later_leases_settle_and_cancel_and_expiry_drop_them(
        self, fabric_factory, tmp_path
    ):
        fabric = fabric_factory(shard_size=4, lease_timeout=0.3)
        coordinator = fabric.coordinator
        client = fabric.client()
        worker = fabric.worker()

        def submit(name):
            spec = CampaignSpec(store_path=str(tmp_path / name), **GIT_SPEC_KWARGS)
            return client.submit(spec)["campaign_id"]

        earlier = []
        for n in range(3):
            earlier.append(submit(f"early-{n}.jsonl"))
            while worker.run_once():
                pass
        assert {client.status(c)["state"] for c in earlier} == {"complete"}
        assert coordinator._running_campaigns == {} and coordinator._leases == {}

        later = submit("later.jsonl")
        assert list(coordinator._running_campaigns) == [later]
        stream = _greet(fabric, "raw")
        try:
            shard = _fetch(stream, "raw")
            assert shard["campaign_id"] == later
            assert list(coordinator._leases) == [shard["lease_id"]]
            engine, by_key = _shard_engine()
            records = list(engine.run_assignments(by_key, shard["assignments"]))
            stream.send(_done_batch(shard, records))
            assert stream.recv() == {
                "type": "ack", "accepted": len(records), "remaining": 0,
            }
            assert coordinator._leases == {}

            # Cancel drops the campaign's open leases with the campaign.
            shard = _fetch(stream, "raw")
            assert list(coordinator._leases) == [shard["lease_id"]]
            client.cancel(later)
            assert coordinator._leases == {} and coordinator._running_campaigns == {}
            stream.send(_done_batch(shard, []))
            assert stream.recv() == {"type": "stale_lease"}

            # Expiry drops a silent lease and re-queues its points.
            expiring = submit("expiring.jsonl")
            shard = _fetch(stream, "raw")
            assert shard["campaign_id"] == expiring
            time.sleep(0.5)
            status = client.status(expiring)  # reaps expired leases
            assert coordinator._leases == {}
            assert status["active_leases"] == 0
            assert status["queued"] == status["total"] - status["completed"]
            stream.send({"type": "heartbeat", "lease_id": shard["lease_id"]})
            assert stream.recv() == {"type": "stale_lease"}
            assert list(coordinator._running_campaigns) == [expiring]
        finally:
            stream.close()


class TestCoordinatorRestart:
    @pytest.mark.parametrize("strategy", [None, "coverage:round=4,patience=2"],
                             ids=["static", "coverage"])
    def test_resume_after_coordinator_and_worker_die(self, tmp_path, strategy):
        """The acceptance criterion: kill the coordinator (and the worker)
        mid-campaign, restart both, resubmit the same spec — the campaign
        resumes from the store, re-runs nothing already checkpointed, and
        the merged results are bit-identical to a serial run.  The
        coverage-guided spec plans three rounds of four, one shard each:
        it dies after two, so the resubmit replays both through the
        planner before it leases the third."""
        runs = {"count": 0}

        class CountingGitTarget:
            def __init__(self):
                self._inner = MiniGitTarget()
                self.name = "counting_git"

            def binary(self):
                return self._inner.binary()

            def workloads(self):
                return self._inner.workloads()

            def run(self, request):
                runs["count"] += 1
                return self._inner.run(request)

        register_target("counting_git", CountingGitTarget)
        try:
            spec_kwargs = dict(
                target="counting_git", workload="status", seed=11, strategy=strategy,
            )
            engine, points = build_engine(
                CampaignSpec(**spec_kwargs), store=ResultStore()
            )
            serial = _signature_from_outcomes(engine.explore(points))
            total = len(serial)
            assert total > 8  # the test needs a partial first phase
            runs["count"] = 0

            store_path = str(tmp_path / "restart.jsonl")
            spec = CampaignSpec(store_path=store_path, **spec_kwargs)

            # Phase 1: run exactly two shards, then everything dies.
            coordinator = CampaignCoordinator(port=0, shard_size=4)
            address = coordinator.start()
            with CampaignClient(address) as client:
                first = client.submit(spec)
                assert first["resumed"] == 0
            worker = CampaignWorker(address, worker_id="w-phase1")
            assert worker.run_once() and worker.run_once()
            worker.close()
            coordinator.stop()  # hard stop: no draining, no farewell

            checkpointed = len(ResultStore(store_path))
            assert checkpointed == 8 == runs["count"]

            # Phase 2: a new coordinator on the same store resumes.
            coordinator = CampaignCoordinator(port=0, shard_size=4)
            address = coordinator.start()
            try:
                with CampaignClient(address) as client:
                    second = client.submit(spec)
                    assert second["resumed"] == checkpointed
                    worker = CampaignWorker(address, worker_id="w-phase2")
                    while worker.run_once():
                        pass
                    worker.close()
                    status = client.status(second["campaign_id"])
                    assert status["state"] == "complete"
                    assert status["total"] == total
                    assert status["executed"] == total - checkpointed
                    records = client.results(second["campaign_id"])
            finally:
                coordinator.stop()

            # Nothing already checkpointed re-ran.
            assert runs["count"] == total
            # And the merged records are bit-identical to one serial run.
            assert _signature_from_records(records) == serial
        finally:
            unregister_target("counting_git")

    def test_tail_of_a_resubmitted_campaign_starts_at_its_first_fresh_record(
        self, tmp_path
    ):
        """A resumed campaign's `tail` streams only the records this
        coordinator accepted: the first is seq 0, and the records served
        from the store at submit are not tailed."""
        store_path = str(tmp_path / "tail.jsonl")
        spec = CampaignSpec(store_path=store_path, **GIT_SPEC_KWARGS)
        coordinator = CampaignCoordinator(port=0, shard_size=4)
        address = coordinator.start()
        try:
            with CampaignClient(address) as client:
                client.submit(spec)
            worker = CampaignWorker(address, worker_id="w-phase1")
            assert worker.run_once()
            worker.close()
        finally:
            coordinator.stop()
        resumed = {record.key for record in ResultStore(store_path)}
        assert len(resumed) == 4

        coordinator = CampaignCoordinator(port=0)
        address = coordinator.start()
        try:
            with CampaignClient(address) as client:
                reply = client.submit(spec)
                assert reply["resumed"] == len(resumed)
                worker = CampaignWorker(address, worker_id="w-phase2")
                while worker.run_once():
                    pass
                worker.close()
                campaign_id = reply["campaign_id"]
                events = list(client.tail(campaign_id, follow=False, timeout=60))
                later = list(client.tail(campaign_id, from_seq=2, follow=False, timeout=60))
                records = client.results(campaign_id)
        finally:
            coordinator.stop()
        results = events[:-1]
        assert [event["seq"] for event in results] == list(range(len(results)))
        assert {event["type"] for event in results} == {"result"}
        assert events[-1] == {
            "type": "campaign_complete", "campaign_id": campaign_id, "seq": len(results),
        }
        tailed = [event["record"]["key"] for event in results]
        assert len(tailed) == len(records) - len(resumed)
        assert set(tailed) == {record["key"] for record in records} - resumed
        # Each event carries its record as the store holds it, and
        # from_seq picks the numbering up where it says.
        by_key = {record["key"]: record for record in records}
        assert all(event["record"] == by_key[event["record"]["key"]] for event in results)
        assert later == results[2:] + [dict(events[-1])]

    def test_resubmit_against_mismatched_seed_store_is_rejected(
        self, fabric_factory, tmp_path
    ):
        store_path = str(tmp_path / "seeded.jsonl")
        fabric = fabric_factory()
        client = fabric.client()
        spec = dict(GIT_SPEC_KWARGS)
        reply = client.submit(CampaignSpec(store_path=store_path, **spec))
        worker = fabric.worker()
        while worker.run_once():
            pass
        assert client.status(reply["campaign_id"])["state"] == "complete"
        spec["seed"] = 99  # same store, different schedule seeds
        with pytest.raises(CampaignServerError, match="seed mismatch"):
            client.submit(CampaignSpec(store_path=store_path, **spec))


# ----------------------------------------------------------------------
# engine shard API
# ----------------------------------------------------------------------
class TestRunAssignments:
    @pytest.mark.parametrize("strategy", [None, "coverage:round=4,patience=1"],
                             ids=["static", "coverage"])
    def test_shard_records_match_explore_checkpoints(self, tmp_path, strategy):
        spec_kwargs = dict(GIT_SPEC_KWARGS, strategy=strategy)
        oracle_path = tmp_path / "oracle.jsonl"
        with ResultStore(str(oracle_path)) as oracle_store:
            engine, points = build_engine(CampaignSpec(**spec_kwargs), store=oracle_store)
            report = engine.explore(points)
        assert report.executed == len(report.outcomes) > 0

        shard_engine, by_key = _shard_engine(spec_kwargs)
        records = {
            record.key: record
            for record in shard_engine.run_assignments(
                by_key, [(o.index, o.point.key) for o in report.outcomes]
            )
        }
        shard_path = tmp_path / "shard.jsonl"
        with ResultStore(str(shard_path)) as shard_store:
            for stored in engine.store.results():
                shard_store.record(records.pop(stored.key))
        assert records == {}
        assert shard_path.read_bytes() == oracle_path.read_bytes()

    def test_unknown_key_raises(self):
        engine, by_key = _shard_engine()
        with pytest.raises(KeyError):
            engine.run_assignments(by_key, [(0, "no-such-point")])

    def test_negative_index_raises(self):
        engine, by_key = _shard_engine()
        with pytest.raises(IndexError):
            engine.run_assignments(by_key, [(-1, next(iter(by_key)))])

    def test_repeated_index_runs_once(self):
        engine, by_key = _shard_engine()
        key = next(iter(by_key))
        records = list(engine.run_assignments(by_key, [(3, key), (3, key)]))
        assert [record.index for record in records] == [3]


# ----------------------------------------------------------------------
# the CLI mains, in process
# ----------------------------------------------------------------------
class TestCampaignCLI:
    def test_submit_wait_status_results_roundtrip(
        self, fabric_factory, tmp_path, capsys
    ):
        from repro.cli import campaign as cli

        fabric = fabric_factory(shard_size=4)
        fabric.spawn(fabric.worker(worker_id="cli-w"))
        host, port = fabric.address
        base = ["--host", host, "--port", str(port)]

        rc = cli.main(base + [
            "submit", "--target", "mini_git", "--workload", "status",
            "--seed", "7", "--functions", "close,malloc",
            "--store", str(tmp_path / "cli.jsonl"), "--wait",
        ])
        assert rc == 0
        submitted, final = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        campaign_id = submitted["campaign_id"]
        assert final["state"] == "complete"

        assert cli.main(base + ["status", campaign_id]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "complete"

        assert cli.main(base + ["results", campaign_id]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert _signature_from_records(records) == _serial_signature()

        assert cli.main(base + ["list"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["campaign_id"] == campaign_id

        assert cli.main(base + ["ping"]) == 0
        assert json.loads(capsys.readouterr().out)["type"] == "pong"

    def test_tail_no_follow_catches_up(self, fabric_factory, tmp_path, capsys):
        from repro.cli import campaign as cli

        fabric = fabric_factory(shard_size=4)
        client = fabric.client()
        spec = CampaignSpec(store_path=str(tmp_path / "t.jsonl"), **GIT_SPEC_KWARGS)
        reply = client.submit(spec)
        worker = fabric.worker()
        while worker.run_once():
            pass
        host, port = fabric.address
        rc = cli.main([
            "--host", host, "--port", str(port),
            "tail", reply["campaign_id"], "--no-follow",
        ])
        assert rc == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[-1]["type"] == "campaign_complete"
        assert len(lines) - 1 == client.status(reply["campaign_id"])["total"]

    def test_worker_cli_max_idle_exits(self, fabric_factory):
        from repro.cli import campaignd as cli

        host, port = fabric_factory().address
        rc = cli.main([
            "worker", "--host", host, "--port", str(port),
            "--max-idle", "2", "--poll-interval", "0.01",
        ])
        assert rc == 0
