"""``repro-campaignd worker``: the fabric's data plane node.

A :class:`CampaignWorker` pulls shard leases from the coordinator, looks
each lease's ``(schedule index, point key)`` assignments up in the fault
space it enumerates from the spec (see :mod:`repro.distributed.spec`),
executes them through the local engine/pool stack (boot-template cache,
prefix sharing, and the one backend ``parallelism`` selects for the
worker's lifetime, so a pool spec forks one pool), and streams the result
records back over the same connection, :data:`RESULT_BATCH_SIZE` records
per ``result_batch`` message.  The coordinator plans every round, so a
worker agrees with it only on the fault space, never on how a schedule is
derived.

Failure behaviour, which is most of what a worker *is*:

* **Link loss** — every RPC goes through one retry-with-backoff path; a
  dropped connection is redialed (:func:`repro.distributed.protocol.connect`
  does the backoff) and the current shard is abandoned — its lease will
  expire on the coordinator and the unfinished points re-queue.  Records
  already streamed stay completed (the store is idempotent per key), so
  nothing is lost and nothing runs twice.
* **Stale leases** — any RPC answered ``stale_lease`` (the coordinator
  re-assigned the shard after a silence, or the campaign was cancelled)
  makes the worker drop the shard immediately and fetch fresh work.
* **Heartbeats** — while a shard is executing, a background thread
  heartbeats the lease at a third of the advertised lease timeout, so a
  worker grinding through one slow scenario is not mistaken for dead.
  The send path is shared with the executor loop; each RPC is one
  lock-protected send/receive pair, so replies always match requests.
"""

from __future__ import annotations

import logging
import threading
import uuid
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.controller.executor import ParallelismSpec, backend_scope
from repro.core.controller.memo import suffix_memo_stats
from repro.core.profiler.cache import artifact_cache_stats
from repro.distributed.protocol import (
    MAX_MESSAGE_BYTES,
    ConnectionClosed,
    MessageStream,
    ProtocolError,
    connect,
    handshake,
)
from repro.distributed.spec import CampaignSpec, build_engine, spec_fingerprint

logger = logging.getLogger("repro.campaignd.worker")

#: Records per ``result_batch`` message.  The coordinator stores every
#: record, and with durable stores fsyncs the batch once, before acking
#: it, so a lost lease forfeits at most the unflushed tail, which the
#: re-queued lease re-executes.
RESULT_BATCH_SIZE = 8

#: Engines a worker keeps, least recently used dropped first.  One engine
#: holds the campaign plan and runs on the worker's one instance of its
#: target, whose boot templates outlive the engine.  The coordinator leases
#: round-robin across its running campaigns, so a worker serving more
#: distinct running campaigns than this rebuilds an engine on every lease.
ENGINES_PER_WORKER = 8


def _cache_stats_snapshot() -> Dict[str, float]:
    """Current boot-template and suffix-memo counters of this process.

    Shard deltas of these are reported on ``shard_done`` so the
    coordinator can explain fabric throughput (memo hit rates, template
    reuse) without any extra round trips.
    """
    cache = artifact_cache_stats()
    memo = suffix_memo_stats()
    return {
        "boot_hits": cache.boot_hits,
        "boot_misses": cache.boot_misses,
        "boot_shared_hits": cache.boot_shared_hits,
        "memo_hits": memo.hits,
        "memo_misses": memo.misses,
        "memo_stores": memo.stores,
        "memo_evictions": memo.evictions,
    }


class _LeaseLost(Exception):
    """Internal: the coordinator no longer honours our lease."""


class CampaignWorker:
    """One worker node: fetch shard, execute, stream results, repeat."""

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        parallelism: ParallelismSpec = None,
        poll_interval: float = 0.2,
        connect_retries: int = 8,
        connect_backoff: float = 0.05,
        max_message_bytes: int = MAX_MESSAGE_BYTES,
    ) -> None:
        self.address = address
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        #: Every lease runs on this one backend; a pool it owns is forked
        #: once and closed by :meth:`close`.
        self._backend, self._owns_backend = backend_scope(parallelism)
        self.poll_interval = poll_interval
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.max_message_bytes = max_message_bytes

        self._stream: Optional[MessageStream] = None
        self._rpc_lock = threading.Lock()
        self._stop = threading.Event()
        #: ``(engine, campaign plan)`` per executed spec (see
        #: :meth:`_engine_for`), at most :data:`ENGINES_PER_WORKER`, least
        #: recently used first: every shard of one campaign shares the
        #: target artifacts, boot templates and the plan — the fault space
        #: keyed by point key, with every point's scenario and keys (shared
        #: with an in-process coordinator through the artifact cache).
        self._engines: "OrderedDict[str, tuple]" = OrderedDict()
        #: One target instance per target name, shared by every engine this
        #: worker builds: boot templates are cached per target instance, so
        #: campaigns of one target (any workload or seed) share them.
        #: Bounded by the registry's target names.
        self._targets: Dict[str, Any] = {}
        #: Shards fully executed by this worker (observable for tests/CLI).
        self.shards_completed = 0
        self.results_streamed = 0

    # ------------------------------------------------------------------
    # link management
    # ------------------------------------------------------------------
    def _ensure_stream(self) -> MessageStream:
        if self._stream is None or self._stream.closed:
            self._stream = connect(
                self.address,
                retries=self.connect_retries,
                backoff=self.connect_backoff,
                max_message_bytes=self.max_message_bytes,
            )
            with self._rpc_lock:
                handshake(self._stream, "worker", worker_id=self.worker_id)
        return self._stream

    def _rpc(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response pair on the shared stream (thread-safe)."""
        stream = self._stream
        if stream is None or stream.closed:
            raise ConnectionClosed("worker link is down")
        with self._rpc_lock:
            stream.send(message)
            return stream.recv()

    def _drop_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def close(self) -> None:
        self.stop()
        self._drop_stream()
        if self._owns_backend:
            self._backend.close()

    def stop(self) -> None:
        """Ask a running loop to exit after the current scenario."""
        self._stop.set()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run_forever(self) -> None:
        """Serve shards until :meth:`stop` (or an unrecoverable dial
        failure after all retries)."""
        while not self._stop.is_set():
            try:
                worked = self.run_once()
            except ConnectionClosed:
                # The link died; connect() inside the next iteration rides
                # out a restarting coordinator with backoff.
                self._drop_stream()
                continue
            except ProtocolError as exc:
                logger.warning("protocol error, resetting link: %s", exc)
                self._drop_stream()
                continue
            if not worked:
                self._stop.wait(self.poll_interval)
        self._drop_stream()

    def run_once(self) -> bool:
        """Fetch and fully process one shard; False when the coordinator
        had nothing for us (idle poll)."""
        self._ensure_stream()
        reply = self._rpc({"type": "fetch", "worker_id": self.worker_id})
        kind = reply.get("type")
        if kind == "idle":
            return False
        if kind != "shard":
            raise ProtocolError(f"unexpected fetch reply: {reply!r}")
        self._execute_shard(reply)
        return True

    # ------------------------------------------------------------------
    # shard execution
    # ------------------------------------------------------------------
    def _engine_for(self, spec: CampaignSpec):
        # The store path and shard size are the coordinator's: specs that
        # differ only in them execute alike and share one engine.
        fingerprint = spec_fingerprint(replace(spec, store_path=None, shard_size=None))
        engines = self._engines
        cached = engines.get(fingerprint)
        if cached is None:
            target = self._targets.get(spec.target)
            if target is None:
                from repro.targets import resolve_target

                target = self._targets[spec.target] = resolve_target(spec.target)
            # No store: the coordinator owns persistence; the worker-side
            # engine only executes.
            engine, points = build_engine(spec, store=None, target=target)
            cached = (engine, engine.campaign_plan(points))
            engines[fingerprint] = cached
            while len(engines) > ENGINES_PER_WORKER:
                engines.popitem(last=False)
        else:
            engines.move_to_end(fingerprint)
        return cached

    def _execute_shard(self, shard: Dict[str, Any]) -> None:
        lease_id = shard["lease_id"]
        spec = CampaignSpec.from_dict(shard.get("spec"))
        engine, plan = self._engine_for(spec)
        # Resolved before the heartbeat starts: a key outside this worker's
        # fault space raises here instead of running a wrong point.
        runs = engine.run_assignments(
            plan, shard.get("assignments", ()), parallelism=self._backend,
        )
        lease_timeout = float(shard.get("lease_timeout", 30.0))

        lost = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, max(0.05, lease_timeout / 3.0), lost),
            name=f"heartbeat-{lease_id}",
            daemon=True,
        )
        heartbeat.start()
        stats_before = _cache_stats_snapshot()
        batch: List[Dict[str, Any]] = []

        def flush() -> None:
            if not batch:
                return
            reply = self._rpc({
                "type": "result_batch",
                "lease_id": lease_id,
                "campaign_id": shard.get("campaign_id"),
                "records": list(batch),
            })
            if reply.get("type") == "stale_lease":
                raise _LeaseLost()
            if reply.get("type") != "ack":
                raise ProtocolError(f"unexpected result_batch reply: {reply!r}")
            self.results_streamed += len(batch)
            batch.clear()

        try:
            for record in runs:
                if lost.is_set() or self._stop.is_set():
                    raise _LeaseLost()
                batch.append(record.to_dict())
                if len(batch) >= RESULT_BATCH_SIZE:
                    flush()
            flush()
            lost.set()
            heartbeat.join()
            stats_after = _cache_stats_snapshot()
            reply = self._rpc({
                "type": "shard_done",
                "lease_id": lease_id,
                "stats": {
                    key: stats_after[key] - stats_before[key]
                    for key in stats_after
                },
            })
            if reply.get("type") == "ack":
                self.shards_completed += 1
        except _LeaseLost:
            logger.info("lease %s lost; abandoning shard", lease_id)
        finally:
            lost.set()
            runs.close()  # cancel any outstanding pooled work

    def _heartbeat_loop(
        self, lease_id: str, interval: float, lost: threading.Event
    ) -> None:
        while not lost.wait(interval):
            try:
                reply = self._rpc({"type": "heartbeat", "lease_id": lease_id})
            except ProtocolError:
                lost.set()
                return
            if reply.get("type") != "ack":
                lost.set()
                return


__all__ = ["CampaignWorker", "ENGINES_PER_WORKER", "RESULT_BATCH_SIZE"]
