"""``repro-campaignd``: the resident campaign coordinator daemon.

The fabric's control plane.  A :class:`CampaignCoordinator` listens on one
TCP port and speaks the line-oriented JSON protocol of
:mod:`repro.distributed.protocol` (reference: ``doc/PROTOCOL.md``) with two
kinds of peers:

* **clients** (`repro-campaign`) submit :class:`CampaignSpec`\\ s, poll
  status, stream results (`tail`), fetch completed snapshots (`results`),
  and cancel campaigns;
* **workers** (`repro-campaignd worker`) pull *shard leases* — batches of
  ``(schedule index, point key)`` assignments — execute them on their
  local engine/pool stack, and stream result records back in
  ``result_batch`` messages.

Every link opens with a ``hello`` naming
:data:`~repro.distributed.protocol.PROTOCOL_VERSION`; a peer of any other
version is answered ``error`` and disconnected.

Shard leases are *group-aware* and *sized by the round*.  A round's
pending points wait in the campaign's queue as group buckets
(:func:`group_buckets`: a prefix family, or one ungrouped point) in
schedule order, and each ``fetch`` cuts its lease off the front
(:func:`cut_lease`): whole buckets, so the worker that drains a family
shares its boot+prefix capture and suffix memo instead of k machines each
probing the same prefix, up to :func:`lease_size` points, half a connected
worker's share of what the round has left.  Leases are large while a round
has much left, which spreads a lease's fixed cost over many points, and
shrink as it drains; a lease that would leave fewer than
:data:`MIN_LEASE_POINTS` queued takes them too.

Design points, in the order they matter for correctness:

**The coordinator plans; workers resolve keys.**  Every campaign owns a
:class:`~repro.core.exploration.engine.RoundPlanner` — a static strategy is
a single-round planner, a coverage-guided one plans round after round —
and the coordinator is its only driver: it holds the authoritative store,
which is exactly what the determinism contract needs ("spec + completed
results ⇒ next round", ``doc/ADAPTIVE.md``).  A lease names its points
explicitly as ``(schedule index, point key)`` pairs and only ever covers
the *current* round; when the round's last record lands, the next round is
planned under the lock and its points enqueue immediately.  A worker needs
to agree with the coordinator only on the fault space (see
:mod:`repro.distributed.spec`): it looks each key up in its own space and
derives the run seed from the index.  No scenario objects or pickled
targets cross the wire — just small JSON.

**The result store is the only durable state.**  A ``result_batch`` is
checked whole, then written to the campaign's JSON-lines
:class:`ResultStore` record by record (each line flushed) and, when
``durable_stores=True``, fsynced once — a group commit — *before* it is
acknowledged or streamed to tailing clients.  Coordinator crash-safety is
therefore resume, not replication: restart the daemon, resubmit the same
spec (same ``store_path``), and the planner replays the store and
re-leases only unfinished points — the same story as a locally
interrupted ``explore()``.

**Leases expire; records are idempotent.**  A shard lease carries a
deadline, extended by every ``result_batch`` and heartbeat from its
worker.  A dead worker's lease expires and its unfinished points return
to the front of the queue for the next ``fetch``.  A *slow* (not dead)
worker whose lease was reassigned keeps streaming records — they are
acknowledged as ``stale_lease`` and ignored, and even a racing duplicate
record is harmless because the store keeps first-completion-wins per key.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.exploration.engine import RoundPlanner
from repro.core.exploration.store import ResultStore, StoredResult
from repro.distributed.protocol import (
    MAX_MESSAGE_BYTES,
    ConnectionClosed,
    MessageStream,
    MessageTooLarge,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.distributed.spec import (
    CampaignSpec,
    build_engine,
    spec_fingerprint,
    validate_spec,
)

logger = logging.getLogger("repro.campaignd")

#: The smallest lease a ``fetch`` cuts while the round has that many
#: points queued (the fixed lease size before leases were sized by the
#: round).
MIN_LEASE_POINTS = 8
#: Default seconds a lease may go silent before its shard is re-queued.
DEFAULT_LEASE_TIMEOUT = 30.0


def lease_size(queued: int, workers: int, cap: Optional[int] = None) -> int:
    """Points the next lease may take.

    Half a worker's share of the *queued* points the round has left,
    ``ceil(queued / (2 * workers))`` with *workers* counted as at least 1,
    never below :data:`MIN_LEASE_POINTS`; when that would leave fewer than
    :data:`MIN_LEASE_POINTS` queued, all of them, so no round ends on a
    stub lease.  Never above *cap* (``None``: no cap).  This is factoring
    (Flynn Hummel, Schonberg and Flynn, CACM 1992): each lease's fixed cost
    (its ``fetch``, heartbeat and ``shard_done``) spreads over many points
    while the round has much left, and leases shrink as the round drains.
    """
    size = max(MIN_LEASE_POINTS, -(-queued // (2 * max(1, workers))))
    if queued - size < MIN_LEASE_POINTS:
        size = max(size, queued)
    return size if cap is None else min(cap, size)


def group_buckets(
    indices: Sequence[int], group_keys: Sequence[Optional[str]]
) -> List[List[int]]:
    """Bucket schedule indices by prefix group, in schedule order.

    ``group_keys[i]`` is the base prefix-group key of ``indices[i]``;
    ``None`` marks an ungrouped point, which is a bucket of its own.  A
    family's bucket sits where its first member does and holds its members
    in the order given; all-``None`` keys give one bucket per point.
    """
    buckets: List[List[int]] = []
    by_key: Dict[str, List[int]] = {}
    for index, key in zip(indices, group_keys, strict=True):
        if key is None:
            buckets.append([index])
            continue
        bucket = by_key.get(key)
        if bucket is None:
            bucket = by_key[key] = []
            buckets.append(bucket)
        bucket.append(index)
    return buckets


def cut_lease(queue: Deque[List[int]], size: int) -> List[int]:
    """Take one lease of at most *size* points off the front of *queue*.

    Whole buckets go in queue order until the queue is empty or the next
    bucket would take the lease past *size*.  Only a family larger than
    *size* is split: at the front of an empty lease it gives its first
    *size* members and keeps the rest at the front of the queue.  Each
    chunk re-probes the shared prefix on its worker, and the prefix
    scheduler's subset invariant keeps every chunk's records identical to
    the unsplit family's.  The lease lists its points bucket by bucket;
    the worker runs them in schedule order
    (:meth:`~repro.core.exploration.engine.ExplorationEngine.run_assignments`
    sorts them).
    """
    lease: List[int] = []
    while queue and len(lease) + len(queue[0]) <= size:
        lease.extend(queue.popleft())
    if not lease and queue:
        bucket = queue[0]
        lease = bucket[:size]
        queue[0] = bucket[size:]
    return lease


class _Lease:
    """One worker's claim on a batch of planned schedule positions."""

    __slots__ = ("lease_id", "campaign_id", "worker_id", "indices", "deadline")

    def __init__(
        self,
        lease_id: str,
        campaign_id: str,
        worker_id: str,
        indices: List[int],
        deadline: float,
    ) -> None:
        self.lease_id = lease_id
        self.campaign_id = campaign_id
        self.worker_id = worker_id
        self.indices = indices  # not yet completed
        self.deadline = deadline


class _Campaign:
    """Coordinator-side state of one submitted campaign.

    Construction replays the store through *planner* and queues the first
    round with unfinished points, so a resubmitted campaign resumes.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        fingerprint: str,
        store: ResultStore,
        planner: RoundPlanner,
        cap: Optional[int],
    ) -> None:
        self.id = ""  # assigned when the campaign is registered
        self.spec = spec
        self.fingerprint = fingerprint
        self.store = store
        #: The campaign's round planner.  The coordinator is its only
        #: driver: it replays feedback from the authoritative store and
        #: plans each next round under the lock.
        self.planner = planner
        #: Most points one lease may take; ``None`` sizes leases by the
        #: round alone (:func:`lease_size`).
        self.cap = None if cap is None else max(1, int(cap))
        #: Store key of every planned schedule position, synced from the
        #: planner by :meth:`advance`.
        self.schedule_keys: List[str] = []
        self.key_to_index: Dict[str, int] = {}
        self.completed_count = 0
        self.executed = 0  # fresh records accepted over the fabric
        #: The open round's unleased points as group buckets, in schedule
        #: order; every ``fetch`` cuts its lease off the front.
        self.queue: Deque[List[int]] = deque()
        self.leases: Dict[str, _Lease] = {}
        #: Summed worker-reported cache deltas (``shard_done`` stats).
        self.worker_cache_stats: Dict[str, float] = {}
        #: Records the store held at submit.  The store keeps records in
        #: arrival order, so `tail` streams the fresh ones from here, made
        #: into ``result`` events as they are sent.
        self.stored_at_submit = len(store)
        self.workers_seen: Set[str] = set()
        self.advance()
        self.resumed_at_submit = self.completed_count
        self.state = "complete" if planner.done else "running"

    @property
    def total(self) -> int:
        return len(self.schedule_keys)

    def advance(self) -> None:
        """Replay the store through the planner and queue what it leaves.

        Serves both submit and round close.  ``replay_from_store`` may
        advance through several rounds at once when the store already
        answers them (a resumed campaign); every newly planned position is
        synced into the campaign's coordinate system — schedule keys,
        key→index map, completed count — before the pending points of the
        open round are queued.
        """
        planner = self.planner
        engine = planner.engine
        pending = planner.replay_from_store()
        for index in range(len(self.schedule_keys), len(planner.schedule)):
            point = planner.schedule[index]
            key = engine.run_key(point)
            self.schedule_keys.append(key)
            self.key_to_index[key] = index
            if key in self.store:
                self.completed_count += 1
        if pending:
            self.enqueue([index for index, _ in pending])

    def enqueue(self, indices: List[int], front: bool = False) -> None:
        """Queue schedule *indices* as group buckets: at the back when a
        round opens, at the front when a lease gives them back (expired
        work is the oldest work).

        No fallback: a group key that cannot be read fails the submit (or
        the round close) instead of leasing blind.  The keys come from the
        campaign plan, which the worker shares.
        """
        planner = self.planner
        buckets = group_buckets(
            indices, [planner.group_key_of(planner.schedule[i]) for i in indices]
        )
        if front:
            self.queue.extendleft(reversed(buckets))
        else:
            self.queue.extend(buckets)

    def queued(self) -> int:
        return sum(len(bucket) for bucket in self.queue)

    def cut(self, workers: int) -> List[int]:
        """Cut the next lease for a fleet of *workers* connected workers."""
        return cut_lease(self.queue, lease_size(self.queued(), workers, self.cap))

    def leased_count(self) -> int:
        return sum(len(lease.indices) for lease in self.leases.values())

    def status_payload(self) -> Dict[str, Any]:
        return {
            "type": "status",
            "campaign_id": self.id,
            "state": self.state,
            "target": self.spec.target,
            "workload": self.spec.workload,
            "store_path": self.spec.store_path,
            "total": self.total,
            "completed": self.completed_count,
            "resumed_at_submit": self.resumed_at_submit,
            "executed": self.executed,
            "queued": self.queued(),
            "leased": self.leased_count(),
            "active_leases": len(self.leases),
            "workers_seen": sorted(self.workers_seen),
            "cache": dict(self.worker_cache_stats),
            "planner": self.planner.summary(),
        }


class CampaignCoordinator:
    """The resident coordinator: accepts clients and workers, owns state."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_size: Optional[int] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        durable_stores: bool = True,
        max_message_bytes: int = MAX_MESSAGE_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        #: Default cap on points per lease; ``None`` sizes leases by the
        #: round alone.  A spec's own ``shard_size`` overrides it.
        self.shard_size = None if shard_size is None else max(1, int(shard_size))
        self.lease_timeout = float(lease_timeout)
        self.durable_stores = durable_stores
        self.max_message_bytes = max_message_bytes

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._campaigns: Dict[str, _Campaign] = {}
        self._by_fingerprint: Dict[str, str] = {}
        self._next_campaign = 1
        self._next_lease = 1
        self._fetch_rotor = 0

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._streams: Set[MessageStream] = set()
        #: Open connections that said ``hello`` as a worker: the fleet a
        #: lease is sized for.  Counted by connection, not by recent
        #: fetches, because a fleet connects before a campaign is
        #: submitted and the first worker to poll must not take half of
        #: every round.
        self._worker_streams: Set[MessageStream] = set()
        self._running = False
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen, and serve in a background thread; returns the
        bound ``(host, port)`` (the kernel picks the port when 0)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="campaignd-accept", daemon=True
        )
        self._accept_thread.start()
        logger.info("campaignd listening on %s:%d", self.host, self.port)
        return self.host, self.port

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` is called."""
        if not self._running:
            self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Shut the daemon down: stop accepting, drop connections, close
        stores.  Campaign state survives only through the result stores."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._cond.notify_all()
        if self._listener is not None:
            # On Linux, close() alone does not wake an accept() already
            # blocked on the listener; shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for stream in list(self._streams):
            stream.close()
        with self._lock:
            for campaign in self._campaigns.values():
                campaign.store.close()
        self._stopped.set()
        logger.info("campaignd stopped")

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = MessageStream(sock, max_message_bytes=self.max_message_bytes)
            self._streams.add(stream)
            thread = threading.Thread(
                target=self._serve_connection, args=(stream,),
                name="campaignd-conn", daemon=True,
            )
            thread.start()

    def _serve_connection(self, stream: MessageStream) -> None:
        try:
            while self._running:
                try:
                    message = stream.recv()
                except ConnectionClosed:
                    break
                except MessageTooLarge as exc:
                    # The line cannot be resynchronised: report and drop.
                    self._try_reply(stream, {"type": "error", "error": str(exc)})
                    break
                except ProtocolError as exc:
                    self._try_reply(stream, {"type": "error", "error": str(exc)})
                    continue
                try:
                    done = self._dispatch(stream, message)
                except ConnectionClosed:
                    break
                except Exception as exc:  # handler bug or bad request content
                    logger.exception("error handling %r", message.get("type"))
                    if not self._try_reply(
                        stream, {"type": "error", "error": f"{type(exc).__name__}: {exc}"}
                    ):
                        break
                    continue
                if done:
                    break
        finally:
            self._streams.discard(stream)
            with self._lock:
                self._worker_streams.discard(stream)
            stream.close()

    @staticmethod
    def _try_reply(stream: MessageStream, message: Dict[str, Any]) -> bool:
        try:
            stream.send(message)
            return True
        except ProtocolError:
            return False

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, stream: MessageStream, message: Dict[str, Any]) -> bool:
        """Handle one message; returns True when the connection should end."""
        kind = message.get("type")
        if kind == "hello":
            if message.get("version") != PROTOCOL_VERSION:
                stream.send({
                    "type": "error",
                    "error": f"protocol version {message.get('version')!r} "
                    f"refused; this coordinator speaks {PROTOCOL_VERSION}",
                })
                return True
            if message.get("role") == "worker":
                with self._lock:
                    self._worker_streams.add(stream)
            stream.send({
                "type": "welcome",
                "server": "repro-campaignd",
                "version": PROTOCOL_VERSION,
                "lease_timeout": self.lease_timeout,
            })
            return False
        if kind == "ping":
            stream.send({"type": "pong"})
            return False
        if kind == "submit":
            stream.send(self._handle_submit(message))
            return False
        if kind == "status":
            stream.send(self._handle_status(message))
            return False
        if kind == "list":
            stream.send(self._handle_list())
            return False
        if kind == "results":
            self._handle_results(stream, message)
            return False
        if kind == "tail":
            self._handle_tail(stream, message)
            return False
        if kind == "cancel":
            stream.send(self._handle_cancel(message))
            return False
        if kind == "fetch":
            stream.send(self._handle_fetch(message))
            return False
        if kind == "result_batch":
            stream.send(self._handle_result_batch(message))
            return False
        if kind == "heartbeat":
            stream.send(self._handle_heartbeat(message))
            return False
        if kind == "shard_done":
            stream.send(self._handle_shard_done(message))
            return False
        if kind == "shutdown":
            stream.send({"type": "ack"})
            threading.Thread(target=self.stop, daemon=True).start()
            return True
        stream.send({"type": "error", "error": f"unknown message type {kind!r}"})
        return False

    # ------------------------------------------------------------------
    # client handlers
    # ------------------------------------------------------------------
    def _handle_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # Validate the spec's names *here*, before anything is registered:
        # an unknown workload or fault class would otherwise be accepted at
        # submit and only blow up inside every worker shard, far from the
        # client that could fix it.  The reply is a structured error, not a
        # dropped connection, so submitters can distinguish "bad spec" from
        # "coordinator down".
        try:
            spec = CampaignSpec.from_dict(message.get("campaign"))
            validate_spec(spec)
        except ValueError as exc:
            return {"type": "error", "error": str(exc), "rejected": True}
        fingerprint = spec_fingerprint(spec)
        with self._lock:
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                campaign = self._campaigns[existing_id]
                return self._submitted_payload(campaign, resubmitted=True)

        # Build outside the lock: compiling the target and loading the
        # store can take a while and must not block fetches/heartbeats.
        # Not fsynced per record: _handle_result_batch syncs each batch.
        store = ResultStore(spec.store_path, durable=False)
        if store.has_torn_tail:
            # A coordinator killed mid-append leaves a partial line; the
            # run it described re-executes, the tail must go before the
            # first new record anyway — do it eagerly so it is logged.
            store.repair()
            logger.info("repaired torn tail in %s", spec.store_path)
        try:
            engine, points = build_engine(spec, store=store)
            campaign = _Campaign(
                spec, fingerprint, store, RoundPlanner(engine, points),
                spec.shard_size or self.shard_size,
            )
        except Exception:
            store.close()
            raise

        with self._lock:
            # Re-check under the lock: a racing identical submit may have
            # registered while we were building.
            existing_id = self._by_fingerprint.get(fingerprint)
            if existing_id is not None:
                store.close()
                campaign = self._campaigns[existing_id]
                return self._submitted_payload(campaign, resubmitted=True)
            campaign.id = f"c{self._next_campaign}"
            self._next_campaign += 1
            self._campaigns[campaign.id] = campaign
            self._by_fingerprint[fingerprint] = campaign.id
            self._cond.notify_all()
            logger.info(
                "campaign %s submitted: %s total=%d resumed=%d",
                campaign.id, spec.target, campaign.total, campaign.resumed_at_submit,
            )
            return self._submitted_payload(campaign, resubmitted=False)

    @staticmethod
    def _submitted_payload(campaign: _Campaign, resubmitted: bool) -> Dict[str, Any]:
        return {
            "type": "submitted",
            "campaign_id": campaign.id,
            "state": campaign.state,
            "total": campaign.total,
            "completed": campaign.completed_count,
            "resumed": campaign.resumed_at_submit,
            "resubmitted": resubmitted,
        }

    def _campaign_for(self, message: Dict[str, Any]) -> _Campaign:
        campaign_id = message.get("campaign_id")
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise ValueError(f"unknown campaign {campaign_id!r}")
        return campaign

    def _handle_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._reap_expired_leases()
            return self._campaign_for(message).status_payload()

    def _handle_list(self) -> Dict[str, Any]:
        with self._lock:
            self._reap_expired_leases()
            return {
                "type": "campaigns",
                "campaigns": [
                    campaign.status_payload()
                    for campaign in self._campaigns.values()
                ],
            }

    def _handle_results(self, stream: MessageStream, message: Dict[str, Any]) -> None:
        """Stream the completed snapshot, in schedule order, then an end marker."""
        with self._lock:
            campaign = self._campaign_for(message)
            records = [
                campaign.store.get(key).to_dict()
                for key in campaign.schedule_keys
                if key in campaign.store
            ]
            state = campaign.state
        for position, record in enumerate(records):
            stream.send({
                "type": "result",
                "campaign_id": message.get("campaign_id"),
                "seq": position,
                "record": record,
            })
        stream.send({
            "type": "results_end",
            "campaign_id": message.get("campaign_id"),
            "count": len(records),
            "state": state,
        })

    def _handle_tail(self, stream: MessageStream, message: Dict[str, Any]) -> None:
        """Stream fresh results as they arrive; ends at campaign completion
        (or immediately after catching up when ``follow`` is false)."""
        campaign_id = message.get("campaign_id")
        follow = bool(message.get("follow", True))
        seq = max(0, int(message.get("from_seq", 0)))
        with self._lock:
            campaign = self._campaign_for(message)
        while True:
            with self._lock:
                while (
                    self._running
                    and follow
                    and seq >= campaign.executed
                    and campaign.state == "running"
                ):
                    self._cond.wait(timeout=0.5)
                batch = list(
                    islice(campaign.store, campaign.stored_at_submit + seq, None)
                )
                state = campaign.state
                running = self._running
            for record in batch:
                stream.send({
                    "type": "result",
                    "campaign_id": campaign.id,
                    "seq": seq,
                    "record": record.to_dict(),
                })
                seq += 1
            if not running or not follow or state != "running":
                stream.send({
                    "type": f"campaign_{state}" if state != "running" else "tail_end",
                    "campaign_id": campaign_id,
                    "seq": seq,
                })
                return

    def _handle_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            campaign = self._campaign_for(message)
            if campaign.state == "running":
                campaign.state = "cancelled"
                campaign.queue.clear()
                campaign.leases.clear()
                self._cond.notify_all()
                logger.info("campaign %s cancelled", campaign.id)
            return {"type": "cancelled", "campaign_id": campaign.id,
                    "state": campaign.state}

    # ------------------------------------------------------------------
    # worker handlers
    # ------------------------------------------------------------------
    def _reap_expired_leases(self) -> None:
        """Re-queue the unfinished indices of every expired lease (called
        under the lock)."""
        now = time.monotonic()
        for campaign in self._campaigns.values():
            expired = [
                lease for lease in campaign.leases.values() if lease.deadline < now
            ]
            for lease in expired:
                del campaign.leases[lease.lease_id]
                if campaign.state != "running":
                    continue
                remaining = [
                    index for index in lease.indices
                    if campaign.schedule_keys[index] not in campaign.store
                ]
                if remaining:
                    campaign.enqueue(remaining, front=True)
                    logger.info(
                        "lease %s (worker %s) expired; re-queued %d points",
                        lease.lease_id, lease.worker_id, len(remaining),
                    )

    def _handle_fetch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = str(message.get("worker_id", "anonymous"))
        with self._lock:
            self._reap_expired_leases()
            running = [
                campaign for campaign in self._campaigns.values()
                if campaign.state == "running" and campaign.queue
            ]
            if not running:
                return {"type": "idle", "retry_after": 0.2}
            # Round-robin across campaigns so many clients share the fleet.
            campaign = running[self._fetch_rotor % len(running)]
            self._fetch_rotor += 1
            indices = campaign.cut(len(self._worker_streams))
            lease_id = f"l{self._next_lease}"
            self._next_lease += 1
            lease = _Lease(
                lease_id,
                campaign.id,
                worker_id,
                indices,
                time.monotonic() + self.lease_timeout,
            )
            campaign.leases[lease_id] = lease
            campaign.workers_seen.add(worker_id)
            return {
                "type": "shard",
                "campaign_id": campaign.id,
                "lease_id": lease_id,
                "lease_timeout": self.lease_timeout,
                "spec": campaign.spec.to_dict(),
                "assignments": [
                    [index, campaign.planner.schedule[index].key]
                    for index in indices
                ],
            }

    def _find_lease(self, lease_id: Optional[str]) -> Optional[Tuple[_Campaign, _Lease]]:
        for campaign in self._campaigns.values():
            lease = campaign.leases.get(lease_id)
            if lease is not None:
                return campaign, lease
        return None

    def _accept_record(
        self, campaign: _Campaign, lease: _Lease, record: StoredResult
    ) -> None:
        """Store one streamed record of a checked batch and settle its
        accounting (under the lock).  The record is written and flushed
        here; its batch is fsynced once after its last record, before the
        ack is sent and before the lock is released to tail clients, so
        they never see a record that is not durable."""
        index = campaign.key_to_index[record.key]
        fresh = record.key not in campaign.store
        campaign.store.record(record)
        if fresh:
            campaign.completed_count += 1
            campaign.executed += 1
        # Feed the round planner.  Duplicate deliveries (stale leases
        # re-executing a member) are ignored by the planner itself — only
        # the first record per index counts, mirroring the store's
        # first-completion-wins.  The planner buffers feedback and ingests
        # it in schedule-index order at round close, so the arrival order
        # of records over the fabric cannot change the next round.
        campaign.planner.record_result(
            index, campaign.planner.schedule[index], record, resumed=False
        )
        if campaign.planner.current is None:
            campaign.advance()
        if index in lease.indices:
            lease.indices.remove(index)

    def _handle_result_batch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Accept one ``result_batch``: k records, one fsync, one ack.

        Every record is parsed, and its key checked against the lease's
        campaign, *before* any is stored, so a bad record rejects the whole
        batch instead of leaving it half-ingested under one unacknowledged
        message."""
        payload = message.get("records")
        if not isinstance(payload, list) or not payload:
            raise ValueError("result_batch message carries no records list")
        records = []
        for item in payload:
            if not isinstance(item, dict):
                raise ValueError("result_batch records must be objects")
            records.append(StoredResult.from_dict(item))
        with self._lock:
            found = self._find_lease(message.get("lease_id"))
            if found is None:
                return {"type": "stale_lease"}
            campaign, lease = found
            for record in records:
                if record.key not in campaign.key_to_index:
                    raise ValueError(
                        f"record key {record.key!r} is not part of campaign {campaign.id}"
                    )
            for record in records:
                self._accept_record(campaign, lease, record)
            if self.durable_stores:
                campaign.store.sync()
            lease.deadline = time.monotonic() + self.lease_timeout
            self._check_complete(campaign)
            self._cond.notify_all()
            return {
                "type": "ack",
                "accepted": len(records),
                "remaining": len(lease.indices),
            }

    def _handle_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            self._reap_expired_leases()
            found = self._find_lease(message.get("lease_id"))
            if found is None:
                return {"type": "stale_lease"}
            _campaign, lease = found
            lease.deadline = time.monotonic() + self.lease_timeout
            return {"type": "ack", "remaining": len(lease.indices)}

    def _handle_shard_done(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            found = self._find_lease(message.get("lease_id"))
            if found is None:
                return {"type": "stale_lease"}
            campaign, lease = found
            del campaign.leases[lease.lease_id]
            stats = message.get("stats")
            if isinstance(stats, dict):
                # Cache deltas, summed per campaign for
                # `repro-campaign status`.
                for key, value in stats.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    campaign.worker_cache_stats[key] = (
                        campaign.worker_cache_stats.get(key, 0) + value
                    )
            leftover = [
                index for index in lease.indices
                if campaign.schedule_keys[index] not in campaign.store
            ]
            if leftover and campaign.state == "running":
                # A worker declaring done with unfinished indices is a
                # worker bug, but the campaign must still terminate:
                # re-queue rather than lose the points.
                campaign.enqueue(leftover, front=True)
                logger.warning(
                    "lease %s done with %d unfinished points; re-queued",
                    lease.lease_id, len(leftover),
                )
            self._check_complete(campaign)
            self._cond.notify_all()
            return {"type": "ack"}

    def _check_complete(self, campaign: _Campaign) -> None:
        """Flip a running campaign to complete when its planner is
        exhausted and every planned key is stored (called under the lock);
        more rounds may follow a fully-stored schedule."""
        if campaign.state != "running" or not campaign.planner.done:
            return
        if campaign.completed_count >= campaign.total:
            campaign.state = "complete"
            logger.info(
                "campaign %s complete: %d points (%d executed here, %d resumed)",
                campaign.id, campaign.total, campaign.executed,
                campaign.resumed_at_submit,
            )


__all__ = [
    "CampaignCoordinator",
    "DEFAULT_LEASE_TIMEOUT",
    "MIN_LEASE_POINTS",
    "cut_lease",
    "group_buckets",
    "lease_size",
]
