"""The per-process simulated OS state.

A :class:`SimOS` bundles everything one simulated process can touch through
libc: the filesystem, heap, network endpoint, environment, mutex table,
clock and the standard output/error streams.  Distributed experiments
(PBFT) create one ``SimOS`` per node, sharing a single
:class:`~repro.oslib.net.SimNetwork` and :class:`~repro.oslib.clock.SimClock`.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional

from repro.oslib.clock import SimClock
from repro.oslib.env import SimEnvironment
from repro.oslib.fs import SimFileSystem
from repro.oslib.heap import SimHeap
from repro.oslib.net import SimNetwork
from repro.oslib.sync import MutexTable


class SimOS:
    """All OS-visible state of one simulated process."""

    def __init__(
        self,
        name: str = "process",
        network: Optional[SimNetwork] = None,
        clock: Optional[SimClock] = None,
        environment: Optional[Dict[str, str]] = None,
        heap_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.fs = SimFileSystem()
        self.heap = SimHeap() if heap_capacity is None else SimHeap(capacity=heap_capacity)
        self.network = network if network is not None else SimNetwork()
        self.clock = clock if clock is not None else SimClock()
        self.env = SimEnvironment(environment)
        self.mutexes = MutexTable()
        self.stdout: List[str] = []
        self.stderr: List[str] = []
        #: Exit status recorded by ``exit``/``abort`` (None while running).
        self.exit_code: Optional[int] = None
        self.aborted = False
        #: Free-form counters used by target applications and bug oracles.
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # convenience used by targets, workloads, and oracles
    # ------------------------------------------------------------------
    def write_stdout(self, text: str) -> None:
        self.stdout.append(text)

    def write_stderr(self, text: str) -> None:
        self.stderr.append(text)

    def stdout_text(self) -> str:
        return "".join(self.stdout)

    def stderr_text(self) -> str:
        return "".join(self.stderr)

    def bump(self, counter: str, amount: int = 1) -> int:
        self.counters[counter] = self.counters.get(counter, 0) + amount
        return self.counters[counter]

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def reset_streams(self) -> None:
        self.stdout.clear()
        self.stderr.clear()

    def reset(self) -> None:
        """Reset per-run oracle state for OS reuse across runs.

        ``reset_streams`` alone leaks oracle state when the same OS instance
        backs several runs: a previous run's counters, recorded exit code,
        or abort flag would be misread as this run's behaviour.  Network
        delivery hooks are run-scoped observers/fault installs (partitions,
        drop-alls) and leak the same way — a partition injected by one run
        must never silently black-hole the next run's traffic.
        """
        self.reset_streams()
        self.counters.clear()
        self.exit_code = None
        self.aborted = False
        self.network.clear_delivery_hooks()

    # ------------------------------------------------------------------
    # snapshot support (repro.vm.snapshot)
    # ------------------------------------------------------------------
    def capture_state(self) -> Dict[str, object]:
        """Capture every subsystem's state plus the process-level fields.

        The shared substrates of distributed experiments (network, clock)
        are captured too: for a single-process target they belong to this
        OS, and for a multi-node cluster the caller snapshots each node —
        restoring any one of them puts the shared objects back as well.
        """
        return {
            "name": self.name,
            "fs": self.fs.capture_state(),
            "heap": self.heap.capture_state(),
            "network": self.network.capture_state(),
            "clock": self.clock.capture_state(),
            "env": self.env.capture_state(),
            "mutexes": self.mutexes.capture_state(),
            "stdout": list(self.stdout),
            "stderr": list(self.stderr),
            "exit_code": self.exit_code,
            "aborted": self.aborted,
            "counters": dict(self.counters),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore this instance (in place) to a :meth:`capture_state` copy.

        In-place restoration is deliberate: the VM, libc, and facade all
        hold references to this object and its subsystems, and every one of
        those references stays valid across a restore.
        """
        self.name = state["name"]
        self.fs.restore_state(state["fs"])
        self.heap.restore_state(state["heap"])
        self.network.restore_state(state["network"])
        self.clock.restore_state(state["clock"])
        self.env.restore_state(state["env"])
        self.mutexes.restore_state(state["mutexes"])
        self.stdout[:] = state["stdout"]
        self.stderr[:] = state["stderr"]
        self.exit_code = state["exit_code"]
        self.aborted = state["aborted"]
        self.counters.clear()
        self.counters.update(state["counters"])

    def clone(self) -> "SimOS":
        """A detached copy of this OS (used to publish post-run state)."""
        copy = SimOS(self.name)
        copy.restore_state(self.capture_state())
        return copy

    def lazy_clone(self) -> "LazyOSClone":
        """A detached copy held as one immutable blob, hydrated on first access.

        The state is captured and serialized now (this OS may be rewound
        for the next fork the moment the call returns), but the SimOS
        reconstruction is deferred: runs publish their final OS far more
        often than anyone inspects it.
        """
        return LazyOSClone(
            pickle.dumps(self.capture_state(), protocol=pickle.HIGHEST_PROTOCOL)
        )


class LazyOSClone:
    """A :class:`SimOS` stand-in: one immutable blob of captured state.

    Attribute access hydrates the blob into a SimOS once and forwards to
    it; the hydrated OS is shared by every holder of this clone (a run
    result may be held by the suffix memo and several callers), so treat it
    as read-only and call ``clone()`` for a private copy.  The clone
    pickles as its blob, never as the hydrated object graph, and two
    clones are equal when their blobs are.
    """

    __slots__ = ("_blob", "_os")

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._os = None

    @property
    def nbytes(self) -> int:
        """Bytes the blob holds (what a suffix-memo entry is charged)."""
        return len(self._blob)

    def _hydrate(self) -> SimOS:
        if self._os is None:
            state = pickle.loads(self._blob)
            os = SimOS(state["name"])
            os.restore_state(state)
            self._os = os
        return self._os

    def __getattr__(self, name: str):
        if name.startswith("_"):
            # Never resolve internals through the proxy: during unpickling
            # (pools ship RunResults across processes) ``__getattr__`` runs
            # before the slots exist, and forwarding ``_blob``/``_os``
            # would recurse into ``_hydrate`` forever.
            raise AttributeError(name)
        return getattr(self._hydrate(), name)

    def __reduce__(self):
        return (LazyOSClone, (self._blob,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LazyOSClone):
            return NotImplemented
        return self._blob == other._blob

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyOSClone({len(self._blob)} bytes)"


__all__ = ["LazyOSClone", "SimOS"]
