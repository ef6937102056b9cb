"""Suffix memoization: never pay for an already-probed fault point twice.

A deterministic scenario's run is a pure function of (target binary,
workload, libc spec, trigger composition, injected fault, metadata,
execution knobs): it is built solely from deterministic trigger classes
(:data:`~repro.core.controller.prefix.SAFE_TRIGGER_CLASSES`, no ``@``
parameters) against a target that declares ``prefix_shareable``.  Every
such run is memoizable — a prefix-group member, and equally a crash point
or budget ramp that may not join a group and runs alone.  So when a
strategy re-sweeps the same points, a campaign resumes, or overlapping
specs land on one long-lived ``repro-campaignd`` worker, re-executing the
run buys nothing — the stored
:class:`~repro.core.controller.monitor.RunResult` is bit-identical to a
fresh run.

This module is that store: a process-wide LRU cache mapping *memo keys*
to the results themselves.  A memo key is a 16-byte ``blake2b`` digest of
the run's canonical key — the scenario's trigger and plan fingerprint, its
fault values and metadata
(:func:`~repro.core.controller.prefix.scenario_keys`), and every
behaviour-relevant execution knob, the memo context
(:func:`~repro.core.controller.prefix.resolve_memo_context`, ``None``
when the memo is off).  Keys are derived before any task runs: an exploration's come from its campaign
plan (:mod:`repro.core.exploration.plan`), which derives each point's key
once per memo context; other runs' from
:func:`~repro.core.controller.prefix.build_group_tasks`, once per entry.
A :class:`~repro.core.controller.monitor.RunResult` is an immutable
value, so the memo stores and returns it as is — no serialization on
insert, no copy per hit — and every hit of one key is the same object.
The cache is bounded by a byte budget: an entry is charged
:func:`entry_size`, a deterministic size computed from its key and its
value (a result's
:attr:`~repro.core.controller.monitor.RunResult.nbytes`, which counts a
published OS as its blob) plus the entry's slot in the LRU map, so the
budget bounds the whole memo, keys included; least recently used entries
are evicted first.

Knobs:

* ``options["memo"]`` on any campaign/exploration run — ``False`` disables
  consultation *and* insertion (the differential oracle path), ``True``
  forces the process memo, a :class:`SuffixMemo` instance selects a
  private cache (tests);
* ``REPRO_MEMO=0`` disables the process-wide default;
* ``REPRO_MEMO_BYTES`` sets the byte budget (default 64 MiB); a value
  that is not a non-negative integer raises :class:`ValueError`.

Correctness boundaries, enforced by the callers in
:mod:`repro.core.controller.prefix`:

* only deterministic scenarios (safe triggers, no ``@`` parameters,
  ``prefix_shareable`` targets) get keys — everything else runs uncached;
  shareable fault classes are needed for grouping, not for a key;
* ``share_prefixes=False`` runs and :func:`run_requests
  <repro.core.controller.executor.run_requests>` never reach the memo:
  they are the per-scenario oracle;
* the per-run seed is deliberately **excluded** from keys: safe trigger
  classes never consult it, so including it would split cache lines
  across specs/strategies that derive different seeds for identical runs
  (the differential suite pins that results do not depend on it);
* store replay (:meth:`ExplorationEngine.explore` resuming from a
  :class:`ResultStore`) never reaches :func:`run_entry_group`, so lossy
  replayed records can never poison the memo.

Forked process-pool workers inherit a warm parent memo for free; their
own insertions stay in the child (same story as the artifact cache).
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

#: Default byte budget for the process-wide memo.
DEFAULT_MEMO_BYTES = 64 * 1024 * 1024


def default_memo_enabled() -> bool:
    """Process-wide default for suffix memoization (``REPRO_MEMO``)."""
    return os.environ.get("REPRO_MEMO", "1").lower() not in ("0", "false", "no")


def default_memo_bytes() -> int:
    """The configured byte budget (``REPRO_MEMO_BYTES``).

    Raises :class:`ValueError` when the variable is set to anything but a
    non-negative integer, rather than silently running with a budget the
    user did not ask for.
    """
    raw = os.environ.get("REPRO_MEMO_BYTES")
    if not raw:
        return DEFAULT_MEMO_BYTES
    if not raw.strip().isdecimal():
        raise ValueError(
            f"REPRO_MEMO_BYTES must be a non-negative integer byte count, got {raw!r}"
        )
    return int(raw)


#: What one entry costs besides its key and value objects: its slot in the
#: LRU map and the ``(value, charge)`` pair that fills it.  Measured with
#: ``tracemalloc`` on CPython 3.11, at the memo's sizes.
SLOT_BYTES = 175


def entry_size(key: Hashable, value: Any) -> int:
    """The bytes a memo entry mapping *key* to *value* is charged.

    :data:`SLOT_BYTES`, plus ``sys.getsizeof`` of the key (49 bytes for a
    digest key), plus the value's own ``nbytes`` when it has one (every
    :class:`~repro.core.controller.monitor.RunResult` does), else its
    ``sys.getsizeof`` — deterministic either way, and computed without
    serializing anything.
    """
    nbytes = getattr(value, "nbytes", None)
    if not isinstance(nbytes, int):
        nbytes = sys.getsizeof(value)
    return SLOT_BYTES + sys.getsizeof(key) + nbytes


@dataclass
class MemoStats:
    """Observable counters of one :class:`SuffixMemo` (stats surfacing)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    rejected: int = 0
    entries: int = 0
    current_bytes: int = 0
    max_bytes: int = 0


class SuffixMemo:
    """LRU result cache with a byte budget (thread-safe).

    Values are **stored and returned as they are**: the memo holds
    immutable results, so a hit hands out the stored value itself, not a
    copy.  Each entry is charged :func:`entry_size` of its key and value
    against ``max_bytes``.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = default_memo_bytes() if max_bytes is None else max(0, int(max_bytes))
        self._lock = threading.Lock()
        #: key -> (value, charged bytes), least recently used first.
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._rejected = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[Any]:
        """The cached value for *key* (refreshing its recency), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def store(self, key: Hashable, value: Any) -> bool:
        """Insert *value* under *key*; False when it cannot be cached.

        A single value larger than the whole budget is rejected (a counted
        policy) instead of evicting everything else.
        """
        size = entry_size(key, value)
        with self._lock:
            if size > self.max_bytes:
                self._rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous[1]
            self._entries[key] = (value, size)
            self._bytes += size
            self._stores += 1
            while self._bytes > self.max_bytes and self._entries:
                _old_key, (_old_value, old_size) = self._entries.popitem(last=False)
                self._bytes -= old_size
                self._evictions += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = self._misses = self._stores = 0
            self._evictions = self._rejected = 0

    def stats(self) -> MemoStats:
        with self._lock:
            return MemoStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                rejected=self._rejected,
                entries=len(self._entries),
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
            )


_PROCESS_MEMO: Optional[SuffixMemo] = None
_PROCESS_LOCK = threading.Lock()


def suffix_memo() -> SuffixMemo:
    """The process-wide memo (created on first use)."""
    global _PROCESS_MEMO
    with _PROCESS_LOCK:
        if _PROCESS_MEMO is None:
            _PROCESS_MEMO = SuffixMemo()
        return _PROCESS_MEMO


def clear_suffix_memo() -> None:
    """Drop every process-memo entry and reset its counters (tests/bench)."""
    with _PROCESS_LOCK:
        if _PROCESS_MEMO is not None:
            _PROCESS_MEMO.clear()


def suffix_memo_stats() -> MemoStats:
    """Counters of the process-wide memo (zeros before first use)."""
    with _PROCESS_LOCK:
        memo = _PROCESS_MEMO
    return memo.stats() if memo is not None else MemoStats(max_bytes=default_memo_bytes())


def resolve_memo(options: Dict[str, Any]) -> Optional[SuffixMemo]:
    """The memo an execution should use, or ``None`` (the oracle path).

    ``options["memo"]`` wins: ``False`` disables, ``True`` selects the
    process memo regardless of ``REPRO_MEMO``, a :class:`SuffixMemo`
    instance is used directly.  Absent the option, the environment default
    decides.
    """
    knob = options.get("memo")
    if isinstance(knob, SuffixMemo):
        return knob
    if knob is None:
        return suffix_memo() if default_memo_enabled() else None
    return suffix_memo() if knob else None


__all__ = [
    "DEFAULT_MEMO_BYTES",
    "SLOT_BYTES",
    "MemoStats",
    "SuffixMemo",
    "clear_suffix_memo",
    "entry_size",
    "default_memo_enabled",
    "default_memo_bytes",
    "resolve_memo",
    "suffix_memo",
    "suffix_memo_stats",
]
