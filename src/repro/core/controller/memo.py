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
(built by :func:`~repro.core.controller.prefix.member_memo_key` from the
scenario's trigger and plan fingerprint, its fault values and metadata,
and every behaviour-relevant execution knob) to pickled result blobs,
unpickled per hit so every consumer gets a detached copy.  The cache is
bounded by a byte budget — an entry costs exactly its pickled length, the
same bytes a result pays to cross a process pool — and evicts least
recently used entries first.

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

import logging
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

logger = logging.getLogger(__name__)

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

    Values are **pickled on insert and unpickled per hit**: every consumer
    gets a detached copy by construction — no caller-side deep copies, no
    mutable state shared between a cached result and anything downstream.
    Unpickling a few-KB result is also several times cheaper than the deep
    copy it replaces, which is what keeps warm re-sweeps fast, and the
    byte accounting is exact (the blob *is* the entry) rather than an
    estimate.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = default_memo_bytes() if max_bytes is None else max(0, int(max_bytes))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, bytes]" = OrderedDict()  # key -> pickled result
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
        """A detached copy of the cached result for *key* (refreshing its
        recency), or None."""
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        # Unpickle outside the lock: the copy is private to this caller.
        return pickle.loads(blob)

    def store(self, key: Hashable, result: Any) -> bool:
        """Insert *result* under *key*; False when it cannot be cached.

        The entry is the pickled result — what the result costs to ship
        across a pool boundary, and exactly what the cache pins in memory.
        Unpicklable results (exotic stats payloads) are rejected rather
        than guessed at, with a warning naming the exception, and a single
        result larger than the whole budget is rejected (a counted policy,
        no warning) instead of evicting everything else.
        """
        try:
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            logger.warning(
                "suffix memo: not caching an unpicklable result (%s: %s)",
                type(exc).__name__, exc,
            )
            with self._lock:
                self._rejected += 1
            return False
        size = len(blob)
        with self._lock:
            if size > self.max_bytes:
                self._rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= len(previous)
            self._entries[key] = blob
            self._bytes += size
            self._stores += 1
            while self._bytes > self.max_bytes and self._entries:
                _old_key, old_blob = self._entries.popitem(last=False)
                self._bytes -= len(old_blob)
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
    "MemoStats",
    "SuffixMemo",
    "clear_suffix_memo",
    "default_memo_enabled",
    "default_memo_bytes",
    "resolve_memo",
    "suffix_memo",
    "suffix_memo_stats",
]
