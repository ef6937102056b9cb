"""Incremental campaign state: a JSON-lines result store.

Every completed scenario run is appended to the store as one JSON object on
one line, flushed immediately — a crashed or killed exploration therefore
loses at most the run that was in flight.  On startup the engine asks the
store which point keys are already completed and schedules only the rest,
so an interrupted exploration resumes without re-running finished work.

The line format is self-describing (plain JSON, stable keys), so stores can
be inspected with standard tools (``jq``, ``grep``) and merged by simple
concatenation.  A store opened without a path keeps results in memory only
— same API, no persistence — which is what one-shot campaigns use.

Durability contract:

* every :meth:`record` is flushed to the OS before returning, so a store
  reader in another process (a ``tail -f``, the campaign coordinator's
  status endpoint) sees each completed run immediately;
* with ``durable=True`` (the default for persistent stores) each record is
  additionally ``fsync``\\ ed, so a checkpoint that :meth:`record` returned
  from survives a machine crash, not just a process crash.  Pass
  ``durable=False`` to trade that guarantee for write throughput — a
  process crash still loses nothing (the OS has the flushed data), only a
  kernel/power failure can lose the unsynced suffix;
* :meth:`sync` is for callers that commit in groups: open the store with
  ``durable=False``, :meth:`record` a group one record at a time, then
  ``sync()`` once — every record of the group is durable when it returns.
  The campaign coordinator does this once per worker ``result_batch``,
  before acknowledging it.

Corruption contract (:meth:`_load`): a **torn final line** — the partial
record of a crash mid-append — is expected and tolerated: the run it
described simply re-executes on resume, and the partial tail is truncated
away before anything new is appended (:meth:`repair`).  Corruption
*anywhere else* means the file was damaged by something other than a crash
mid-append (bad disk, concurrent writers, hand editing) and silently
skipping it would make a resumed campaign re-run — or worse, silently drop
— completed work, so interior corruption raises :class:`StoreCorruptError`
instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, Set

from repro.core.controller.monitor import Outcome, OutcomeKind


class StoreCorruptError(Exception):
    """A result store contains corruption that is not a torn final line."""

    def __init__(self, path: str, line_number: int, reason: str) -> None:
        self.path = path
        self.line_number = line_number
        self.reason = reason
        super().__init__(
            f"corrupt result store {path!r} at line {line_number}: {reason} "
            "(only a truncated final line — a crash mid-append — is "
            "recoverable; interior corruption means the file was damaged "
            "and resuming from it would mis-schedule completed work)"
        )


def _detached(value: Any) -> Any:
    """A copy of a JSON-shaped *value* that shares no dict or list with it."""
    if isinstance(value, dict):
        return {key: _detached(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_detached(item) for item in value]
    return value


@dataclass
class StoredResult:
    """One completed scenario run, as persisted to the store."""

    key: str
    index: int
    scenario: str
    function: str
    return_value: int
    errno: Optional[int]
    category: str
    workload: str
    outcome: str
    detail: str = ""
    exit_code: int = 0
    location: str = ""
    injections: int = 0
    fingerprint: str = ""
    run_seed: Optional[int] = None
    #: Structured fault-class dimensions.  Defaulted so errno-only stores
    #: written before the taxonomy load (and resume) unchanged, and new
    #: stores read by old code route these through ``extra``.
    fault_class: str = "errno"
    fault_params: Dict[str, Any] = field(default_factory=dict)
    #: Per-function library-call counts of the run (the BEACON-style usage
    #: profile raw material); empty when the target did not report them.
    calls: Dict[str, int] = field(default_factory=dict)
    #: Recovery-region source lines this run covered (``"file:line"``,
    #: sorted) — the coverage feedback adaptive planners replay on resume.
    #: Only adaptive explorations collect coverage, so the field is empty
    #: for static runs and :meth:`to_dict` omits it then, keeping static
    #: records byte-identical to stores written before the round loop.
    recovery_lines: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def outcome_kind(self) -> OutcomeKind:
        return OutcomeKind(self.outcome)

    def to_outcome(self) -> Outcome:
        """Rebuild the full outcome — a resumed result must be
        indistinguishable from a fresh one, exit code and location included."""
        return Outcome(
            kind=self.outcome_kind,
            detail=self.detail,
            exit_code=self.exit_code,
            location=self.location,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The record as a JSON-ready dict that shares no container with it.

        Equal to ``dataclasses.asdict(self)`` in field order, less an empty
        ``recovery_lines``, but built by direct field copies: every fabric
        record is serialized three times (worker batch, store line, tail
        event), and ``asdict``'s generic recursive copy costs over an order
        of magnitude more.
        """
        payload = {
            "key": self.key,
            "index": self.index,
            "scenario": self.scenario,
            "function": self.function,
            "return_value": self.return_value,
            "errno": self.errno,
            "category": self.category,
            "workload": self.workload,
            "outcome": self.outcome,
            "detail": self.detail,
            "exit_code": self.exit_code,
            "location": self.location,
            "injections": self.injections,
            "fingerprint": self.fingerprint,
            "run_seed": self.run_seed,
            "fault_class": self.fault_class,
            "fault_params": _detached(self.fault_params),
            "calls": dict(self.calls),
        }
        if self.recovery_lines:
            # Static runs carry no coverage feedback; omitting the empty
            # field keeps their records byte-identical to pre-round-loop
            # stores (and old readers route it through ``extra`` otherwise).
            payload["recovery_lines"] = list(self.recovery_lines)
        payload["extra"] = _detached(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StoredResult":
        known = {name for name in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        fields = {key: value for key, value in payload.items() if key in known}
        extra = {key: value for key, value in payload.items() if key not in known}
        if extra:
            fields.setdefault("extra", {}).update(extra)
        return cls(**fields)


class ResultStore:
    """Append-only JSON-lines persistence for exploration results."""

    def __init__(self, path: Optional[str] = None, durable: bool = True) -> None:
        self.path = os.fspath(path) if path is not None else None
        #: ``fsync`` every record (see the module docstring's durability
        #: contract).  Flushing happens regardless.
        self.durable = durable
        self._results: List[StoredResult] = []
        self._by_key: Dict[str, StoredResult] = {}
        self._handle: Optional[IO[str]] = None
        #: Byte offset of a torn (crash-truncated) final line detected at
        #: load time; ``None`` when the file ended cleanly.  The tail is
        #: truncated lazily by :meth:`repair` — and always before the next
        #: append, so new records never concatenate onto the partial line.
        self._torn_tail_offset: Optional[int] = None
        if self.path is not None and os.path.exists(self.path):
            self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        # Binary mode so line offsets are byte offsets (what repair()
        # truncates at) regardless of platform newline handling.
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        lines: List[tuple] = []  # (line_number, byte offset, raw line)
        for line_number, chunk in enumerate(raw.split(b"\n"), start=1):
            lines.append((line_number, offset, chunk))
            offset += len(chunk) + 1
        # Index of the last line carrying any bytes: only *that* line may
        # legitimately be broken (a crash mid-append).
        last_content = max(
            (position for position, (_, _, chunk) in enumerate(lines) if chunk.strip()),
            default=None,
        )
        for position, (line_number, start, chunk) in enumerate(lines):
            stripped = chunk.strip()
            if not stripped:
                continue
            payload = None
            reason = None
            try:
                payload = json.loads(stripped.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                reason = f"unparseable JSON line ({exc})"
            if reason is None and not isinstance(payload, dict):
                reason = f"expected a JSON object, found {type(payload).__name__}"
            if reason is None:
                try:
                    result = StoredResult.from_dict(payload)
                except TypeError as exc:
                    reason = f"record missing required fields ({exc})"
            if reason is not None:
                if position == last_content:
                    # The expected crash-mid-append shape: remember where
                    # the torn tail starts so repair() can truncate it.
                    self._torn_tail_offset = start
                    return
                raise StoreCorruptError(self.path, line_number, reason)
            self._remember(result)

    def _remember(self, result: StoredResult) -> None:
        if result.key in self._by_key:
            return  # first completion wins; duplicates are idempotent
        self._results.append(result)
        self._by_key[result.key] = result

    # ------------------------------------------------------------------
    @property
    def has_torn_tail(self) -> bool:
        """True when the file ends in a crash-truncated partial record."""
        return self._torn_tail_offset is not None

    def repair(self) -> bool:
        """Truncate a torn final line off the backing file.

        Returns True when a partial tail was removed, False when the file
        was already clean.  Called automatically before the first append
        after a torn load, so a resumed campaign never writes a record onto
        the same line as leftover partial bytes (which would turn a benign
        torn tail into unrecoverable interior corruption).
        """
        if self._torn_tail_offset is None:
            return False
        self._close_handle()
        with open(self.path, "r+b") as handle:
            handle.truncate(self._torn_tail_offset)
        self._torn_tail_offset = None
        return True

    # ------------------------------------------------------------------
    def _open_handle(self) -> IO[str]:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def record(self, result: StoredResult) -> None:
        """Record one completed run (persisted immediately when backed).

        Each record is flushed before this returns; with ``durable=True``
        it is also fsynced (see the module docstring).  Duplicate keys are
        idempotent: the first completion wins and repeats are dropped, so
        re-delivered results (a retried worker shard, overlapping resumes)
        cost nothing and never duplicate lines in the file.
        """
        if result.key in self._by_key:
            return
        self._remember(result)
        if self.path is not None:
            self.repair()
            handle = self._open_handle()
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            if self.durable:
                os.fsync(handle.fileno())

    #: Historical name for :meth:`record` (kept for callers and stores
    #: written against the pre-daemon API).
    append = record

    def sync(self) -> None:
        """``fsync`` the open append handle, making every record appended
        through it durable (the group commit of the module docstring).
        Does nothing when no handle is open: a memory store, or one that
        has not appended since it was opened or closed."""
        if self._handle is not None:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the persistent append handle (safe to record() again after)."""
        self._close_handle()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def completed_keys(self) -> Set[str]:
        return set(self._by_key)

    def get(self, key: str) -> Optional[StoredResult]:
        return self._by_key.get(key)

    def results(self) -> List[StoredResult]:
        """All stored results, in completion (file) order."""
        return list(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def __iter__(self) -> Iterator[StoredResult]:
        return iter(self._results)

    def summary(self) -> str:
        where = self.path if self.path is not None else "<memory>"
        return f"result store {where}: {len(self._results)} completed runs"


__all__ = ["ResultStore", "StoreCorruptError", "StoredResult"]
