"""Process-wide memoized cache for profiling artifacts.

Assembling the synthetic shared libraries and statically profiling them is
pure work: the output depends only on the library specifications in
:data:`repro.oslib.libc.LIBC_FUNCTIONS`.  Yet every :class:`LFIController`
instance — and therefore every experiment harness and benchmark — used to
re-run the assemble → disassemble → CFG pipeline from scratch.

This module computes each artifact **once per process** and shares it:

* :func:`cached_library_binary` / :func:`cached_all_library_binaries` —
  the synthetic ``.so`` images from
  :func:`repro.oslib.libc_binary.build_library_binary`;
* :func:`cached_library_profile` — the static fault profile inferred from a
  library binary;
* :func:`cached_merged_profile` — all per-library profiles merged, the
  shape :meth:`LFIController.profile_libraries` needs;
* :func:`cached_boot_template` — the forkserver-style boot snapshots of
  :mod:`repro.vm.snapshot`: one resident machine + boot-state snapshot per
  (target instance, workload, engine, libc-spec fingerprint), so a campaign
  restores boot state in O(dirty words) instead of rebuilding the OS
  fixture and machine per request.  Templates are keyed by target
  *instance* (weakly, so they die with the target) because two instances of
  one target class may carry different fixture configurations;
* :func:`cached_analysis` — the call-site analyzer's
  :class:`~repro.core.analysis.analyzer.AnalysisReport` for a target
  binary: one per (image, CFG budget, ``functions`` selection, error return
  values the profile gives those functions).  Reports are keyed by the
  :class:`BinaryImage` *instance* (weakly, like boot templates), so an entry
  lives exactly as long as its image and a recycled address never aliases
  it.  A cached report's ``analysis_seconds`` is the time of its first
  computation;
* :func:`cached_fault_space` — the fault points enumerated from such a
  report: one tuple per (analysis key, category switches, the fault
  candidates the profile gives the analyzed functions), held with the
  report;
* :func:`cached_campaign_plan` — the
  :class:`~repro.core.exploration.plan.CampaignPlan` of one fault space:
  keyed by content (the image's ``content_digest()``, the libc spec
  fingerprint, ``once`` and the ordered points), held per image weakly and
  at most :data:`PLANS_PER_IMAGE` per image, least recently used dropped
  first.  An identical recompiled image finds the plans of the image it
  replaces as long as that image lives.

Library entries are keyed by ``(library name, spec fingerprint)`` where the
fingerprint hashes the library's error-return specification, so a mutated
spec (tests do this) transparently misses the cache instead of returning a
stale artifact.  Cached objects — analysis reports, fault points and plans
included — are **shared**: treat them as immutable.

Sharing compounds with the VM's predecoded execution engine: the
closure-threaded program and the bound superclosures that
:mod:`repro.vm.dispatch` builds for a :class:`BinaryImage` are cached *on
the image*, so every campaign run that receives a cached image also
inherits them — the assemble → disassemble → CFG pipeline **and**
instruction predecoding are both once-per-process costs.  A process that
fans group batches out to a process pool also keeps the superclosure code
behind the bound blocks marshalled, once per image content
(:meth:`BinaryImage.content_digest`); the pool's children inherit it or
are sent it and only bind it.  :func:`clear_artifact_cache` drops that
marshalled code too.

Thread-safe: a single lock guards the maps, so campaigns running on
several threads of one process (in-process fabric workers, coordinator
connections) profile and analyze at most once.  Process-pool workers forked after the first build
inherit the warm cache for free; their own builds stay in the child.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.profiler.fault_profile import FaultProfile, merge_profiles
from repro.core.profiler.static_profiler import profile_library
from repro.isa.binary import BinaryImage
from repro.oslib.libc import LIBC_FUNCTIONS
from repro.oslib.libc_binary import build_library_binary, library_soname
from repro.vm.dispatch import clear_block_code

if TYPE_CHECKING:  # the analyzer is passed in, never imported at run time
    from repro.core.analysis.analyzer import AnalysisReport, CallSiteAnalyzer


@dataclass
class CacheStats:
    """Hit/miss counters for the artifact cache (observability + tests)."""

    binary_hits: int = 0
    binary_misses: int = 0
    profile_hits: int = 0
    profile_misses: int = 0
    merged_hits: int = 0
    merged_misses: int = 0
    boot_hits: int = 0
    boot_misses: int = 0
    #: Boot hits served to a *context* (workload) that did not build the
    #: template — the cross-workload fixture-sharing wins, a subset of
    #: ``boot_hits`` (so not added into the totals below).
    boot_shared_hits: int = 0
    analysis_hits: int = 0
    analysis_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0

    @property
    def hits(self) -> int:
        return (
            self.binary_hits + self.profile_hits + self.merged_hits + self.boot_hits
            + self.analysis_hits + self.plan_hits
        )

    @property
    def misses(self) -> int:
        return (
            self.binary_misses + self.profile_misses + self.merged_misses
            + self.boot_misses + self.analysis_misses + self.plan_misses
        )


_LOCK = threading.RLock()
_BINARIES: Dict[Tuple[str, str], BinaryImage] = {}
_PROFILES: Dict[Tuple[str, str], FaultProfile] = {}
_MERGED: Dict[Tuple[Tuple[str, str], ...], FaultProfile] = {}
#: Boot templates per target instance (weak: templates die with the target).
_BOOT_TEMPLATES: "weakref.WeakKeyDictionary[Any, Dict[Tuple, Any]]" = (
    weakref.WeakKeyDictionary()
)
#: Distinct contexts (workloads) each boot template has served, per owner —
#: the observability behind ``CacheStats.boot_shared_hits``.
_BOOT_CONTEXTS: "weakref.WeakKeyDictionary[Any, Dict[Tuple, set]]" = (
    weakref.WeakKeyDictionary()
)
#: Per binary image (weak: entries die with the image): the names of the
#: imports it calls — the functions an unrestricted analysis reads — its
#: analysis reports by (budget, selection, error values), and the fault
#: spaces enumerated from them by (analysis key, space options).
_ANALYSES: (
    "weakref.WeakKeyDictionary[BinaryImage, "
    "Tuple[Tuple[str, ...], Dict[Tuple, Any], Dict[Tuple, Tuple[Any, ...]]]]"
) = weakref.WeakKeyDictionary()
#: Campaign plans kept per image; a long-lived worker serving many specs
#: of one image keeps at most this many of its plans.
PLANS_PER_IMAGE = 8
#: Per binary image (weak: plans die with their images): its campaign plans
#: by content key, least recently used first.
_PLANS_BY_IMAGE: "weakref.WeakKeyDictionary[BinaryImage, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)
#: Every live plan by content key, whichever image holds it: how an
#: identical recompiled image finds the plans of the image it replaces.
_PLANS: "weakref.WeakValueDictionary[Tuple, Any]" = weakref.WeakValueDictionary()
_STATS = CacheStats()


def known_libraries() -> List[str]:
    """Names of every simulated library declared in the libc spec."""
    return sorted({spec.library for spec in LIBC_FUNCTIONS.values()})


def library_spec_fingerprint(library: str) -> str:
    """Stable digest of one library's error-behaviour specification."""
    entries = []
    for spec in sorted(LIBC_FUNCTIONS.values(), key=lambda item: item.name):
        if spec.library != library:
            continue
        entries.append(
            (
                spec.name,
                spec.success,
                spec.errno_via_return,
                tuple(
                    (error.value, tuple(error.errnos)) for error in spec.error_returns
                ),
            )
        )
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# cached artifacts
# ----------------------------------------------------------------------
#: The libc spec table as last fingerprinted — its ``(name, spec)`` items —
#: with its per-library fingerprints and their combined digest.  The live
#: table's items are compared with ``==``: an unchanged table costs one
#: identity check per entry (specs are frozen dataclasses, so a mutated
#: spec is a replaced object), a replaced spec compares by content, and the
#: snapshot holds the spec objects, so no ``id`` is ever recycled under it.
_SPEC_SNAPSHOT: Tuple[Optional[tuple], Dict[str, str], str] = (None, {}, "")


def _spec_fingerprints() -> Tuple[Dict[str, str], str]:
    """Every known library's spec fingerprint and the combined digest,
    recomputed only when the spec table's content changed."""
    global _SPEC_SNAPSHOT
    items = tuple(LIBC_FUNCTIONS.items())
    snapshot, per_library, digest = _SPEC_SNAPSHOT
    if items == snapshot:
        return per_library, digest
    per_library = {library: library_spec_fingerprint(library) for library in known_libraries()}
    combined = hashlib.sha256()
    for library, fingerprint in per_library.items():
        combined.update(library.encode("utf-8"))
        combined.update(fingerprint.encode("utf-8"))
    digest = combined.hexdigest()
    _SPEC_SNAPSHOT = (items, per_library, digest)
    return per_library, digest


def _library_fingerprint(library: str) -> str:
    """:func:`library_spec_fingerprint`, served from the spec snapshot."""
    fingerprint = _spec_fingerprints()[0].get(library)
    return fingerprint if fingerprint is not None else library_spec_fingerprint(library)


def cached_library_binary(library: str = "libc") -> BinaryImage:
    """The synthetic shared object for *library*, built at most once."""
    key = (library, _library_fingerprint(library))
    with _LOCK:
        binary = _BINARIES.get(key)
        if binary is not None:
            _STATS.binary_hits += 1
            return binary
        _STATS.binary_misses += 1
        binary = build_library_binary(library)
        _BINARIES[key] = binary
        return binary


def cached_all_library_binaries() -> Dict[str, BinaryImage]:
    """Every simulated shared library, keyed by soname (images are shared)."""
    return {
        library_soname(library): cached_library_binary(library)
        for library in known_libraries()
    }


def cached_library_profile(library: str = "libc") -> FaultProfile:
    """The static fault profile of *library*, inferred at most once."""
    key = (library, _library_fingerprint(library))
    with _LOCK:
        profile = _PROFILES.get(key)
        if profile is not None:
            _STATS.profile_hits += 1
            return profile
        _STATS.profile_misses += 1
        profile = profile_library(cached_library_binary(library))
        _PROFILES[key] = profile
        return profile


def cached_merged_profile(libraries: Optional[Sequence[str]] = None) -> FaultProfile:
    """Merged static profile of *libraries* (default: all known)."""
    names = list(libraries) if libraries is not None else known_libraries()
    key = tuple((name, _library_fingerprint(name)) for name in names)
    with _LOCK:
        merged = _MERGED.get(key)
        if merged is not None:
            _STATS.merged_hits += 1
            return merged
        _STATS.merged_misses += 1
        merged = merge_profiles([cached_library_profile(name) for name in names])
        _MERGED[key] = merged
        return merged


def libc_spec_fingerprint() -> str:
    """Combined digest of every known library's error-behaviour spec.

    Part of the boot-template key: a libc spec mutated by a test must miss
    the boot cache (the template's predecoded program and call semantics
    were built against the old spec) rather than serve stale boot state.
    This sits on the per-run session-open path, so the digest is served
    from the spec snapshot (:func:`_spec_fingerprints`).
    """
    return _spec_fingerprints()[1]


def _record_boot_context(owner: Any, key: Tuple, context: Any, fresh: bool) -> None:
    """Track which contexts (workloads) a template serves (under the lock).

    A hit whose context never touched this key before is a *shared* hit:
    the template was built for one workload and is now serving another —
    the cross-workload fixture-prefix reuse the boot-scope keying buys.
    """
    if context is None:
        return
    per_owner = _BOOT_CONTEXTS.get(owner)
    if per_owner is None:
        per_owner = {}
        _BOOT_CONTEXTS[owner] = per_owner
    contexts = per_owner.setdefault(key, set())
    if not fresh and context not in contexts:
        _STATS.boot_shared_hits += 1
    contexts.add(context)


def cached_boot_template(
    owner: Any, key: Tuple, builder: Callable[[], Any], context: Any = None
) -> Any:
    """The boot template for (*owner*, *key*), built at most once.

    *owner* is the target instance (held weakly); *key* is the
    (boot scope, engine, spec-fingerprint) tuple computed by the target —
    the boot scope rather than the workload name, so workloads sharing a
    fixture prefix share one template.  *context* (the requesting
    workload) feeds the ``boot_shared_hits`` counter: a hit from a context
    that never touched the key before is a cross-workload reuse.  The
    builder runs outside the cache lock — when two threads race, one
    template wins and the loser's build is discarded, never a deadlock on a
    slow OS fixture.
    """
    with _LOCK:
        per_owner = _BOOT_TEMPLATES.get(owner)
        if per_owner is None:
            per_owner = {}
            _BOOT_TEMPLATES[owner] = per_owner
        template = per_owner.get(key)
        if template is not None:
            _STATS.boot_hits += 1
            _record_boot_context(owner, key, context, fresh=False)
            return template
        _STATS.boot_misses += 1
    template = builder()
    with _LOCK:
        per_owner = _BOOT_TEMPLATES.get(owner)
        if per_owner is None:
            per_owner = {}
            _BOOT_TEMPLATES[owner] = per_owner
        _record_boot_context(owner, key, context, fresh=key not in per_owner)
        return per_owner.setdefault(key, template)


def _analysis_slot(
    analyzer: "CallSiteAnalyzer",
    binary: BinaryImage,
    functions: Optional[Sequence[str]],
) -> Tuple[Tuple, Dict[Tuple, Any], Dict[Tuple, Tuple[Any, ...]], Tuple[str, ...]]:
    """(analysis key, reports, fault spaces, analyzed names) of *binary*
    for *analyzer* and *functions* (under the cache lock)."""
    entry = _ANALYSES.get(binary)
    if entry is None:
        entry = (tuple(sorted(binary.called_imports())), {}, {})
        _ANALYSES[binary] = entry
    called, reports, spaces = entry
    selection = None if functions is None else tuple(functions)
    names = called if selection is None else selection
    key = (
        analyzer.max_instructions,
        selection,
        tuple((name, analyzer.profile.error_values(name)) for name in names),
    )
    return key, reports, spaces, names


def _report(
    analyzer: "CallSiteAnalyzer",
    binary: BinaryImage,
    key: Tuple,
    reports: Dict[Tuple, Any],
) -> "AnalysisReport":
    report = reports.get(key)
    if report is not None:
        _STATS.analysis_hits += 1
        return report
    _STATS.analysis_misses += 1
    report = analyzer.analyze(binary, functions=key[1])
    reports[key] = report
    return report


def cached_analysis(
    analyzer: "CallSiteAnalyzer",
    binary: BinaryImage,
    functions: Optional[Sequence[str]] = None,
) -> "AnalysisReport":
    """``analyzer.analyze(binary, functions)``, computed at most once.

    The key holds every input the analysis reads besides the image: the
    analyzer's CFG budget, the *functions* selection, and the error return
    values its profile gives each analyzed function.  A profile that
    changes those values misses; one that changes only errnos hits, which
    is correct because errnos are enumerated later, from the profile, on
    every call.  The analysis runs under the cache lock, so threads racing
    on one image share a single report.
    """
    with _LOCK:
        key, reports, _spaces, _names = _analysis_slot(analyzer, binary, functions)
        return _report(analyzer, binary, key, reports)


def cached_fault_space(
    analyzer: "CallSiteAnalyzer",
    binary: BinaryImage,
    functions: Optional[Sequence[str]],
    options: Tuple,
    enumerate_space: Callable[["AnalysisReport"], Sequence[Any]],
) -> Tuple[Any, ...]:
    """``enumerate_space(cached_analysis(...))`` as a tuple, at most once.

    The key is the analysis key plus everything else the enumeration
    reads: the caller's *options* (its category switches) and the fault
    candidates — every ``(return value, errnos)`` pair — the analyzer's
    profile gives each analyzed function.  Fault points are frozen values,
    so every caller shares the same ones.  The analysis is looked up (and
    counted) as :func:`cached_analysis` would.
    """
    profile = analyzer.profile
    with _LOCK:
        key, reports, spaces, names = _analysis_slot(analyzer, binary, functions)
        report = _report(analyzer, binary, key, reports)
        candidates = []
        for name in names:
            function_profile = profile.function(name)
            candidates.append((name, None if function_profile is None else tuple(
                (error.return_value, tuple(error.errnos))
                for error in function_profile.error_returns
            )))
        space_key = (key, options, tuple(candidates))
        points = spaces.get(space_key)
        if points is None:
            points = tuple(enumerate_space(report))
            spaces[space_key] = points
        return points


def cached_campaign_plan(binary: BinaryImage, key: Tuple, build: Callable[[], Any]) -> Any:
    """The campaign plan with content *key*, built at most once.

    *key* is the plan's content (see
    :func:`repro.core.exploration.plan.campaign_plan`).  The plan is held
    by *binary*, weakly, among its :data:`PLANS_PER_IMAGE` most recently
    used plans; a plan any live image holds under the same key — an
    identical recompile's — is shared rather than rebuilt.  The build runs
    under the cache lock, so a coordinator and a worker thread of one
    process racing on a space build one plan.
    """
    with _LOCK:
        held = _PLANS_BY_IMAGE.get(binary)
        if held is None:
            held = OrderedDict()
            _PLANS_BY_IMAGE[binary] = held
        plan = held.get(key)
        if plan is not None:
            held.move_to_end(key)
            _STATS.plan_hits += 1
            return plan
        plan = _PLANS.get(key)
        if plan is not None:
            _STATS.plan_hits += 1
        else:
            _STATS.plan_misses += 1
            plan = build()
            _PLANS[key] = plan
        held[key] = plan
        while len(held) > PLANS_PER_IMAGE:
            held.popitem(last=False)
        return plan


# ----------------------------------------------------------------------
# maintenance
# ----------------------------------------------------------------------
def clear_artifact_cache() -> None:
    """Drop every cached artifact, the VM's generated superclosure code
    included, and reset the counters (tests)."""
    with _LOCK:
        _BINARIES.clear()
        _PROFILES.clear()
        _MERGED.clear()
        _BOOT_TEMPLATES.clear()
        _BOOT_CONTEXTS.clear()
        _ANALYSES.clear()
        _PLANS_BY_IMAGE.clear()
        _PLANS.clear()
        clear_block_code()
        global _STATS
        _STATS = CacheStats()


def artifact_cache_stats() -> CacheStats:
    """A snapshot of the current hit/miss counters."""
    with _LOCK:
        return replace(_STATS)


__all__ = [
    "CacheStats",
    "artifact_cache_stats",
    "cached_all_library_binaries",
    "PLANS_PER_IMAGE",
    "cached_analysis",
    "cached_boot_template",
    "cached_campaign_plan",
    "cached_fault_space",
    "cached_library_binary",
    "cached_library_profile",
    "cached_merged_profile",
    "clear_artifact_cache",
    "known_libraries",
    "libc_spec_fingerprint",
    "library_spec_fingerprint",
]
