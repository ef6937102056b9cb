"""LFI reproduction: high-precision testing of recovery code.

This package reproduces the system described in *An Extensible Technique
for High-Precision Testing of Recovery Code* (Marinescu, Banabic, Candea —
USENIX ATC 2010): the **LFI** library-level fault injector with its trigger
mechanism, XML fault-injection language, library profiler and call-site
analyzer — plus every substrate the evaluation needs (a synthetic ISA and
VM, a mini-C compiler, a simulated OS/libc, and analogs of BIND, Git,
MySQL, Apache and PBFT).

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import (
        CallSiteAnalyzer, LFIController, ScenarioBuilder, compile_source,
    )
    from repro.targets.mini_git import MiniGitTarget

    controller = LFIController(MiniGitTarget())
    report = controller.test_automatically(workloads=["default-tests"])
    print(report.summary())

**Parallel campaigns.** Scenario runs are independent, so every campaign
entry point — ``TestCampaign.run``, ``LFIController.test_automatically`` /
``explore``, and the experiment harnesses — accepts a ``parallelism=``
knob: ``None``/``"serial"`` (the default), an integer worker count (a
process pool — the backend that scales these CPU-bound targets with
cores), ``"processes[:N]"``, or an
:class:`~repro.core.controller.executor.ExecutionBackend` instance to share
one pool across campaigns.  Results keep submission order and per-run seeds
are derived deterministically — stochastic triggers declared without an
explicit seed get one derived from ``(campaign seed, submission index,
trigger id)`` — so parallel campaigns are bit-identical to serial ones::

    report = controller.test_automatically(parallelism="processes:4")

**Fault-space exploration.** :meth:`LFIController.explore` (backed by
:mod:`repro.core.exploration`) turns the hand-built scenario lists into
systematic coverage of the whole (call site x error return x errno) space:
a pluggable strategy — :class:`~repro.core.exploration.ExhaustiveStrategy`
or the adaptive :class:`~repro.core.exploration.CoverageGuidedStrategy` —
selects the points to run, the campaign executor schedules them in
priority order (unchecked sites first, novel (function, errno) fault
classes before repeats), failures deduplicate by ``(function, errno,
outcome, stack fingerprint)``, and every completed run is checkpointed in
a JSON-lines :class:`~repro.core.exploration.ResultStore` so an
interrupted exploration resumes without re-running finished scenarios::

    with ResultStore("bind.jsonl") as store:
        report = controller.explore(store=store, seed=7)
    print(report.summary())

**Artifact cache.** Building and profiling the synthetic shared libraries
is memoized process-wide in :mod:`repro.core.profiler.cache`
(``cached_library_binary``, ``cached_merged_profile``, ...): the first
controller or experiment in a process pays the assemble + disassemble + CFG
cost, every later one shares the artifacts.  The call-site analysis of a
target binary is cached there too (``cached_analysis``, behind
:meth:`LFIController.analyze_target`): ``fault_space``, ``explore``,
``test_automatically`` and the campaign fabric's ``build_engine`` analyze
each image once per process, keyed by the image itself (weakly), the CFG
budget, the ``functions`` selection and the profile's error return values.
A cached report's ``analysis_seconds`` is the time of its first
computation.  Cached objects — analysis reports included — are shared:
treat them as immutable; ``clear_artifact_cache()`` resets the cache in
tests.

**VM execution engines.** The VM ships two engines behind one
:class:`Machine` API.  ``engine="compiled"`` (the default) predecodes each
instruction once per image into a specialized closure
(:mod:`repro.vm.dispatch`) — operands become register-slot indices and
captured constants, library calls skip context construction entirely when
no injection runtime handles the function — and then fuses straight-line
basic blocks into **superclosures**: one generated function per block with
common instruction bodies inlined as source, dead CMP/Jcc flag
materialization elided (guarded by a bounded flag-liveness scan), and trap
attribution recovered from the traceback line number only when a trap
actually propagates.  Runs without a coverage tracker take a further
specialized loop with no per-step record branch at all; trackers expose a
``record_block`` batch API for the instrumented loop.  The closures and
bound blocks are cached on the :class:`~repro.isa.binary.BinaryImage`, so
every campaign run sharing an image (the artifact cache,
``CompiledTarget``'s binary cache) reuses them.  A process that fans
group batches out to a process pool generates each image's superclosure
*code* once and keeps it marshalled, keyed by
``BinaryImage.content_digest()``; the pool's children inherit it at fork
or receive it with their batch, so they only bind it.
``engine="reference"`` keeps the original decode-as-you-go interpreter as
the behavioural ground truth.  ``tests/test_vm_dispatch.py`` and
``tests/test_dataplane.py`` assert both engines produce identical exit
statuses, traces, coverage, call counts, and injection logs — including on
randomly generated mini-C programs — and ``REPRO_ENGINE`` selects the
process-wide default (the CI oracle leg exports
``REPRO_ENGINE=reference``)::

    machine = Machine(binary, engine="reference")   # the slow oracle
    target.run(WorkloadRequest(options={"engine": "reference"}))

**Forkserver-style snapshots.** Every compiled-target run is served from a
resident *boot template* by default (:mod:`repro.vm.snapshot`): the OS
fixture, libc, and machine are built once per (target, workload), their
boot state captured by a :class:`~repro.vm.snapshot.MidRunCapture`, and
each request restores it in **O(dirty words)** via the copy-on-write
journal inside :class:`~repro.vm.memory.Memory` instead of rebuilding.  On
top of that, campaigns and explorations share *prefixes*
(:mod:`repro.core.controller.prefix`): scenarios that differ only in the
injected fault — the analyzer's (site x errno) families — are grouped, the
group's probe runs once while a second
:class:`~repro.vm.snapshot.MidRunCapture` snapshots the machine inside
the call where the trigger fires, and every sibling scenario resumes
there by re-executing that call through its own gate, which injects its
own fault; scenarios whose trigger never fires under a workload are
answered by replicating the probe.

**Prefix trees and parallel groups.** Groups are hierarchical: call-count
variants of one site (replay-style scenarios differing only in a
``CallCountTrigger`` threshold) share the sub-prefix up to their earliest
divergence — later variants re-execute an earlier variant's captured call
through their own gates, which pass it through, and chain nested captures
at their own injection points.  Suffixes that never read ``errno`` (tracked by a libc errno-read
counter the compiled engine maintains for free via predecode
specialization) make errno-only variants *suffix replicas*: one run, the
logged errno patched per member.  Sharing also composes with every
execution backend: the groups are packed into one
:class:`~repro.core.controller.executor.GroupBatchTask` per worker
(``run_group_batches_iter``), whose worker runs each group's probe and
resumes its siblings locally, so ``share_prefixes=True,
parallelism="processes:4"`` multiplies the two levers instead of silently
dropping one.  Only the compiled targets share: the Python-level
mini_apache, mini_mysql and PBFT servers run every scenario on its own,
unmemoized.  All of it is observably identical to the reference rebuild path —
``tests/test_snapshot.py`` and ``tests/test_prefix_parallel.py`` enforce
bit-identical exit statuses, traces, coverage, call counts, and injection
logs across serial and process-pooled schedules — and
selectable::

    target.run(WorkloadRequest(options={"snapshots": False}))   # reference path
    campaign.run(scenarios, share_prefixes=False)               # per-scenario runs
    campaign.run(scenarios, share_prefixes=True,                # batched pool
                 parallelism="processes:4")                     # fan-out

The end-to-end benchmark's ``sweep`` workload (``e2ebench/``) holds the
snapshot engine's campaign throughput to its bound; tier-1 counts the
work it saves (a restored boot template in
``test_boot_template_cache_hits_and_clear``, one execution for an
errno family in ``test_errno_blind_family_collapses_onto_one_suffix``
and, for the mini_apache trigger campaign, one server per prefix group
in ``test_apache_observe_only_campaign_identical_and_collapsed``).

**Execution pipeline architecture.** A pooled shared campaign run passes
through four dataplane layers, each with exactly one slow reference oracle
the differential suite holds it to:

1. **Block-batched VM execution** (:mod:`repro.vm.dispatch`) — the image
   is predecoded once into per-instruction closures, straight-line blocks
   fuse into superclosures, and coverage-off runs skip per-step
   bookkeeping entirely.  Knobs: ``engine=`` / ``REPRO_ENGINE``
   (``compiled`` | ``reference``).
2. **Forkserver snapshots** (:mod:`repro.vm.snapshot`,
   :mod:`repro.core.profiler.cache`) — one resident boot template per
   (boot scope, engine, libc-spec fingerprint); requests restore boot
   state in O(dirty words).  The default boot scope is the shared
   fixture prefix, so every workload of a target reuses one boot+fixture
   capture.  A run's result is one immutable value from ``finalize_run``
   on (frozen outcome, log records and stats), shared — never copied — by
   replicated group members, the suffix memo and the pool's result pipe.
   Campaigns and direct ``target.run`` callers get the final OS in
   ``stats["os"]``, a :class:`~repro.oslib.os_model.LazyOSClone` (one
   immutable blob, hydrated on first access) held equal to the
   ``snapshots=False`` path's; explorations, and so fabric leases, skip
   capturing it.  Knobs: ``snapshots=`` / ``REPRO_SNAPSHOTS``.
3. **Prefix trees** (:mod:`repro.core.controller.prefix`) — scenario
   groups run their common pre-trigger prefix once; siblings resume from
   mid-run captures, each re-executing the captured call through its own
   gate (snapshot-backed sessions only: without a boot template a group's
   members run plain).  Entries that cannot share a prefix run alone, as
   groups of one behind the same suffix memo.  Knob: ``share_prefixes=``.
4. **Run-to-completion pooled batches**
   (:mod:`repro.core.controller.executor`) — groups are packed into one
   :class:`GroupBatchTask` per worker and each worker drains its batch
   back-to-back (warm template, one result message) instead of paying a
   pool round trip per group.  The packing is cost-adaptive: oversized
   prefix families split into sub-groups and batches balance by modeled
   cost (LPT).  Results are keyed by submission index, so the packing
   never changes one.  Knob: ``parallelism=``.

Walking the layers from a campaign entry point::

    campaign.run(scenarios,                      # layer 1: engine="compiled"
                 share_prefixes=True,            # layer 3: prefix groups
                 parallelism="processes:4")      # layer 4: batched pool
                                                 #   fan-out
    campaign.run(scenarios,                      # the full reference stack:
                 share_prefixes=False,           #   per-scenario runs,
                 engine="reference",             #   decode-as-you-go VM,
                 snapshots=False)                #   fresh builds

``e2ebench/`` measures the stack end to end (its ``sweep``, ``retest``,
``pooled`` and ``fabric`` workloads), with every record checked against
the oracle.

**Suffix memoization and cost-adaptive scheduling.**  On top of the
pipeline, :mod:`repro.core.controller.memo` never pays for an
already-probed fault point twice: a process-wide LRU byte-budget cache
maps memo keys — capture fingerprint, fault class and values, errno,
metadata, and every behaviour-relevant execution knob — to the
immutable results themselves (a hit is the stored value; each entry is
charged a size computed from the value) for every deterministic run,
prefix-group members and the
ungrouped crash points and budget ramps alike, so re-sweeps, resumed
campaigns, and overlapping specs on a long-lived fabric worker answer
from the memo instead of re-executing the run (``memo=`` /
``REPRO_MEMO`` / ``REPRO_MEMO_BYTES``; ``memo=False`` and
``share_prefixes=False`` are the differential oracle paths).  Group
batches are planned by a fixed cost estimate — a resumed suffix costs
0.35 of a full probe
(:func:`~repro.core.controller.executor.plan_group_batches`): skewed
prefix families split into sub-groups that re-resume from the shared
capture, and batches pack by longest-processing-time.  The full
pipeline — group keys → prefix tree → suffix memo → adaptive split —
is documented in ``doc/SCHEDULING.md``; campaign runs surface
boot-template and memo hit/miss counters in
:attr:`CampaignResult.stats <repro.core.controller.campaign.CampaignResult>`
and ``repro-campaign status``.  ``tests/test_sched_memo.py`` holds every
leg bit-identical to the memo-free serial oracle and counts what it
saves (a warm re-sweep executes nothing, one boot template serves every
workload, the adaptive plan splits a skewed family); e2ebench's
``retest`` and ``pooled`` workloads time the warm re-sweep and the
packing end to end.

**The campaign fabric: a resident coordinator and worker nodes.**  For
explorations that outlive one process, :mod:`repro.distributed` runs the
same campaigns as a service.  A resident coordinator daemon
(``repro-campaignd serve``) accepts :class:`~repro.distributed.CampaignSpec`
submissions over a line-oriented JSON wire protocol (one JSON object per
newline-terminated line — the result store's own format; reference:
``doc/PROTOCOL.md``), plans every campaign through its round planner,
leases each round to pull-model worker nodes (``repro-campaignd worker``,
each wrapping the local engine/pool stack above) as explicit
``(schedule index, point key)`` assignments, and streams results to
tailing clients as they complete.  Workers only look the keys up in the
fault space they enumerate from the spec and derive each run's seed from
its index, so the merged results are **bit-identical** to a serial
:meth:`ExplorationEngine.explore` run.  Worker links carry leases with
heartbeats: a dead worker's unfinished shard re-queues automatically, and a
slow worker whose lease was reassigned is told ``stale_lease`` (duplicate
records are idempotent).  Coordinator, workers and clients ship together,
so the wire has exactly one protocol version: a ``hello`` of any other
version is refused and the connection closed.  Every record is flushed to
the campaign's JSON-lines store — and each ``result_batch`` fsynced once,
under the default ``durable`` knob — *before* it is acknowledged, so the
store is the only durable state: kill the coordinator (or a worker, or
both) mid-campaign, restart, and resubmitting the same spec resumes from
the checkpoint, re-running nothing already stored.  A torn final line (a kill mid-append) is detected and truncated;
interior store corruption raises
:class:`~repro.core.exploration.StoreCorruptError` instead of silently
mis-scheduling completed work.  The ``repro-campaign`` CLI wraps the client
side (``submit``/``status``/``tail``/``results``/``cancel``)::

    $ repro-campaignd serve --port 7070 &
    $ repro-campaignd worker --port 7070 &
    $ repro-campaign submit --target mini_git --workload status \\
          --seed 7 --store /tmp/git.jsonl --wait
    # ... kill the daemon mid-campaign, restart it, and resubmit:
    $ repro-campaign submit --target mini_git --workload status \\
          --seed 7 --store /tmp/git.jsonl --wait   # "resumed": <n done>

``tests/test_campaignd.py`` drives a multi-worker campaign through the
wire protocol, kills a worker and the coordinator mid-campaign, and
asserts the merged results stay bit-identical to the serial oracle.

**Adaptive round-based exploration.**  Exploration strategies are
stateful *planner sessions* (``strategy.session().propose(frontier,
feedback)``): the engine plans a round, executes it through the whole
pipeline above, feeds back each probe's recovery-region coverage delta,
and replans.  :class:`CoverageGuidedStrategy` (``strategy="coverage"``)
steers rounds toward fault points whose neighbours unlocked new
recovery-code coverage — the paper's own Table 3 metric — and stops at
a coverage plateau instead of sweeping the full space; the static
strategies are behaviour-identical single-round planners and remain the
differential oracle.  The campaign fabric plans rounds centrally: the
coordinator holds each campaign's planner and leases only the current
round.  Adaptive
runs obey *"spec + completed results ⇒ next round"*, so serial, pooled,
and distributed explorations of the same store are bit-identical.
Reference: ``doc/ADAPTIVE.md``.

**Structured fault classes.**  Beyond the classic (return value, errno)
pair, :mod:`repro.core.faults` defines a taxonomy of structured classes —
partial writes/short reads, fd/heap-exhaustion ramps, clock skew and
jumps, network drop/partition/reorder for the PBFT cluster, and
crash-consistency kills that murder the world at the Nth write (optionally
after a torn partial write) and then replay a recovery workload against
the surviving fs state, with the target's data oracles run post-recovery.
Each class is a first-class campaign dimension: enumerated by
:func:`~repro.core.exploration.space.enumerate_structured_space` into
points with stable keys (``mini_git:write#2:partial_write[fraction=0.5]``),
deduplicated along the class axis, serialized through injection logs and
result stores (old errno-only stores load and resume unchanged), swept via
``CampaignSpec(fault_classes=[...])`` (validated at submit time), and held
to the same differential contract — compiled == reference engine, serial
== pooled == distributed (``tests/test_faults.py``).  Campaign
traces carry per-function call counts, and
:func:`repro.coverage.report.build_usage_profile` turns any trace into a
BEACON-style per-target usage profile (call volume per library function,
classes swept, failure concentration, unswept gap list).  Reference:
``doc/FAULTS.md``::

    scenario = structured_scenario("crash_point", "write", nth=2,
                                   params={"torn": 1, "fraction": 0.5},
                                   recovery_workload="status")
    result = resolve_target("mini_git").run(
        WorkloadRequest(workload="commit", scenario=scenario))
    # data-loss: committed object .../incoming is truncated (8 of 16 bytes)

The main layers:

* :mod:`repro.core` — the paper's contribution: triggers, scenarios,
  injection runtime, profiler, call-site analyzer, controller.
* :mod:`repro.isa`, :mod:`repro.minicc`, :mod:`repro.vm` — the binary
  substrate (instruction set, compiler, virtual machine).
* :mod:`repro.oslib` — simulated OS and libc (the fault boundary).
* :mod:`repro.coverage` — recovery-code coverage measurement.
* :mod:`repro.targets` — the five simulated systems under test.
* :mod:`repro.experiments` — harnesses regenerating every table and figure.
"""

from repro.core.analysis.analyzer import AnalysisReport, CallSiteAnalyzer
from repro.core.controller.campaign import TestCampaign
from repro.core.controller.controller import ControllerReport, LFIController
from repro.core.controller.executor import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    estimate_group_cost,
    plan_group_batches,
    resolve_backend,
)
from repro.core.controller.memo import SuffixMemo, clear_suffix_memo, suffix_memo
from repro.core.controller.target import WorkloadRequest
from repro.core.exploration import (
    CoverageGuidedStrategy,
    ExhaustiveStrategy,
    ExplorationEngine,
    ExplorationReport,
    ExplorationStrategy,
    ProbeFeedback,
    ResultStore,
    enumerate_fault_space,
)
from repro.core.injection.context import CallContext
from repro.core.injection.faults import FaultSpec
from repro.core.injection.gate import LibraryCallGate
from repro.core.injection.log import InjectionLog
from repro.core.injection.runtime import InjectionRuntime
from repro.core.profiler.cache import (
    cached_all_library_binaries,
    cached_library_binary,
    cached_merged_profile,
    clear_artifact_cache,
)
from repro.core.profiler.static_profiler import LibraryProfiler, profile_library
from repro.core.scenario.builder import ScenarioBuilder
from repro.core.scenario.model import Scenario
from repro.core.scenario.xml_io import parse_scenario_xml, scenario_to_xml
from repro.core.triggers.base import Trigger, declare_trigger
from repro.minicc.compiler import compile_source
from repro.oslib.libc_binary import build_all_library_binaries, build_library_binary
from repro.oslib.os_model import SimOS
from repro.vm.machine import Machine
from repro.vm.snapshot import BootTemplate, MidRunCapture

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "BootTemplate",
    "CallContext",
    "CallSiteAnalyzer",
    "ControllerReport",
    "CoverageGuidedStrategy",
    "ExecutionBackend",
    "ExhaustiveStrategy",
    "ExplorationEngine",
    "ExplorationReport",
    "ExplorationStrategy",
    "FaultSpec",
    "InjectionLog",
    "InjectionRuntime",
    "LFIController",
    "LibraryCallGate",
    "LibraryProfiler",
    "Machine",
    "MidRunCapture",
    "ProbeFeedback",
    "ProcessPoolBackend",
    "ResultStore",
    "Scenario",
    "ScenarioBuilder",
    "SerialBackend",
    "SimOS",
    "SuffixMemo",
    "TestCampaign",
    "Trigger",
    "WorkloadRequest",
    "build_all_library_binaries",
    "build_library_binary",
    "cached_all_library_binaries",
    "cached_library_binary",
    "cached_merged_profile",
    "clear_artifact_cache",
    "compile_source",
    "declare_trigger",
    "clear_suffix_memo",
    "enumerate_fault_space",
    "estimate_group_cost",
    "parse_scenario_xml",
    "plan_group_batches",
    "profile_library",
    "resolve_backend",
    "suffix_memo",
    "scenario_to_xml",
    "__version__",
]
