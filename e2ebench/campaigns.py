"""What one benchmark campaign is, and how its records are checked.

A *pass* is the nine campaigns of the full mini_git and mini_bind fault
space: every workload of both targets, each exhaustively exploring the
checked errno space plus the structured classes in :data:`FAULT_CLASSES`
(1,314 runs in all).

Every record a campaign produces is compared with the **oracle reference**
(``reference.jsonl``): the record the slow differential path — reference
engine, no snapshots, no memo, no prefix sharing — produced for the same
(workload, point key).  The reference leaves ``run_seed`` out; it is
checked against :func:`derive_run_seed` instead, so one file serves every
seed.  Regenerate it with::

    python3 e2ebench/campaigns.py --write-reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.controller.controller import LFIController  # noqa: E402
from repro.core.controller.executor import ParallelismSpec, derive_run_seed  # noqa: E402
from repro.core.exploration.engine import ExplorationEngine  # noqa: E402
from repro.core.exploration.space import FaultPoint, enumerate_structured_space  # noqa: E402
from repro.core.exploration.store import ResultStore  # noqa: E402
from repro.distributed.spec import CampaignSpec, build_engine  # noqa: E402
from repro.targets import resolve_target  # noqa: E402

TARGETS = ("mini_git", "mini_bind")
#: Structured classes swept next to the errno space.  The ``net_*`` classes
#: and the facade targets stay out until the engine can explore them.
FAULT_CLASSES = (
    "partial_write",
    "short_read",
    "fd_exhaustion",
    "heap_exhaustion",
    "crash_point",
    "clock_skew",
    "clock_jump",
)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.jsonl")
#: The slow differential path every fast path must match.
ORACLE_OPTIONS = {"engine": "reference", "snapshots": False, "memo": False}

Campaign = Tuple[str, str]


def campaigns() -> List[Campaign]:
    """The pass's ``(target, workload)`` campaigns, in registry order."""
    return [
        (target, workload)
        for target in TARGETS
        for workload in resolve_target(target).workloads()
    ]


def campaign_engine(
    target,
    workload: str,
    seed: int,
    store: ResultStore,
    parallelism: ParallelismSpec = None,
) -> Tuple[ExplorationEngine, List[FaultPoint]]:
    """Analyse *target*, enumerate the campaign's space and build its engine.

    The same space :func:`repro.distributed.spec.build_engine` builds for a
    ``CampaignSpec(include_checked=True, fault_classes=FAULT_CLASSES)``,
    but against a caller-owned target instance, so one instance can serve
    every workload of its target in a pass.
    """
    points = LFIController(target).fault_space(include_checked=True)
    points = list(points) + enumerate_structured_space(target.name, FAULT_CLASSES)
    engine = ExplorationEngine(
        target,
        store=store,
        parallelism=parallelism,
        seed=seed,
        workload=workload,
    )
    return engine, points


# ----------------------------------------------------------------------
# the oracle reference
# ----------------------------------------------------------------------
def reference_line(record: dict) -> str:
    """A record as its line of the reference: canonical JSON, no ``run_seed``."""
    return json.dumps(
        {key: value for key, value in record.items() if key != "run_seed"}, sort_keys=True
    )


def _digest(line: str) -> bytes:
    return hashlib.blake2b(line.encode("utf-8"), digest_size=16).digest()


def generate_reference(seed: int = 1) -> Dict[str, str]:
    """Every campaign record of one pass on the oracle path, as reference
    lines by record key.  Any seed gives the same reference."""
    reference: Dict[str, str] = {}
    for target, workload in campaigns():
        spec = CampaignSpec(
            target=target,
            workload=workload,
            seed=seed,
            include_checked=True,
            fault_classes=list(FAULT_CLASSES),
            share_prefixes=False,
            request_options=dict(ORACLE_OPTIONS),
        )
        store = ResultStore()
        engine, points = build_engine(spec, store)
        engine.explore(points)
        for record in store.results():
            payload = record.to_dict()
            if payload["run_seed"] != derive_run_seed(seed, payload["index"]):
                raise AssertionError(f"oracle run seed mismatch for {record.key}")
            reference[record.key] = reference_line(payload)
    return reference


def reference_text(reference: Dict[str, str]) -> str:
    """The contents of ``reference.jsonl`` for *reference*."""
    return "".join(reference[key] + "\n" for key in sorted(reference))


def load_reference(path: str = REFERENCE_PATH) -> Dict[Campaign, Dict[str, bytes]]:
    """A digest of every stored reference record, by record key, grouped by
    ``(target, workload)`` campaign.  Only digests stay resident, so the
    reference adds little to the benchmark's peak RSS."""
    grouped: Dict[Campaign, Dict[str, bytes]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            target = record["key"].split("|", 1)[1].split(":", 1)[0]
            grouped.setdefault((target, record["workload"]), {})[record["key"]] = _digest(
                reference_line(record)
            )
    return grouped


def count_mismatches(
    expected: Dict[str, bytes], seed: int, records: Iterable[dict]
) -> int:
    """Runs of one campaign that failed the oracle check.

    A run fails when its record is missing, differs from the reference, or
    carries another seed than :func:`derive_run_seed` gives; a record for a
    point the reference does not know counts as a failed run too.
    """
    seen = set()
    failed = 0
    for record in records:
        key = record["key"]
        digest = expected.get(key)
        if digest is None or key in seen:
            failed += 1
            continue
        seen.add(key)
        if (
            record.get("run_seed") != derive_run_seed(seed, record["index"])
            or _digest(reference_line(record)) != digest
        ):
            failed += 1
    return failed + len(set(expected) - seen)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-reference", action="store_true",
                        help=f"regenerate {os.path.basename(REFERENCE_PATH)} on the oracle path")
    args = parser.parse_args(argv)
    if not args.write_reference:
        parser.print_help()
        return 2
    reference = generate_reference()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        handle.write(reference_text(reference))
    print(f"wrote {len(reference)} records to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
