#!/usr/bin/env python3
"""Adaptive exploration benchmark — writes ``BENCH_adaptive.json``.

Two measurements for the round-based feedback loop (doc/ADAPTIVE.md):

1. **probes_to_plateau** — the coverage-guided strategy vs the exhaustive
   sweep on the full mini_git fault space: both must reach the *same*
   recovery-line universe (the table3 metric), and the adaptive campaign
   must get there executing **at most 60%** of the exhaustive probe
   count (asserted).
2. **distributed_check** — the same adaptive campaign serial vs through
   an in-process coordinator + two workers (central round planning,
   explicit-assignment leases): merged records must be bit-identical and
   the coordinator's planner/round counts must match the serial run's.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_adaptive.py \
        [--output BENCH_adaptive.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.controller.controller import LFIController  # noqa: E402
from repro.core.exploration.engine import ExplorationEngine  # noqa: E402
from repro.core.exploration.store import ResultStore  # noqa: E402
from repro.core.exploration.strategy import (  # noqa: E402
    ExplorationStrategy,
    SingleRoundSession,
)
from repro.distributed.campaignd import CampaignCoordinator  # noqa: E402
from repro.distributed.client import CampaignClient  # noqa: E402
from repro.distributed.spec import CampaignSpec, build_engine  # noqa: E402
from repro.distributed.worker import CampaignWorker  # noqa: E402
from repro.targets.mini_git import MiniGitTarget  # noqa: E402

ADAPTIVE_STRATEGY = "coverage:round=6,patience=1"


class SweepAllStrategy(ExplorationStrategy):
    """Adaptive oracle: one round proposing the whole space.

    ``adaptive = True`` switches coverage collection on, so its stored
    records carry the exhaustive recovery-line union the coverage-guided
    plateau is measured against.
    """

    name = "sweep-all"
    adaptive = True

    def select(self, points):
        return list(points)

    def session(self):
        return SingleRoundSession(self)


def _explore(strategy, points):
    engine = ExplorationEngine(
        MiniGitTarget(), strategy=strategy, store=ResultStore(),
        seed=7, workload="status",
    )
    report = engine.explore(points)
    lines = set()
    for outcome in report.outcomes:
        stored = engine.store.get(engine.run_key(outcome.point))
        if stored is not None:
            lines.update(stored.recovery_lines)
    return report, lines


# ----------------------------------------------------------------------
# 1. probes_to_plateau: coverage-guided vs exhaustive sweep
# ----------------------------------------------------------------------
def bench_plateau() -> dict:
    points = LFIController(MiniGitTarget()).fault_space()
    sweep, exhaustive_lines = _explore(SweepAllStrategy(), points)
    adaptive, adaptive_lines = _explore(ADAPTIVE_STRATEGY, points)

    assert exhaustive_lines, "mini_git must expose recovery code to cover"
    assert adaptive_lines == exhaustive_lines, (
        f"adaptive coverage plateaued short: {len(adaptive_lines)} of "
        f"{len(exhaustive_lines)} recovery lines"
    )
    fraction = adaptive.executed / sweep.executed
    assert fraction <= 0.60, (
        f"adaptive exploration executed {adaptive.executed} of "
        f"{sweep.executed} probes ({fraction:.0%}) — above the 60% target"
    )
    return {
        "space_points": len(points),
        "exhaustive_probes": sweep.executed,
        "adaptive_probes": adaptive.executed,
        "probe_fraction": round(fraction, 4),
        "adaptive_rounds": len(adaptive.rounds),
        "recovery_lines": len(exhaustive_lines),
        "recovery_line_parity": True,
        "new_coverage_probes": adaptive.planner["new_coverage_probes"],
        "per_round_new_lines": [
            entry["new_recovery_lines"] for entry in adaptive.rounds
        ],
    }


# ----------------------------------------------------------------------
# 2. distributed_check: serial vs coordinator + 2 workers
# ----------------------------------------------------------------------
def check_distributed(tmp_store) -> dict:
    spec_kwargs = dict(
        target="mini_git", workload="status", seed=7,
        functions=["close", "malloc"], strategy="coverage:round=4,patience=1",
    )
    engine, points = build_engine(
        CampaignSpec(**spec_kwargs), store=ResultStore()
    )
    report = engine.explore(points)
    reference = [
        (engine.run_key(o.point), o.outcome.kind.value, o.outcome.detail,
         o.injections, o.fingerprint, o.run_seed)
        for o in report.outcomes
    ]

    coordinator = CampaignCoordinator(port=0, shard_size=3)
    address = coordinator.start()
    client = CampaignClient(address)
    workers = [
        CampaignWorker(address, worker_id=f"bench-w{i}") for i in range(2)
    ]
    try:
        reply = client.submit(CampaignSpec(store_path=tmp_store, **spec_kwargs))
        worked = True
        while worked:
            worked = False
            for worker in workers:
                worked |= worker.run_once()
        status = client.status(reply["campaign_id"])
        records = client.results(reply["campaign_id"])
    finally:
        client.close()
        for worker in workers:
            worker.close()
        coordinator.stop()

    fabric = [
        (r["key"], r["outcome"], r["detail"], r["injections"],
         r["fingerprint"], r["run_seed"])
        for r in records
    ]
    assert status["state"] == "complete"
    assert fabric == reference, "distributed adaptive run diverged from serial"
    assert status["planner"]["rounds"] == len(report.rounds), (
        "coordinator planned different rounds than the serial oracle"
    )
    return {
        "records": len(records),
        "rounds": status["planner"]["rounds"],
        "identical_to_serial": True,
        "workers": 2,
    }


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_adaptive.json")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            "benchmark": "adaptive",
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "probes_to_plateau": bench_plateau(),
            "distributed_check": check_distributed(
                os.path.join(tmp, "bench_adaptive.jsonl")
            ),
        }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    plateau = payload["probes_to_plateau"]
    distributed = payload["distributed_check"]
    print(f"probes_to_plateau: adaptive {plateau['adaptive_probes']} vs "
          f"exhaustive {plateau['exhaustive_probes']} probes "
          f"({plateau['probe_fraction']:.0%}) over "
          f"{plateau['adaptive_rounds']} rounds, full parity on "
          f"{plateau['recovery_lines']} recovery lines")
    print(f"distributed_check: {distributed['records']} records over "
          f"{distributed['rounds']} centrally planned rounds, bit-identical "
          f"to serial")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
