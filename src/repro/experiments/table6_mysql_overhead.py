"""Table 6 — MySQL throughput with 0-4 triggers installed on ``fcntl``.

Read-only and read-write SysBench OLTP workloads, gate in observe-only mode.
The interesting property is the *shape*: throughput declines only slightly
(a few percent) as triggers are added, because conjunction evaluation
short-circuits and each trigger is cheap.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import TableResult
from repro.targets.mini_mysql import MiniMySQLTarget
from repro.targets.mini_mysql.scenarios import fcntl_overhead_scenario
from repro.workloads.sysbench import run_sysbench


def run(transactions: int = 300, repeats: int = 3, max_triggers: int = 4) -> TableResult:
    """Reproduce Table 6 (transactions per second, 0-4 triggers)."""
    target = MiniMySQLTarget()
    table = TableResult(
        name="Table 6",
        description="MySQL throughput under the LFI trigger mechanism (observe-only)",
        columns=["configuration", "read-only (txns/s)", "read/write (txns/s)",
                 "read-only slowdown", "read/write slowdown"],
        paper_reference={
            "baseline_ro": 1076, "baseline_rw": 326,
            "four_triggers_ro": 1056, "four_triggers_rw": 316,
        },
    )

    scenarios = {
        count: fcntl_overhead_scenario(count) if count else None
        for count in range(max_triggers + 1)
    }

    # Each repeat measures every configuration back to back, so host drift
    # between repeats slows all of them alike instead of reading as trigger
    # overhead; every cell keeps its best repeat.
    best: Dict[Tuple[int, bool], float] = {}
    for _ in range(repeats):
        for count in scenarios:
            for read_only in (True, False):
                result = run_sysbench(
                    target, read_only=read_only, transactions=transactions,
                    scenario=scenarios[count], observe_only=True,
                )
                cell = (count, read_only)
                best[cell] = max(best.get(cell, 0.0), result.transactions_per_second)

    baseline_ro = best[0, True]
    baseline_rw = best[0, False]
    table.add_row(
        configuration="Baseline (no LFI)",
        **{
            "read-only (txns/s)": baseline_ro,
            "read/write (txns/s)": baseline_rw,
            "read-only slowdown": 0.0,
            "read/write slowdown": 0.0,
        },
    )
    for count in range(1, max_triggers + 1):
        throughput_ro = best[count, True]
        throughput_rw = best[count, False]
        table.add_row(
            configuration=f"{count} trigger{'s' if count > 1 else ''}",
            **{
                "read-only (txns/s)": throughput_ro,
                "read/write (txns/s)": throughput_rw,
                "read-only slowdown": 1 - throughput_ro / baseline_ro if baseline_ro else 0.0,
                "read/write slowdown": 1 - throughput_rw / baseline_rw if baseline_rw else 0.0,
            },
        )
    table.add_note(
        f"each configuration runs {transactions} OLTP transactions; best of {repeats} repeats"
    )
    return table


__all__ = ["run"]
