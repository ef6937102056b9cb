"""End-to-end campaign benchmark of the LFI reproduction.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

One client runs the nine campaigns of the full mini_git and mini_bind fault
space back to back (a closed loop), over and over for ``--seconds``, and
every record is checked against the oracle reference.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer ones
from a separate traced run.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``e2ebench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "retest", "pooled", "fabric")
#: Fresh processes that set up per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Limit for the whole run, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def spawn(
    args: argparse.Namespace, role: str, work_dir: str, deadline: float
) -> Dict[str, Any]:
    """Run one workload process; returns the JSON object it printed last."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
        "--work-dir", work_dir,
        "--spawned-at", repr(time.monotonic()),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("e2ebench: no program source at src/repro; run it from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Byte-compile once up front so no set-up sample pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    work_root = os.path.join(ROOT, ".e2ebench-work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        samples = []
        if not args.trace:
            samples = [
                spawn(args, "setup", work_dir, deadline) for _ in range(SETUP_SAMPLES - 1)
            ]
        measured = spawn(args, "measure", work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    samples.append(measured)

    attempted = sum(sample["attempted"] for sample in samples)
    failed = sum(sample["failed"] for sample in samples)
    setup_s = statistics.median(sample["setup_s"] for sample in samples)
    raw_setup_s = statistics.median(sample["setup_raw_s"] for sample in samples)
    tail = measured["first_failure_tail"]

    print(f"e2ebench {args.workload}: seed {args.seed}, {measured['passes']} timed passes, "
          f"{len(samples)} set-up samples")
    print(f"  records_per_s    {measured['records_per_s']:10.1f} 1/s   "
          f"(raw {measured['raw_records_per_s']:.1f})")
    print(f"  first_failure_s  {measured['first_failure_s']:10.4f} s     "
          f"(raw {measured['raw_first_failure_s']:.4f}, median of "
          f"{measured['first_failure_samples']} campaigns"
          + (f"; p{tail['percentile']} {tail['value']:.4f} s" if tail else "") + ")")
    print(f"  setup_s          {setup_s:10.3f} s     (raw {raw_setup_s:.3f}, median of "
          f"{len(samples)})")
    print(f"  peak_rss_mb      {measured['peak_rss_mb']:10.1f} MB")
    print(f"  error_share      {failed / attempted:10.4f} ratio "
          f"({failed} of {attempted} checked runs failed)")

    if args.trace:
        units = declared_units("per_layer")
        values = dict(measured["layers"])
        values.update({
            "first_failure_tail_s": tail["value"] if tail else 0.0,
            "host.calib_s": measured["host_calib_s"],
            "raw.records_per_s": measured["raw_records_per_s"],
            "raw.first_failure_s": measured["raw_first_failure_s"],
            "raw.setup_s": raw_setup_s,
            "trace.overhead": measured["trace_overhead"],
        })
        for name in units:
            print(f"  {name:28s} {values[name]:14.6g} {units[name]}")
    else:
        units = declared_units("end_to_end")
        print(f"  host.calib_s     {measured['host_calib_s']:10.5f} s")
        values = {
            "records_per_s": measured["records_per_s"],
            "first_failure_s": measured["first_failure_s"],
            "setup_s": setup_s,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
