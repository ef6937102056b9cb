"""Self-checks of the end-to-end campaign benchmark.

Slow (a few minutes), so the file name keeps it out of the tier-1 suite;
run it with::

    python3 -m pytest e2ebench/check_e2ebench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import campaigns  # noqa: E402
from repro.core.controller.executor import derive_run_seed  # noqa: E402

WORKLOADS = ("sweep", "retest", "pooled", "fabric")


def _stored_text():
    with open(campaigns.REFERENCE_PATH, encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("seed", [1, 97])
def test_reference_regenerates_identically(seed):
    assert campaigns.reference_text(campaigns.generate_reference(seed)) == _stored_text()


def test_oracle_check_counts_every_kind_of_bad_record():
    expected = campaigns.load_reference()[("mini_git", "commit")]
    seed = 5
    stored = [json.loads(line) for line in _stored_text().splitlines()]
    good = [
        dict(record, run_seed=derive_run_seed(seed, record["index"]))
        for record in stored
        if record["key"] in expected
    ]
    assert len(good) == len(expected)
    assert campaigns.count_mismatches(expected, seed, good) == 0

    changed = [dict(record) for record in good]
    changed[0]["outcome"] = "crash" if changed[0]["outcome"] != "crash" else "normal"
    changed[1]["run_seed"] += 1
    extra = dict(good[2], key=good[2]["key"] + "-unknown")
    assert campaigns.count_mismatches(expected, seed, changed[:-1] + [extra]) == 4


def _run(*arguments, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    completed = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    assert {metric["name"]: metric["unit"] for metric in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(isinstance(value, (int, float)) for value in values)
    if not trace:
        assert all(value > 0 for value in values)
    # Every end-to-end metric, error_share included, prints with its unit.
    text = "\n".join(lines[:-1])
    for name, unit in (("records_per_s", "1/s"), ("first_failure_s", "s"),
                       ("setup_s", "s"), ("peak_rss_mb", "MB"), ("error_share", "ratio")):
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines), text


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
