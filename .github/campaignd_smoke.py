#!/usr/bin/env python3
"""CI smoke test for the campaign fabric, exercised through the CLIs.

Boots a real ``repro-campaignd`` coordinator and two worker processes on
localhost (one running its leases on a ``processes:2`` pool, one serial),
runs a small mini_git exploration through ``repro-campaign`` — the pooled
worker starts first and must take a lease before the serial one joins;
on the static spec the pooled worker is then paused (``SIGSTOP``), holding
whatever lease it has, until the serial worker has taken a lease of its
own, so both store records — then proves
crash-safe resume: the coordinator is killed, the store is
truncated mid-record (simulating a kill mid-append), a fresh coordinator
is started, and resubmitting the same spec must resume the checkpointed
prefix, repair the torn tail, and re-run only the remainder — ending with
results identical to the first pass.  It does this three times, each spec
with its own store: for the exhaustive strategy and a coverage-guided one,
whose resubmit replays its rounds through the coordinator's planner, on
coordinators that cap leases at four points, and for the exhaustive
strategy again on a default coordinator, whose leases are sized by the
round alone, so a lease reports back tens of records in one batch.

Everything the daemons print lands in ``--log-dir`` (uploaded as a CI
artifact).  Exits non-zero on any failed assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}

SPEC_ARGS = ["--target", "mini_git", "--workload", "status", "--seed", "7"]
#: (name, extra submit arguments, whether both workers must take leases in
#: phase 1, extra coordinator arguments) of every spec the smoke runs.  The
#: static spec leases the whole checked ``status`` space (104 points) one
#: point at a time, so the pooled worker is still draining it when it is
#: paused.  The uncapped spec's first lease is half of that space, and the
#: pooled worker may drain the campaign alone.
SPECS = [
    ("static", ["--include-checked", "--shard-size", "1"], True,
     ["--shard-size", "4"]),
    ("coverage", ["--functions", "close,malloc",
                  "--strategy", "coverage:round=4,patience=1"], False,
     ["--shard-size", "4"]),
    ("uncapped", ["--include-checked"], False, []),
]


def log(message: str) -> None:
    print(f"[smoke] {message}", flush=True)


def start(args, logfile):
    handle = open(logfile, "ab", buffering=0)
    return subprocess.Popen(
        [sys.executable, "-m", *args], env=ENV, cwd=REPO,
        stdout=handle, stderr=subprocess.STDOUT,
    )


def wait_for_port(port_file: str, timeout: float = 30.0) -> int:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if os.path.exists(port_file):
            content = open(port_file, encoding="utf-8").read().strip()
            if content:
                return int(content)
        time.sleep(0.05)
    raise RuntimeError(f"coordinator never wrote {port_file}")


def campaign(port: int, *args: str) -> list:
    """Run one repro-campaign command; returns its JSON output lines."""
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli.campaign",
         "--port", str(port), *args],
        env=ENV, cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"repro-campaign {' '.join(args)} failed "
            f"(rc={out.returncode}):\n{out.stdout}\n{out.stderr}"
        )
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


def wait_until(condition, what: str, timeout: float = 300.0):
    """Poll *condition* until it returns a truthy value, which it returns."""
    deadline = time.time() + timeout
    while True:
        value = condition()
        if value:
            return value
        if time.time() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.1)


def smoke(
    name: str, extra_args: list, mixed: bool, coordinator_args: list, log_dir: str
) -> None:
    """Run, kill, tear and resume one spec's campaign."""
    spec_args = SPEC_ARGS + extra_args
    store = os.path.abspath(os.path.join(log_dir, f"{name}-store.jsonl"))
    port_file = os.path.join(log_dir, "port.txt")
    # A rerun with the same --log-dir starts clean: phase 2 leaves a port
    # file naming a coordinator that is gone, and a store phase 1 would
    # resume instead of running.  The logs keep appending.
    for stale in (port_file, store):
        if os.path.exists(stale):
            os.unlink(stale)
    processes = []

    def coordinator_cmd():
        return ["repro.cli.campaignd", "serve", "--port", "0",
                "--port-file", port_file, *coordinator_args, "-v"]

    try:
        # ------------------------------------------------------------------
        # Phase 1: coordinator + 2 workers, full campaign through the CLI.
        # The pooled worker starts alone and must take a lease before the
        # serial one joins, so phase 1 certainly stores pooled records; on
        # a *mixed* spec the serial worker joins while the pooled one holds
        # a lease and takes leases of its own, so phase 1 stores records of
        # both.  Phase 2 re-runs half of them on a serial worker, and the
        # identical-results check compares the two.
        log(f"[{name}] phase 1: boot coordinator + 2 workers, run the campaign")
        coordinator = start(coordinator_cmd(),
                            os.path.join(log_dir, f"{name}-coordinator-1.log"))
        processes.append(coordinator)
        port = wait_for_port(port_file)

        def start_worker(worker_id: str, *extra: str) -> subprocess.Popen:
            process = start(
                ["repro.cli.campaignd", "worker", "--port", str(port),
                 "--poll-interval", "0.05", "--worker-id", worker_id, *extra],
                os.path.join(log_dir, f"{worker_id}.log"),
            )
            processes.append(process)
            return process

        def status() -> dict:
            (payload,) = campaign(port, "status", campaign_id)
            return payload

        def finished():
            payload = status()
            return None if payload["state"] == "running" else payload

        def serial_joined():
            payload = status()
            if serial_id in payload["workers_seen"] or payload["state"] != "running":
                return payload
            return None

        pooled_id, serial_id = f"{name}-worker-pooled", f"{name}-worker-serial"
        pooled = start_worker(pooled_id, "--parallelism", "processes:2")
        (submitted,) = campaign(port, "submit", *spec_args, "--store", store)
        assert submitted["resumed"] == 0, submitted
        campaign_id = submitted["campaign_id"]
        wait_until(lambda: pooled_id in status()["workers_seen"],
                   "the pooled worker's first lease")
        if mixed:
            # The campaign cannot drain while the pooled worker is paused,
            # so the serial worker joins a running campaign.
            pooled.send_signal(signal.SIGSTOP)
        start_worker(serial_id)
        if mixed:
            try:
                wait_until(serial_joined, "the serial worker's first lease")
            finally:
                pooled.send_signal(signal.SIGCONT)
        final = wait_until(finished, "the campaign to finish")
        total = final["total"]
        assert final["state"] == "complete", final
        assert final["completed"] == total, final
        assert pooled_id in final["workers_seen"], final
        if mixed:
            assert serial_id in final["workers_seen"], final
        log(f"[{name}] phase 1 complete: {total} points, "
            f"workers seen: {final['workers_seen']}")

        first_pass = campaign(port, "results", submitted["campaign_id"])
        assert len(first_pass) == total

        # ------------------------------------------------------------------
        # Phase 2: kill everything, tear the store mid-record, resume.
        log(f"[{name}] phase 2: kill the coordinator, simulate a crash mid-append")
        for process in processes:
            process.send_signal(signal.SIGKILL)
        for process in processes:
            process.wait(timeout=30)
        processes.clear()
        os.unlink(port_file)

        with open(store, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        keep = total // 2
        with open(store, "wb") as handle:
            handle.writelines(lines[:keep])
            handle.write(lines[keep][: len(lines[keep]) // 2])  # torn tail
        log(f"[{name}] store truncated to {keep} records plus a torn partial line")

        coordinator = start(coordinator_cmd(),
                            os.path.join(log_dir, f"{name}-coordinator-2.log"))
        processes.append(coordinator)
        port = wait_for_port(port_file)
        processes.append(start(
            ["repro.cli.campaignd", "worker", "--port", str(port),
             "--poll-interval", "0.05"],
            os.path.join(log_dir, f"{name}-worker-resume.log"),
        ))

        submitted, final = campaign(
            port, "submit", *spec_args, "--store", store, "--wait")
        if "--strategy" in extra_args:
            # Stored records past the first incomplete round count only
            # once the planner reaches their round, after the submit.
            assert submitted["resumed"] <= keep, submitted
        else:
            assert submitted["resumed"] == keep, submitted
        assert final["state"] == "complete", final
        assert final["executed"] == total - keep, final
        log(f"[{name}] resume OK: {keep} checkpointed runs skipped "
            f"({submitted['resumed']} at submit), {total - keep} re-executed")

        second_pass = campaign(port, "results", submitted["campaign_id"])
        assert second_pass == first_pass, "resumed results differ from phase 1"
        log(f"[{name}] merged results identical across the restart "
            f"({total} records)")
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--log-dir", default="campaignd-logs")
    options = parser.parse_args()
    os.makedirs(options.log_dir, exist_ok=True)
    for name, extra_args, mixed, coordinator_args in SPECS:
        smoke(name, extra_args, mixed, coordinator_args, options.log_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
