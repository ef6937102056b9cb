"""Target adapter for the MySQL analog."""

from __future__ import annotations

from typing import List

from repro.common.frozen import FrozenMap
from repro.core.controller.monitor import (
    Outcome,
    OutcomeKind,
    RunResult,
    run_python_workload,
)
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.oslib.facade import LibcFacade
from repro.oslib.os_model import SimOS
from repro.targets.base import KnownBug
from repro.targets.mini_mysql.server import ERRMSG_PATH, TABLE_PATH, MySQLServer

KNOWN_BUGS = (
    KnownBug(
        identifier="mysql-double-unlock-close",
        system="mini_mysql",
        library_function="close",
        kind=OutcomeKind.ABORT,
        description=(
            "Abort after a double mutex unlock: the mi_create error handling "
            "triggered by a failed close releases a mutex the normal path "
            "already released."
        ),
    ),
    KnownBug(
        identifier="mysql-errmsg-read-crash",
        system="mini_mysql",
        library_function="read",
        kind=OutcomeKind.CRASH,
        description=(
            "Crash due to a failed read (EIO) while processing errmsg.sys: the "
            "error is logged but an uninitialized message index is then used."
        ),
    ),
)


class MiniMySQLTarget:
    """MySQL 5.1.44 analog exposing the paper's MySQL workloads."""

    name = "mini_mysql"
    known_bugs = KNOWN_BUGS
    #: Workloads are deterministic modulo the injected fault, so the
    #: prefix-sharing campaign scheduler may group this target's scenarios.
    prefix_shareable = True

    def binary(self):
        """Python-level target: there is no compiled binary to analyze."""
        return None

    # ------------------------------------------------------------------
    def make_os(self) -> SimOS:
        os = SimOS(self.name)
        fs = os.fs
        fs.make_dirs("/var/lib/mysql/share")
        fs.make_dirs("/var/lib/mysql/data")
        fs.make_dirs("/var/lib/mysql/cache")
        fs.make_dirs("/var/lib/mysql/log")
        fs.add_file(ERRMSG_PATH, b"ER_OK\nER_DUP_KEY\nER_DISK_FULL\n" * 4)
        fs.add_file(TABLE_PATH, b"row-" * 64)
        return os

    def make_server(self, request: WorkloadRequest) -> MySQLServer:
        os = self.make_os()
        gate = make_gate(request.scenario, observe_only=request.observe_only,
                         run_seed=request.options.get("run_seed"))
        libc = LibcFacade(os, gate=gate, node="mysqld")
        server = MySQLServer(os, libc)
        gate.add_state_provider(server.read_state)
        return server

    # ------------------------------------------------------------------
    def workloads(self) -> List[str]:
        return ["startup", "merge-big", "sysbench-readonly", "sysbench-readwrite"]

    @staticmethod
    def _run_workload(server: MySQLServer, workload: str, options) -> int:
        if workload == "startup":
            return server.startup()
        server.startup()
        if workload == "merge-big":
            server.run_merge_big(iterations=options.get("iterations", 5))
        elif workload == "sysbench-readonly":
            for _ in range(options.get("transactions", 50)):
                server.run_transaction(read_only=True)
        elif workload == "sysbench-readwrite":
            for _ in range(options.get("transactions", 50)):
                server.run_transaction(read_only=False)
        else:
            raise KeyError(f"mini_mysql has no workload {workload!r}")
        server.shutdown()
        return 0

    def run(self, request: WorkloadRequest) -> RunResult:
        server = self.make_server(request)
        gate = server.libc.gate
        options = request.options

        outcome = run_python_workload(
            lambda: self._run_workload(server, request.workload, options)
        )

        metadata = getattr(request.scenario, "metadata", None) or {}
        if outcome.kind is OutcomeKind.WORLD_CRASH and "recovery_workload" in metadata:
            # Crash-consistency kill: the simulated disk survives exactly as
            # the "power loss" left it (torn MYI/MYD prefixes included).  A
            # rebooted server — a fresh process over the same filesystem and
            # the same gate, whose crash trigger has already fired its
            # singleton — then runs the recovery workload fault-free.
            crash_detail = outcome.detail
            recovery = metadata.get("recovery_workload") or request.workload
            rebooted = MySQLServer(server.os, LibcFacade(server.os, gate=gate, node="mysqld"))
            recovered = run_python_workload(
                lambda: self._run_workload(rebooted, recovery, options)
            )
            if recovered.is_high_impact or recovered.kind is OutcomeKind.HANG:
                outcome = Outcome(
                    kind=recovered.kind,
                    detail=f"during recovery from [{crash_detail}]: {recovered.detail}",
                    exit_code=recovered.exit_code,
                    location=recovered.location,
                )
            else:
                outcome = Outcome(
                    kind=OutcomeKind.NORMAL,
                    detail=f"recovered after [{crash_detail}]",
                )
            server = rebooted

        stats = {
            "library_calls": gate.total_calls,
            "calls": FrozenMap(gate.call_counts),
            "queries": server.queries_executed,
            "transactions": server.transactions_committed,
            "tables_created": server.engine.tables_created,
        }
        return RunResult(outcome=outcome, log=gate.log, stats=stats)

    # ------------------------------------------------------------------
    @staticmethod
    def outcome_is_double_unlock(outcome: Outcome) -> bool:
        """Oracle used by the Table 2 precision benchmark."""
        return outcome.kind is OutcomeKind.ABORT and "mutex" in outcome.detail.lower()


__all__ = ["KNOWN_BUGS", "MiniMySQLTarget"]
