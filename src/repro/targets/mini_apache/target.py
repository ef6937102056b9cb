"""Target adapter for the Apache analog."""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.frozen import FrozenMap
from repro.core.controller.monitor import RunResult, run_python_workload
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.oslib.facade import LibcFacade
from repro.oslib.os_model import SimOS
from repro.targets.mini_apache.httpd_core import ApacheServer, HttpRequest, HttpResponse

STATIC_PAGE = "/index.html"
PHP_PAGE = "/app.php"


class MiniApacheTarget:
    """Apache 2.2.14 analog used by the Table 5 overhead experiment."""

    name = "mini_apache"
    known_bugs = ()
    #: Request handling is deterministic modulo the injected fault, so the
    #: prefix-sharing campaign scheduler may group this target's scenarios.
    prefix_shareable = True

    def binary(self):
        return None

    # ------------------------------------------------------------------
    def make_os(self) -> SimOS:
        os = SimOS(self.name)
        fs = os.fs
        fs.make_dirs("/var/www/html")
        fs.make_dirs("/var/log/apache2")
        fs.add_file(
            "/var/www/html/index.html",
            b"<html><body>" + b"static content " * 250 + b"</body></html>",
        )
        fs.add_file(
            "/var/www/html/app.php",
            b"<?php echo render_dashboard(load_rows()); ?>" * 16,
        )
        fs.add_file("/var/www/html/include.php", b"<?php function helper() {} ?>")
        return os

    def make_server(self, request: WorkloadRequest, populate: bool = True) -> ApacheServer:
        """Build a server world for *request*.

        ``populate=False`` skips the document-root fixture: the prefix-
        sharing fork path restores a captured filesystem wholesale right
        after construction, so building fixture files only to overwrite
        them is pure waste on the fork hot path.
        """
        os = self.make_os() if populate else SimOS(self.name)
        gate = make_gate(request.scenario, observe_only=request.observe_only,
                         run_seed=request.options.get("run_seed"))
        libc = LibcFacade(os, gate=gate, node="httpd")
        server = ApacheServer(os, libc)
        gate.add_state_provider(server.read_state)
        return server

    # ------------------------------------------------------------------
    def workloads(self) -> List[str]:
        return ["ab-static", "ab-php"]

    @staticmethod
    def _workload_params(workload: str, options: Dict[str, Any]) -> Tuple[str, int, int]:
        requests = int(options.get("requests", 100))
        post_every = int(options.get("post_every", 10))
        uri = STATIC_PAGE if workload == "ab-static" else PHP_PAGE
        return uri, requests, post_every

    @staticmethod
    def _request_loop(
        server: ApacheServer,
        uri: str,
        requests: int,
        post_every: int,
        start: int = 0,
        boundary_hook=None,
    ) -> int:
        """Drive the ab-style request loop (shared by all execution paths).

        One code object serves plain runs, probes, and resumed forks, so
        recorded backtraces are identical no matter which path drove the
        run.  ``boundary_hook(index)`` fires before each request — the
        prefix-sharing fork path uses it to snapshot the server world at
        the last request boundary before a trigger fires.
        """
        for index in range(start, requests):
            if boundary_hook is not None:
                boundary_hook(index)
            method = "POST" if post_every and index % post_every == 0 else "GET"
            response = server.handle_connection(HttpRequest(uri=uri, method=method))
            if response.status >= 500:
                return 1
        return 0

    @staticmethod
    def _result(server: ApacheServer, outcome) -> RunResult:
        gate = server.libc.gate
        stats = {
            "library_calls": gate.total_calls,
            "calls": FrozenMap(gate.call_counts),
            "requests_handled": server.requests_handled,
            "intercepted_calls": gate.intercepted_calls,
        }
        return RunResult(outcome=outcome, log=gate.log, stats=stats)

    def run(self, request: WorkloadRequest) -> RunResult:
        server = self.make_server(request)
        uri, requests, post_every = self._workload_params(request.workload, request.options)
        outcome = run_python_workload(
            partial(self._request_loop, server, uri, requests, post_every)
        )
        return self._result(server, outcome)

    # ------------------------------------------------------------------
    # prefix-sharing fork path (repro.core.controller.prefix)
    # ------------------------------------------------------------------
    @staticmethod
    def _capture_world(server: ApacheServer) -> Dict[str, Any]:
        """Value-level snapshot of a server world (OS, gate, facade, server).

        One capture serves every fork: the OS subsystems capture by value
        and restore by rebuilding (PR 4 snapshot plumbing), and the gate
        graft deep-copies per member, so restores never alias each other.
        """
        from repro.vm.snapshot import capture_gate_state

        facade = server.libc
        return {
            "os": server.os.capture_state(),
            "gate": capture_gate_state(facade.gate),
            "facade": (
                facade._errno,
                facade.errno_reads,
                facade._next_handle,
                dict(facade._malloc_handles),
                dict(facade._file_handles),
                dict(facade._dir_handles),
            ),
            "server": (
                server.requests_handled,
                server.errors,
                server.current_method_number,
            ),
        }

    @staticmethod
    def _restore_world(server: ApacheServer, world: Dict[str, Any]) -> None:
        from repro.vm.snapshot import graft_gate_state

        server.os.restore_state(world["os"])
        graft_gate_state(world["gate"], server.libc.gate)
        errno, errno_reads, next_handle, mallocs, files, dirs = world["facade"]
        facade = server.libc
        facade._errno = errno
        facade.errno_reads = errno_reads
        facade._next_handle = next_handle
        facade._malloc_handles = dict(mallocs)
        facade._file_handles = dict(files)
        facade._dir_handles = dict(dirs)
        (
            server.requests_handled,
            server.errors,
            server.current_method_number,
        ) = world["server"]

    def run_prefix_group(
        self,
        workload: str,
        members: Sequence[Tuple[int, Any, Optional[int]]],
        collect_coverage: bool,
        options: Dict[str, Any],
        observe_only: bool = False,
    ) -> Dict[int, RunResult]:
        """Run one scenario group forkserver-style.

        The group's probe (lowest divergence rank) drives the request loop
        once, tracking only the index of the last request boundary before
        its trigger fired (an integer assignment per request).  If the
        trigger never fired, no sibling can inject either — ranks fire
        monotonically later — and the probe's result is replicated.
        Otherwise the deterministic prefix — requests before the trigger —
        is replayed once into a pristine world and captured **by value**
        (OS/gate/facade/server state); each sibling gets a fresh server
        built from its own scenario, the captured world restored onto it
        (the gate grafted with :func:`~repro.vm.snapshot.graft_gate_state`
        and re-armed with
        :func:`~repro.core.controller.prefix.rearm_member_triggers`, as on
        the compiled targets), and processes only the remaining requests.
        Forking is therefore O(touched state).  Siblings whose faults
        differ from an already-run member only in errno, when that member's
        suffix never read errno (the facade's errno-read counter), are
        suffix replicas: the source's result with its one injected record
        carrying the member's errno, instead of a re-run.
        """
        from repro.core.controller.prefix import (
            patch_replica_errno,
            rearm_member_triggers,
            scenario_group_rank,
            seeded_options,
        )

        results: Dict[int, RunResult] = {}
        probe_index, probe_scenario, probe_seed = members[0]
        probe_request = WorkloadRequest(
            workload=workload,
            scenario=probe_scenario,
            observe_only=observe_only,
            collect_coverage=collect_coverage,
            options=seeded_options(options, probe_seed),
        )
        server = self.make_server(probe_request)
        gate = server.libc.gate
        uri, requests, post_every = self._workload_params(workload, options)

        boundary: Dict[str, Any] = {"request": 0, "locked": False, "errno_reads": 0}

        def track_boundary(index: int) -> None:
            if boundary["locked"]:
                return
            if gate.injected_calls or gate.observed_injections:
                boundary["locked"] = True
                return
            boundary["request"] = index
            boundary["errno_reads"] = server.libc.errno_reads

        outcome = run_python_workload(
            partial(self._request_loop, server, uri, requests, post_every, 0,
                    track_boundary)
        )
        results[probe_index] = self._result(server, outcome)

        if not gate.injected_calls:
            # No fault applied (trigger never agreed, or observe-only gate):
            # the members' faults are dead weight and all runs are identical,
            # so every member's result is the probe's value.
            for index, _scenario, _seed in members[1:]:
                results[index] = results[probe_index]
            return results

        # Re-materialize the shared prefix once: a fresh probe world driven
        # up to (excluding) the request whose processing injected.  Request
        # handling is deterministic, so this is exactly the state the probe
        # held at that boundary.
        prefix_world = self.make_server(probe_request)
        run_python_workload(
            partial(self._request_loop, prefix_world, uri, boundary["request"],
                    post_every)
        )
        world = self._capture_world(prefix_world)

        # Completed runs usable as errno-blind suffix-replication sources:
        # (rank, scenario, result, suffix never read errno).  Suffix reads
        # are measured from the shared boundary, which upper-bounds the
        # post-injection reads — a zero stays a sound zero.
        sources = [(
            scenario_group_rank(probe_scenario),
            probe_scenario,
            results[probe_index],
            server.libc.errno_reads == boundary["errno_reads"],
        )]

        for index, scenario, seed in members[1:]:
            rank = scenario_group_rank(scenario)
            replica = None
            for source_rank, source_scenario, source_result, blind in sources:
                if blind and source_rank == rank:
                    replica = patch_replica_errno(
                        source_result, source_scenario, scenario
                    )
                    if replica is not None:
                        break
            if replica is not None:
                results[index] = replica
                continue

            member_request = WorkloadRequest(
                workload=workload,
                scenario=scenario,
                observe_only=observe_only,
                collect_coverage=collect_coverage,
                options=seeded_options(options, seed),
            )
            fork = self.make_server(member_request, populate=False)
            self._restore_world(fork, world)
            rearm_member_triggers(fork.libc.gate, scenario)
            member_outcome = run_python_workload(
                partial(
                    self._request_loop, fork, uri, requests, post_every,
                    boundary["request"],
                )
            )
            results[index] = self._result(fork, member_outcome)
            sources.append((
                rank,
                scenario,
                results[index],
                fork.libc.errno_reads == boundary["errno_reads"],
            ))
        return results


__all__ = ["MiniApacheTarget", "PHP_PAGE", "STATIC_PAGE"]
