"""Target adapter for the Apache analog."""

from __future__ import annotations

from functools import partial
from typing import List

from repro.common.frozen import FrozenMap
from repro.core.controller.monitor import RunResult, run_python_workload
from repro.core.controller.target import WorkloadRequest, make_gate
from repro.oslib.facade import LibcFacade
from repro.oslib.os_model import SimOS
from repro.targets.mini_apache.httpd_core import ApacheServer, HttpRequest

STATIC_PAGE = "/index.html"
PHP_PAGE = "/app.php"


class MiniApacheTarget:
    """Apache 2.2.14 analog used by the Table 5 overhead experiment."""

    name = "mini_apache"
    known_bugs = ()

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

    def make_server(self, request: WorkloadRequest) -> ApacheServer:
        os = self.make_os()
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
    def _request_loop(
        server: ApacheServer, uri: str, requests: int, post_every: int
    ) -> int:
        """Drive the ab-style request loop; exit status 1 on a 5xx reply."""
        for index in range(requests):
            method = "POST" if post_every and index % post_every == 0 else "GET"
            response = server.handle_connection(HttpRequest(uri=uri, method=method))
            if response.status >= 500:
                return 1
        return 0

    def run(self, request: WorkloadRequest) -> RunResult:
        server = self.make_server(request)
        options = request.options
        uri = STATIC_PAGE if request.workload == "ab-static" else PHP_PAGE
        outcome = run_python_workload(partial(
            self._request_loop, server, uri,
            int(options.get("requests", 100)), int(options.get("post_every", 10)),
        ))
        gate = server.libc.gate
        stats = {
            "library_calls": gate.total_calls,
            "calls": FrozenMap(gate.call_counts),
            "requests_handled": server.requests_handled,
            "intercepted_calls": gate.intercepted_calls,
        }
        return RunResult(outcome=outcome, log=gate.log, stats=stats)


__all__ = ["MiniApacheTarget", "PHP_PAGE", "STATIC_PAGE"]
