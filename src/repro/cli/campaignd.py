"""``repro-campaignd``: run the campaign coordinator daemon or a worker.

Subcommands:

* ``serve`` — bind the coordinator and serve until interrupted.  With
  ``--port 0`` the kernel picks a free port; ``--port-file`` writes the
  bound port to a file so scripts (the CI smoke job, tests) can discover
  it without parsing logs.
* ``worker`` — run one worker node against a coordinator, until
  interrupted or ``--max-idle`` consecutive empty polls (handy for batch
  jobs that should exit when the queue drains).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="coordinator host")
    parser.add_argument("--port", type=int, default=7070, help="coordinator port")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log at DEBUG level"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaignd",
        description="campaign fabric daemon: coordinator and worker nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the resident coordinator")
    _add_common(serve)
    serve.add_argument(
        "--shard-size", type=int, default=None,
        help="most schedule points per worker shard lease (default: no cap; "
        "each lease is sized by what its round has left per connected worker)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=30.0,
        help="seconds a silent lease survives before its shard is re-queued",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="flush result stores per record but skip the per-record fsync",
    )
    serve.add_argument(
        "--port-file", default=None,
        help="write the bound port to this file once listening",
    )

    worker = sub.add_parser("worker", help="run one worker node")
    _add_common(worker)
    worker.add_argument(
        "--parallelism", default=None,
        help="worker-local execution backend spec (e.g. serial, processes:4)",
    )
    worker.add_argument(
        "--worker-id", default=None, help="stable worker name (default: random)"
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="seconds between fetches while the queue is empty",
    )
    worker.add_argument(
        "--max-idle", type=int, default=None,
        help="exit after this many consecutive idle polls (default: run forever)",
    )

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )

    if args.command == "serve":
        return _serve(args)
    return _worker(args)


def _serve(args: argparse.Namespace) -> int:
    from repro.distributed.campaignd import CampaignCoordinator

    coordinator = CampaignCoordinator(
        host=args.host,
        port=args.port,
        shard_size=args.shard_size,
        lease_timeout=args.lease_timeout,
        durable_stores=not args.no_fsync,
    )
    host, port = coordinator.start()
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    print(f"repro-campaignd listening on {host}:{port}", flush=True)
    try:
        coordinator.serve_forever()
    except KeyboardInterrupt:
        coordinator.stop()
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.distributed.worker import CampaignWorker

    worker = CampaignWorker(
        (args.host, args.port),
        worker_id=args.worker_id,
        parallelism=args.parallelism,
        poll_interval=args.poll_interval,
    )
    print(f"worker {worker.worker_id} serving {args.host}:{args.port}", flush=True)
    try:
        if args.max_idle is None:
            worker.run_forever()
        else:
            idle = 0
            while idle < args.max_idle:
                idle = 0 if worker.run_once() else idle + 1
                if idle:
                    import time

                    time.sleep(args.poll_interval)
    except KeyboardInterrupt:
        pass
    finally:
        worker.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
