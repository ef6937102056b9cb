"""``repro-campaign``: the campaign fabric client.

Submit explorations to a resident ``repro-campaignd`` coordinator, watch
them stream in, and pull merged results — from any number of shells,
against any number of campaigns, while the daemon and its workers stay
resident.

Examples::

    repro-campaign submit --target mini_git --workload status \\
        --store /tmp/git-status.jsonl --seed 7 --wait
    repro-campaign status c1
    repro-campaign tail c1                 # stream results as they land
    repro-campaign results c1 > merged.jsonl
    repro-campaign cancel c1

Every record printed by ``tail``/``results`` is one JSON line in exactly
the result-store format, so shell pipelines (``jq``, ``grep``) and store
files are interchangeable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _client(args: argparse.Namespace):
    from repro.distributed.client import CampaignClient

    return CampaignClient((args.host, args.port))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign", description="campaign fabric client"
    )
    parser.add_argument("--host", default="127.0.0.1", help="coordinator host")
    parser.add_argument("--port", type=int, default=7070, help="coordinator port")
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="submit (or resume) a campaign")
    submit.add_argument("--target", required=True, help="registry target name")
    submit.add_argument("--workload", default=None)
    submit.add_argument(
        "--strategy", default=None,
        help="exhaustive | coverage "
        "(coverage accepts knobs, e.g. coverage:round=8,patience=2)",
    )
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--functions", default=None,
        help="comma-separated function filter (narrows the fault space)",
    )
    submit.add_argument("--include-checked", action="store_true")
    submit.add_argument("--no-partial", action="store_true")
    submit.add_argument(
        "--store", default=None,
        help="coordinator-side JSON-lines checkpoint path (enables resume)",
    )
    submit.add_argument(
        "--shard-size", type=int, default=None,
        help="most schedule points per worker shard lease (default: the "
        "coordinator's cap, if any; leases are sized by the round)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the campaign completes, then print final status",
    )

    for name, help_text in (
        ("status", "one campaign's progress"),
        ("cancel", "cancel a running campaign"),
        ("results", "print the merged records (schedule order), one JSON line each"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("campaign_id")

    tail = sub.add_parser("tail", help="stream results as they complete")
    tail.add_argument("campaign_id")
    tail.add_argument("--from-seq", type=int, default=0)
    tail.add_argument(
        "--no-follow", action="store_true", help="catch up and exit"
    )

    sub.add_parser("list", help="all campaigns")
    sub.add_parser("ping", help="liveness check")
    sub.add_parser("shutdown", help="stop the coordinator")

    args = parser.parse_args(argv)
    handler = {
        "submit": _submit,
        "status": _status,
        "cancel": _cancel,
        "results": _results,
        "tail": _tail,
        "list": _list,
        "ping": _ping,
        "shutdown": _shutdown,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        return 0


def _print(payload) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    sys.stdout.flush()


def _submit(args: argparse.Namespace) -> int:
    from repro.distributed.spec import CampaignSpec

    spec = CampaignSpec(
        target=args.target,
        workload=args.workload,
        strategy=args.strategy,
        seed=args.seed,
        functions=args.functions.split(",") if args.functions else None,
        include_partial=not args.no_partial,
        include_checked=args.include_checked,
        store_path=args.store,
        shard_size=args.shard_size,
    )
    with _client(args) as client:
        reply = client.submit(spec)
        _print(reply)
        if args.wait and reply.get("state") == "running":
            final = client.wait(reply["campaign_id"])
            _print(final)
            return 0 if final.get("state") == "complete" else 1
        return 0


def _status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        status = client.status(args.campaign_id)
        _print(status)
        return 0 if status.get("state") in ("running", "complete") else 1


def _cancel(args: argparse.Namespace) -> int:
    with _client(args) as client:
        _print(client.cancel(args.campaign_id))
        return 0


def _results(args: argparse.Namespace) -> int:
    with _client(args) as client:
        for record in client.results(args.campaign_id):
            _print(record)
        return 0


def _tail(args: argparse.Namespace) -> int:
    with _client(args) as client:
        for event in client.tail(
            args.campaign_id, from_seq=args.from_seq, follow=not args.no_follow
        ):
            if event.get("type") == "result":
                _print(event["record"])
            else:
                _print(event)
        return 0


def _list(args: argparse.Namespace) -> int:
    with _client(args) as client:
        for campaign in client.list_campaigns():
            _print(campaign)
        return 0


def _ping(args: argparse.Namespace) -> int:
    with _client(args) as client:
        _print(client.ping())
        return 0


def _shutdown(args: argparse.Namespace) -> int:
    with _client(args) as client:
        _print(client.shutdown_server())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
