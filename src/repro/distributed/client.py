"""Client-side API for the campaign fabric (what ``repro-campaign`` wraps).

A :class:`CampaignClient` is a thin, synchronous wrapper over one protocol
connection: submit a :class:`CampaignSpec`, poll status, stream results.
Every call is one request/response exchange except :meth:`tail` and
:meth:`results`, which consume a server-side stream.

The client is deliberately dumb — no retries beyond the initial dial, no
caching — because campaign durability lives on the coordinator (the result
store), not here.  A client that dies and reconnects simply resubmits the
same spec and gets the same campaign back.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.distributed.protocol import (
    MAX_MESSAGE_BYTES,
    MessageStream,
    connect,
    handshake,
)
from repro.distributed.spec import CampaignSpec


class CampaignServerError(Exception):
    """The coordinator answered a request with an error message."""


class CampaignClient:
    """One client connection to a campaign coordinator."""

    def __init__(
        self,
        address: Tuple[str, int],
        retries: int = 5,
        backoff: float = 0.05,
        max_message_bytes: int = MAX_MESSAGE_BYTES,
    ) -> None:
        self.address = address
        self._stream: MessageStream = connect(
            address, retries=retries, backoff=backoff,
            max_message_bytes=max_message_bytes,
        )
        self.server_info = handshake(self._stream, "client")

    # ------------------------------------------------------------------
    def _rpc(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._stream.send(message)
        return self._checked(self._stream.recv())

    @staticmethod
    def _checked(reply: Dict[str, Any]) -> Dict[str, Any]:
        if reply.get("type") == "error":
            raise CampaignServerError(reply.get("error", "unknown server error"))
        return reply

    # ------------------------------------------------------------------
    def submit(self, spec: Union[CampaignSpec, Dict[str, Any]]) -> Dict[str, Any]:
        """Submit (or resubmit — idempotent per spec) a campaign."""
        payload = spec.to_dict() if isinstance(spec, CampaignSpec) else dict(spec)
        return self._rpc({"type": "submit", "campaign": payload})

    def status(self, campaign_id: str) -> Dict[str, Any]:
        return self._rpc({"type": "status", "campaign_id": campaign_id})

    def list_campaigns(self) -> List[Dict[str, Any]]:
        return self._rpc({"type": "list"}).get("campaigns", [])

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        return self._rpc({"type": "cancel", "campaign_id": campaign_id})

    def ping(self) -> Dict[str, Any]:
        return self._rpc({"type": "ping"})

    def shutdown_server(self) -> Dict[str, Any]:
        """Ask the coordinator to stop (admin/testing affordance)."""
        return self._rpc({"type": "shutdown"})

    # ------------------------------------------------------------------
    def results(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Fetch the completed snapshot: stored records in schedule order."""
        self._stream.send({"type": "results", "campaign_id": campaign_id})
        records: List[Dict[str, Any]] = []
        while True:
            reply = self._checked(self._stream.recv())
            if reply.get("type") == "results_end":
                return records
            if reply.get("type") != "result":
                raise CampaignServerError(f"unexpected results reply: {reply!r}")
            records.append(reply["record"])

    def tail(
        self,
        campaign_id: str,
        from_seq: int = 0,
        follow: bool = True,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield fresh-result events as the campaign produces them.

        Ends when the campaign completes or is cancelled (a terminal
        ``campaign_complete`` / ``campaign_cancelled`` event is yielded
        last), or — with ``follow=False`` — after catching up to the
        present (``tail_end``).
        """
        self._stream.send({
            "type": "tail",
            "campaign_id": campaign_id,
            "from_seq": from_seq,
            "follow": follow,
        })
        while True:
            reply = self._checked(self._stream.recv(timeout=timeout))
            yield reply
            if reply.get("type") in ("campaign_complete", "campaign_cancelled", "tail_end"):
                return

    def wait(self, campaign_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the campaign leaves the running state; returns its
        final status payload."""
        for event in self.tail(campaign_id, follow=True, timeout=timeout):
            if event.get("type") in ("campaign_complete", "campaign_cancelled"):
                break
        return self.status(campaign_id)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "CampaignClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["CampaignClient", "CampaignServerError"]
