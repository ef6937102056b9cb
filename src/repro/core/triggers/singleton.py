"""Singleton trigger (§3.2).

Allows a fault to be injected at most once (or ``max_injections`` times).
Typically composed at the *end* of a conjunction: thanks to short-circuit
evaluation (§4.3) it is only consulted when every other trigger already
agreed, so it limits the number of *injections*, not evaluations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.injection.context import CallContext
from repro.core.triggers.base import ScalarStateTrigger, TriggerError, declare_trigger


@declare_trigger("SingletonTrigger")
class SingletonTrigger(ScalarStateTrigger):
    """Return True at most ``max_injections`` times."""

    def __init__(self) -> None:
        self.max_injections = 1
        self._granted = 0

    def init(self, params: Optional[Dict[str, Any]] = None) -> None:
        params = params or {}
        self.max_injections = int(params.get("max", params.get("max_injections", 1)))
        if self.max_injections < 1:
            raise TriggerError(
                f"SingletonTrigger max_injections must be >= 1, got {self.max_injections}"
            )

    def eval(self, ctx: CallContext) -> bool:
        if self._granted >= self.max_injections:
            return False
        self._granted += 1
        return True

    def reset(self) -> None:
        self._granted = 0

    @property
    def injections_granted(self) -> int:
        return self._granted


__all__ = ["SingletonTrigger"]
