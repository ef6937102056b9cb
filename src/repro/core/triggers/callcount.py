"""Call count-based trigger (§3.2).

Fires exactly on the *n*-th call to the associated function (or on every
*k*-th call when ``every`` is given).  Besides its obvious use, the paper
notes this trigger is what makes observed failures replayable in programs
driven deterministically by their environment — the replay generator
(:mod:`repro.core.injection.replay`) emits exactly this trigger.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.injection.context import CallContext
from repro.core.triggers.base import ScalarStateTrigger, TriggerError, declare_trigger


@declare_trigger("CallCountTrigger")
class CallCountTrigger(ScalarStateTrigger):
    """Inject on the n-th call (and optionally periodically afterwards)."""

    def __init__(self) -> None:
        self.nth = 1
        self.every: Optional[int] = None
        self._observed = 0

    def init(self, params: Optional[Dict[str, Any]] = None) -> None:
        params = params or {}
        self.nth = int(params.get("nth", params.get("count", 1)))
        every = params.get("every")
        self.every = int(every) if every is not None else None
        if self.nth < 1:
            raise TriggerError(f"CallCountTrigger nth must be >= 1, got {self.nth}")
        if self.every is not None and self.every < 1:
            raise TriggerError(f"CallCountTrigger every must be >= 1, got {self.every}")

    def eval(self, ctx: CallContext) -> bool:
        # Count the calls this trigger actually observes rather than relying
        # on the gate's per-function counter: the same instance may be
        # associated with several functions (a disjunction), and the paper's
        # semantics are "the n-th call this trigger sees".
        self._observed += 1
        if self.every is not None:
            return self._observed >= self.nth and (self._observed - self.nth) % self.every == 0
        return self._observed == self.nth

    def reset(self) -> None:
        self._observed = 0


__all__ = ["CallCountTrigger"]
