"""Distributed trigger (§3.2).

For distributed systems (PBFT in the paper), a central controller receives
information about intercepted calls — function name, arguments, node — and
decides, based on its *global* view, whether the remote trigger should fire.
To keep runtime overhead low, distributed triggers are meant to be composed
with node-local triggers so the controller is consulted only when the
decision cannot be made locally (§3.2); the conjunction short-circuiting in
:mod:`repro.core.triggers.composite` provides exactly that.

The controller object lives in :mod:`repro.distributed.central_controller`;
scenario files reference it by name through the runtime's shared-object
table, and programmatic users simply pass the instance in ``params``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol

from repro.core.injection.context import CallContext
from repro.core.triggers.base import Trigger, TriggerError, declare_trigger


class InjectionController(Protocol):
    """What the distributed trigger needs from the central controller."""

    def should_inject(
        self, node: str, function: str, args: tuple, ctx: CallContext
    ) -> bool:  # pragma: no cover - protocol
        ...


@declare_trigger("DistributedTrigger")
class DistributedTrigger(Trigger):
    """Delegate the injection decision to a central controller."""

    def __init__(self, controller: Optional[InjectionController] = None) -> None:
        self.controller = controller
        self.consultations = 0

    def init(self, params: Optional[Dict[str, Any]] = None) -> None:
        params = params or {}
        controller = params.get("controller", self.controller)
        if controller is None:
            raise TriggerError("DistributedTrigger requires a 'controller' parameter")
        self.controller = controller

    def eval(self, ctx: CallContext) -> bool:
        if self.controller is None:
            return False
        self.consultations += 1
        return self.controller.should_inject(ctx.node, ctx.function, ctx.args, ctx)

    def reset(self) -> None:
        self.consultations = 0


__all__ = ["DistributedTrigger", "InjectionController"]
