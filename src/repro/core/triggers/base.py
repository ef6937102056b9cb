"""The Trigger interface (§3.1).

The C++ interface in the paper is::

    class Trigger {
        virtual void Init(xmlNodePtr initData) {}
        virtual bool Eval(const string& libFuncName, ...) = 0;
    }

The Python analog replaces the variadic ``Eval`` with a single
:class:`~repro.core.injection.context.CallContext` argument carrying the
function name, the original call arguments and lazy access to the stack and
program state.  ``init`` receives the parameters from the scenario's
``<args>`` element, already converted to plain Python values.

Triggers may keep state across calls (the paper's mutex-tracking example
does), so the runtime also calls :meth:`Trigger.reset` between test runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Type

from repro.core.injection.context import CallContext


class TriggerError(Exception):
    """Raised for malformed trigger parameters or unknown trigger classes."""


class Trigger(ABC):
    """Base class for all triggers."""

    #: Name under which the trigger is registered (set by ``declare_trigger``).
    trigger_name: str = ""

    #: True for triggers whose ``init`` accepts a ``seed`` parameter.  When a
    #: campaign threads a per-run seed (``TestCampaign.run(seed=...)``), the
    #: injection runtime derives a seed for each such trigger that was
    #: declared *without* an explicit one, making otherwise-unseeded
    #: stochastic triggers reproducible and schedule-independent.
    consumes_run_seed: bool = False

    def init(self, params: Optional[Dict[str, Any]] = None) -> None:
        """Receive scenario parameters before the first ``eval`` call.

        The default implementation accepts no parameters; triggers that are
        parametrizable override this.  Called lazily, right before the first
        evaluation (§4.3).
        """

    @abstractmethod
    def eval(self, ctx: CallContext) -> bool:
        """Return True when a fault should be injected for this call."""

    def reset(self) -> None:
        """Clear accumulated state between test runs (optional)."""

    # -- bookkeeping helpers -------------------------------------------
    def describe(self) -> str:
        return self.trigger_name or type(self).__name__


class ScalarStateTrigger(Trigger):
    """A trigger whose every attribute holds an immutable value: counters,
    thresholds, frozen frame specs.

    A deep copy of one shares nothing mutable once it has its own attribute
    dict, so that is all :meth:`__deepcopy__` copies.  The prefix scheduler
    snapshots its probe's trigger instances before every call the probe
    handles (:func:`repro.vm.snapshot.capture_gate_state`), which this
    keeps cheap; a trigger with mutable state (a random generator, a set of
    held mutexes) derives from :class:`Trigger` and is deep-copied in full.
    """

    def __deepcopy__(self, memo: Dict[int, Any]) -> "ScalarStateTrigger":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone


def declare_trigger(name: Optional[str] = None):
    """Class decorator mirroring the paper's ``DECLARE_TRIGGER`` macro.

    Registers the class in the default registry under *name* (or the class
    name) so scenario files can reference it directly::

        @declare_trigger("ReadPipe")
        class ReadPipeTrigger(Trigger):
            ...
    """

    def decorate(cls: Type[Trigger]) -> Type[Trigger]:
        from repro.core.triggers.registry import default_registry

        trigger_name = name or cls.__name__
        cls.trigger_name = trigger_name
        default_registry().register(trigger_name, cls)
        return cls

    return decorate


__all__ = ["ScalarStateTrigger", "Trigger", "TriggerError", "declare_trigger"]
