"""The campaign plan: one fault space, prepared once per image.

Every role of an exploration needs the same facts about a fault space
before it runs anything: the points in priority order, a map from point
key to position, each point's injection scenario, the scenario's group
key parts (:class:`~repro.core.controller.prefix.ScenarioKeyParts`) and,
per memo context, its memo key.  None of them depends on execution
results, so :func:`campaign_plan` derives them once and serves one frozen
:class:`CampaignPlan` from the artifact cache
(:func:`~repro.core.profiler.cache.cached_campaign_plan`) to every reader:
serial :meth:`~repro.core.exploration.engine.ExplorationEngine.explore`,
its :class:`~repro.core.exploration.engine.RoundPlanner`, pooled batch
planning (entries carry the plan's keys into pool children), the fabric
coordinator's lease planning and the worker's shards.

The cache key is the plan's content: the image's ``content_digest()``,
the libc spec fingerprint, ``once``, and the ordered points — their keys
plus the two fields :func:`~repro.core.exploration.space.priority_order`
and :meth:`~repro.core.exploration.space.FaultPoint.scenario` read besides
the key, category and fault index.  An identical recompiled image hits;
a change of ``once``, of the point set or order, or of a libc spec misses.
A target without an image (the Python-level servers) gets a plan built
afresh per call.

Everything a plan holds is shared by every campaign and thread of the
process: nothing may mutate its points (frozen values), its scenarios or
its key parts.  :meth:`FaultPoint.scenario` stays a fresh build for any
caller that wants its own scenario.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.core.controller import prefix
from repro.core.exploration.space import FaultPoint, priority_order
from repro.core.profiler.cache import cached_campaign_plan, libc_spec_fingerprint
from repro.isa.binary import BinaryImage

#: Memo contexts whose keys one plan keeps (a pass of the benchmark uses
#: nine: one per workload), least recently used dropped first.
CONTEXTS_PER_PLAN = 16

_KEY = attrgetter("key")
_CATEGORY = attrgetter("category")
_FAULT_INDEX = attrgetter("fault_index")


class CampaignPlan(Mapping):
    """One fault space's schedule-ready facts; a read-only map from point
    key to point.

    ``points`` are in priority order; ``index_of`` maps a point key to its
    position there, and ``scenarios`` and ``key_parts`` hold, per
    position, the point's scenario (built once with ``once``) and that
    scenario's key parts (``None``: its run is not deterministic).
    :meth:`memo_keys` derives each point's memo key once per memo context.
    """

    __slots__ = (
        "once", "points", "index_of", "scenarios", "key_parts",
        "_members", "_memo_keys", "_lock", "__weakref__",
    )

    def __init__(self, points: Sequence[FaultPoint], once: bool = True) -> None:
        ordered = tuple(priority_order(points))
        scenarios = tuple(point.scenario(once=once) for point in ordered)
        key_parts = []
        members = []
        bases: dict = {}
        for scenario in scenarios:
            parts, member = prefix.scenario_keys(scenario)
            if parts is not None:
                # One string per group base: the plan, and every batch that
                # pickles its entries, holds each base once.
                parts = parts._replace(base=bases.setdefault(parts.base, parts.base))
            key_parts.append(parts)
            members.append(member)
        setter = object.__setattr__
        setter(self, "once", bool(once))
        setter(self, "points", ordered)
        setter(self, "index_of", {point.key: position for position, point in enumerate(ordered)})
        setter(self, "scenarios", scenarios)
        setter(self, "key_parts", tuple(key_parts))
        setter(self, "_members", tuple(members))
        setter(self, "_memo_keys", OrderedDict())
        setter(self, "_lock", threading.Lock())

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"a CampaignPlan is frozen; cannot set {name!r}")

    # -- the point-key map ------------------------------------------------
    def __getitem__(self, key: str) -> FaultPoint:
        return self.points[self.index_of[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index_of)

    def __len__(self) -> int:
        return len(self.points)

    # -- keys -------------------------------------------------------------
    def group_key(self, point: FaultPoint) -> Optional[str]:
        """*point*'s prefix-group base key (``None``: it runs alone)."""
        parts = self.key_parts[self.index_of[point.key]]
        return parts.base if parts is not None and parts.shareable else None

    def memo_keys(self, context: bytes) -> Tuple[Optional[bytes], ...]:
        """Every point's memo key under *context*, by position (``None``:
        that point's run is not memoized), derived on first use."""
        with self._lock:
            keys = self._memo_keys.get(context)
            if keys is not None:
                self._memo_keys.move_to_end(context)
                return keys
            keys = prefix.memo_keys_of(context, self._members)
            self._memo_keys[context] = keys
            while len(self._memo_keys) > CONTEXTS_PER_PLAN:
                self._memo_keys.popitem(last=False)
            return keys

    def entry(
        self,
        index: int,
        point: FaultPoint,
        seed: Optional[int],
        memo_keys: Optional[Tuple[Optional[bytes], ...]],
    ) -> prefix.Entry:
        """The keyed scheduling entry running *point* at schedule *index*."""
        position = self.index_of[point.key]
        return prefix.Entry(
            index,
            self.scenarios[position],
            seed,
            self.key_parts[position],
            None if memo_keys is None else memo_keys[position],
        )


def _image_of(target: Any) -> Optional[BinaryImage]:
    getter = getattr(target, "binary", None)
    image = getter() if callable(getter) else None
    return image if isinstance(image, BinaryImage) else None


def campaign_plan(target: Any, points: Sequence[FaultPoint], once: bool = True) -> CampaignPlan:
    """The plan of *points* on *target*'s image, from the artifact cache.

    Built afresh when the target has no image to hold it.
    """
    points = points if isinstance(points, (list, tuple)) else list(points)
    image = _image_of(target)
    if image is None:
        return CampaignPlan(points, once)
    key = (
        image.content_digest(),
        libc_spec_fingerprint(),
        bool(once),
        tuple(map(_KEY, points)),
        tuple(map(_CATEGORY, points)),
        tuple(map(_FAULT_INDEX, points)),
    )
    return cached_campaign_plan(image, key, lambda: CampaignPlan(points, once))


__all__ = ["CONTEXTS_PER_PLAN", "CampaignPlan", "campaign_plan"]
