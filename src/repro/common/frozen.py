"""A read-only mapping for values that are shared instead of copied."""

from __future__ import annotations

from typing import Any, NoReturn


class FrozenMap(dict):
    """A read-only ``dict`` that pickles (``types.MappingProxyType`` does
    not).  Run results use it for their stats and call counts, coverage
    counts for their sparse entries.

    Every mutating method raises :class:`TypeError`; reads, iteration,
    equality, ``dict(...)``, ``copy()`` (a plain, mutable dict) and JSON
    encoding are the built-in dict's.
    """

    __slots__ = ()

    def _read_only(self, *_args: Any, **_kwargs: Any) -> NoReturn:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # The default reduction of a dict subclass refills the new object
        # item by item, which the read-only __setitem__ refuses.
        return (FrozenMap, (dict(self),))

    def __repr__(self) -> str:
        return f"FrozenMap({dict.__repr__(self)})"


__all__ = ["FrozenMap"]
