"""Dynamic-linker model with LD_PRELOAD-style resolution.

On Linux, LFI interposes on library calls by generating a shim library and
placing it ahead of the real libraries via ``LD_PRELOAD``; the dynamic
linker then resolves each imported symbol to the first provider that exports
it.  :class:`DynamicLinker` reproduces exactly that resolution order so the
fault-injection gate is wired in the same way a preloaded shim would be:

* *preloaded* providers are searched first (these are the LFI shims), then
* the regular libraries, in link order.

A provider is anything with a ``name`` attribute, an ``exports()`` method
returning the symbol names it defines, and a ``lookup(symbol)`` method
returning an opaque target (a Python callable for the simulated libc, or a
``(image, address)`` pair for code living in another synthetic binary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Protocol, Sequence


class SymbolProvider(Protocol):
    """Interface of anything the linker can resolve symbols against."""

    name: str

    def exports(self) -> Iterable[str]:  # pragma: no cover - protocol
        ...

    def lookup(self, symbol: str) -> Any:  # pragma: no cover - protocol
        ...


class UnresolvedSymbolError(Exception):
    """Raised when an import cannot be satisfied by any provider."""

    def __init__(self, symbol: str, searched: Sequence[str]) -> None:
        super().__init__(
            f"unresolved symbol {symbol!r} (searched: {', '.join(searched) or 'nothing'})"
        )
        self.symbol = symbol
        self.searched = list(searched)


@dataclass(frozen=True)
class ResolvedImport:
    """Result of resolving one imported symbol."""

    symbol: str
    provider: str
    target: Any
    preloaded: bool


class SimpleLibrary:
    """A dictionary-backed provider, handy for tests and native libraries."""

    def __init__(self, name: str, table: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self._table: Dict[str, Any] = dict(table or {})

    def exports(self) -> Iterable[str]:
        return tuple(self._table)

    def lookup(self, symbol: str) -> Any:
        return self._table[symbol]


class DynamicLinker:
    """Resolves imports against preloaded shims first, then real libraries."""

    def __init__(
        self,
        libraries: Optional[Sequence[SymbolProvider]] = None,
        preload: Optional[Sequence[SymbolProvider]] = None,
    ) -> None:
        self._preload: List[SymbolProvider] = list(preload or [])
        self._libraries: List[SymbolProvider] = list(libraries or [])
        self._cache: Dict[str, ResolvedImport] = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def preload_library(self, provider: SymbolProvider) -> None:
        """Add a shim provider at the front of the search order."""
        self._preload.insert(0, provider)
        self._cache.clear()

    def add_library(self, provider: SymbolProvider) -> None:
        self._libraries.append(provider)
        self._cache.clear()

    def remove_preloaded(self, name: str) -> None:
        self._preload = [p for p in self._preload if p.name != name]
        self._cache.clear()

    @property
    def search_order(self) -> List[str]:
        return [p.name for p in self._preload] + [p.name for p in self._libraries]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, symbol: str) -> ResolvedImport:
        cached = self._cache.get(symbol)
        if cached is not None:
            return cached
        for provider in self._preload:
            if symbol in set(provider.exports()):
                resolved = ResolvedImport(
                    symbol=symbol,
                    provider=provider.name,
                    target=provider.lookup(symbol),
                    preloaded=True,
                )
                self._cache[symbol] = resolved
                return resolved
        for provider in self._libraries:
            if symbol in set(provider.exports()):
                resolved = ResolvedImport(
                    symbol=symbol,
                    provider=provider.name,
                    target=provider.lookup(symbol),
                    preloaded=False,
                )
                self._cache[symbol] = resolved
                return resolved
        raise UnresolvedSymbolError(symbol, self.search_order)

    def try_resolve(self, symbol: str) -> Optional[ResolvedImport]:
        try:
            return self.resolve(symbol)
        except UnresolvedSymbolError:
            return None

    def resolve_all(self, symbols: Iterable[str]) -> Dict[str, ResolvedImport]:
        return {symbol: self.resolve(symbol) for symbol in symbols}


__all__ = [
    "DynamicLinker",
    "ResolvedImport",
    "SimpleLibrary",
    "SymbolProvider",
    "UnresolvedSymbolError",
]
