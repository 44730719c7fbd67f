"""One named-item registry behind every ``register_*`` / ``get_*`` pair.

Engines, execution backends, compute kernels, lint rules and scenarios are
all "a name maps to a thing, a duplicate name is a bug, an unknown name says
what *is* registered".  :class:`Registry` is that rule, once; each domain
module holds one instance and keeps only what is genuinely its own (spec
grammar, degradation policy, lazy built-in import, per-call instantiation).

The store is a plain dict: registration happens at import time and lookups
only read, so there is no lock for a forked worker to inherit (RPL003).
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """``name -> item``; ``kind`` names one item in the error messages.

    ``plural`` introduces the registered names in the unknown-name error
    (default ``kind + "s"``); ``hint`` is an optional parenthetical appended
    to it, saying where to look for details.
    """

    def __init__(self, kind: str, *, plural: Optional[str] = None,
                 hint: str = "") -> None:
        self._kind = kind
        self._plural = plural if plural is not None else f"{kind}s"
        self._hint = f" {hint}" if hint else ""
        self._items: Dict[str, T] = {}

    def add(self, name: str, item: T) -> T:
        """Register ``item`` under ``name``; returns it for chaining."""
        if name in self._items:
            raise ValueError(f"{self._kind} {name!r} is already registered")
        self._items[name] = item
        return item

    def get(self, name: str) -> T:
        """The item registered under ``name``; unknown (or unhashable)
        names raise a :class:`ValueError` listing what is registered."""
        try:
            return self._items[name]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown {self._kind} {name!r}; registered {self._plural}: "
                f"{', '.join(self.names())}{self._hint}") from None

    def names(self) -> List[str]:
        """Sorted names of every registered item."""
        return sorted(self._items)


__all__ = ["Registry"]
