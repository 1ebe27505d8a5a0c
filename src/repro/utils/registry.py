"""One name → entry table for every plug-in point of the design chain.

Scenarios, allocators, analysis methods and network backends are all
chosen by name.  Each is a :class:`Registry`, so a name is registered,
looked up, listed and refused the same way everywhere: a duplicate
raises ``ValueError`` unless ``overwrite=True``, an unknown name raises
the table's own error type listing the sorted registered names, and
removing a name is idempotent.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, List, Type, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """A name → entry table.

    ``kind`` names an entry in messages (``unknown <kind> 'x'``),
    ``listing`` heads the registered names in the unknown-name message,
    and ``error`` is the exception type an unknown name raises.
    """

    def __init__(
        self, kind: str, listing: str, error: Type[Exception] = KeyError
    ) -> None:
        self.kind = kind
        self.listing = listing
        self.error = error
        self._entries: Dict[str, T] = {}

    def add(self, name: str, entry: T, overwrite: bool = False) -> T:
        """Register ``entry`` under ``name`` and return it."""
        if not overwrite and name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        self._entries[name] = entry
        return entry

    def remove(self, name: str) -> None:
        """Drop ``name``; a name that is not registered is ignored."""
        self._entries.pop(name, None)

    def get(self, name: str) -> T:
        """The entry registered as ``name``, or the table's error."""
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; {self.listing}: {self.names()}"
            ) from None

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def entries(self) -> List[T]:
        """All registered entries, sorted by name."""
        return [self._entries[name] for name in self.names()]

    def decorator(self, spec: Callable[..., T]) -> Callable[..., Callable]:
        """A registration decorator factory: ``register(name, **metadata)``
        stores ``spec(name, func, **metadata)`` and returns ``func``."""

        def register(name: str, *, overwrite: bool = False, **metadata: Any):
            def decorate(func: Callable) -> Callable:
                self.add(name, spec(name, func, **metadata), overwrite)
                return func

            return decorate

        return register


__all__ = ["Registry"]
