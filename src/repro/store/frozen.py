"""Read-only JSON documents: what the store keeps and what reads return.

A :class:`Collection` freezes every document once, when it is written, and
then hands the stored object itself to every reader.  :class:`FrozenDict`
and :class:`FrozenList` are ``dict``/``list`` subclasses, so lookups,
iteration, equality, ``isinstance`` checks and ``json.dumps`` behave exactly
as for the plain containers (a frozen document encodes to the same bytes);
only their mutators raise :class:`TypeError`.  Deep copies, pickling and
:func:`thaw` all yield plain, mutable containers.

Because a frozen value can never change, freezing shares any sub-tree that
is already frozen: a copy-on-write update re-freezes only the fields it
replaces.
"""

from __future__ import annotations

from typing import Any, Mapping, NoReturn

__all__ = ["FrozenDict", "FrozenList", "freeze", "thaw"]

#: Immutable leaf types a document holds; containers made only of these
#: freeze (and thaw) with one C-level copy instead of a per-item walk.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _read_only(self: object, *args: object, **kwargs: object) -> NoReturn:
    raise TypeError(
        f"{type(self).__name__} is a read-only stored document; "
        f"use repro.store.thaw() for a mutable copy"
    )


class FrozenDict(dict):
    """A ``dict`` whose mutators raise :class:`TypeError`."""

    __slots__ = ()

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __deepcopy__(self, memo: dict[int, Any]) -> dict[str, Any]:
        return thaw(self)

    def __reduce__(self) -> tuple[type, tuple[dict[str, Any]]]:
        return dict, (dict(self),)


class FrozenList(list):
    """A ``list`` whose mutators raise :class:`TypeError`."""

    __slots__ = ()

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __deepcopy__(self, memo: dict[int, Any]) -> list[Any]:
        return thaw(self)

    def __reduce__(self) -> tuple[type, tuple[list[Any]]]:
        return list, (list(self),)


def freeze(value: Any) -> Any:
    """``value`` with every dict and list replaced by a frozen copy.

    Already-frozen containers and scalars are returned as they are; tuples
    keep their type.  Values of any other type are not JSON and pass
    through unchanged.
    """
    kind = type(value)
    if kind in _SCALARS or kind is FrozenDict or kind is FrozenList:
        return value
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return FrozenList(value)
        return FrozenList([freeze(item) for item in value])
    if isinstance(value, Mapping):
        if _SCALARS.issuperset(map(type, value.values())):
            return FrozenDict(value)
        return FrozenDict({key: freeze(item) for key, item in value.items()})
    if isinstance(value, tuple) and not _SCALARS.issuperset(map(type, value)):
        return tuple(freeze(item) for item in value)
    return value


def thaw(value: Any) -> Any:
    """A mutable deep copy of ``value``: plain ``dict``/``list`` all the way
    down (what callers that edit a read document need)."""
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [thaw(item) for item in value]
    if isinstance(value, Mapping):
        return {key: thaw(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(thaw(item) for item in value)
    return value

