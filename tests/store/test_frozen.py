"""``freeze``/``thaw`` fast paths keep the exact output of the plain walk.

``freeze`` and ``thaw`` test ``type(value) is dict`` (and the C-level
``dict`` check) before the ``typing.Mapping`` ABC check, which is far
slower.  The reference below is the walk without those fast paths; every
value must freeze and thaw to the same container types, all the way down,
and to the same ``json.dumps`` bytes.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.frozen import FrozenDict, FrozenList, _SCALARS, freeze, thaw


def reference_freeze(value: Any) -> Any:
    kind = type(value)
    if kind in _SCALARS or kind is FrozenDict or kind is FrozenList:
        return value
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return FrozenList(value)
        return FrozenList([reference_freeze(item) for item in value])
    if isinstance(value, Mapping):
        if _SCALARS.issuperset(map(type, value.values())):
            return FrozenDict(value)
        return FrozenDict({key: reference_freeze(item) for key, item in value.items()})
    if isinstance(value, tuple) and not _SCALARS.issuperset(map(type, value)):
        return tuple(reference_freeze(item) for item in value)
    return value


def reference_thaw(value: Any) -> Any:
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [reference_thaw(item) for item in value]
    if isinstance(value, Mapping):
        return {key: reference_thaw(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(reference_thaw(item) for item in value)
    return value


def shape(value: Any) -> Any:
    """The container type of every node, in order."""
    if isinstance(value, Mapping):
        return (type(value), [(key, shape(item)) for key, item in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(item) for item in value])
    return type(value)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
)


def containers(children):
    keys = st.text(max_size=3)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=3),
        st.dictionaries(keys, children, max_size=3).map(OrderedDict),
        st.dictionaries(keys, children, max_size=3).map(MappingProxyType),
        st.dictionaries(keys, children, max_size=3).map(freeze),
        st.lists(children, max_size=3).map(freeze),
    )


values = st.recursive(scalars, containers, max_leaves=12)


@given(values)
@settings(max_examples=300)
def test_freeze_matches_the_plain_walk(value):
    frozen, expected = freeze(value), reference_freeze(value)
    assert shape(frozen) == shape(expected)
    assert frozen == expected
    assert json.dumps(frozen) == json.dumps(expected)
    try:
        original = json.dumps(value)
    except TypeError:  # a MappingProxyType is not JSON until frozen
        return
    assert json.dumps(frozen) == original


@given(values)
@settings(max_examples=300)
def test_thaw_matches_the_plain_walk(value):
    for tree in (value, freeze(value)):
        thawed, expected = thaw(tree), reference_thaw(tree)
        assert shape(thawed) == shape(expected)
        assert thawed == expected


def test_named_cases():
    frozen_child = freeze({"a": [1, 2]})
    document = {
        "nested": {"list": [1, {"x": None}], "tuple": ({"t": 1}, 2)},
        "shared": frozen_child,
        "proxy": MappingProxyType({"p": [1]}),
        "ordered": OrderedDict(b=1, a={"c": 2}),
    }
    frozen = freeze(document)
    assert shape(frozen) == shape(reference_freeze(document))
    assert frozen["shared"] is frozen_child  # frozen subtrees are shared
    assert type(frozen["nested"]["tuple"]) is tuple
    assert type(frozen["nested"]["tuple"][0]) is FrozenDict
    assert type(frozen["proxy"]) is FrozenDict
    assert list(frozen["ordered"]) == ["b", "a"]
    plain = {key: value for key, value in document.items() if key != "proxy"}
    assert json.dumps(freeze(plain)) == json.dumps(plain)
    assert shape(thaw(frozen)) == shape(reference_thaw(frozen))
