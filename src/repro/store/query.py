"""The document store's query language: exactly what the system sends.

The paper keeps datasets and CAP results in MongoDB; :mod:`repro.store`
stands in for it and accepts only the slice of Mongo's query language the
system's own callers use, so every accepted form has a caller:

* equality on a field, with dotted paths (``"payload.dataset"``), where a
  missing field equals ``None`` (the job registry compares a lease that may
  be absent against ``None``);
* membership ``{"$in": [...]}`` (job states);
* ranges ``$gt $gte $lt $lte`` (stream cursors over ``seq`` and
  ``epoch``), which a collection plans on a sorted index.

Equality is plain ``==``: a scalar does not match an array holding it,
because every field the system queries holds a scalar (ids, names, states,
sequence numbers).  Anything else — another operator, a top-level ``$``
key, a ``$in`` without a list — raises :class:`QueryError` when the query
is compiled, whatever the order of its terms.

A query is a plain dict, e.g.::

    {"dataset": "santander", "seq": {"$gt": 10}}

:func:`compile_query` validates a query once and returns a document
predicate; :func:`matches` evaluates one document.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "QueryError",
    "MISSING",
    "get_path",
    "is_operator_spec",
    "matches",
    "compile_query",
]


class _Missing:
    """Sentinel for absent fields; shared by the query engine and indexes."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<missing>"


MISSING = _Missing()

_RANGE = {"$gt": operator.gt, "$gte": operator.ge, "$lt": operator.lt, "$lte": operator.le}

_FieldTest = Callable[[Any], bool]


class QueryError(ValueError):
    """Raised for malformed queries (unknown operator, bad operand)."""


def get_path(document: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted field path; returns the ``MISSING`` sentinel if absent."""
    current: Any = document
    for part in path.split("."):
        if isinstance(current, Mapping) and part in current:
            current = current[part]
        else:
            return MISSING
    return current


def is_operator_spec(condition: Any) -> bool:
    """Whether a field's condition is an operator object, not a value."""
    return isinstance(condition, Mapping) and any(
        isinstance(k, str) and k.startswith("$") for k in condition
    )


def _in(operand: Sequence[Any], value: Any) -> bool:
    return value is not MISSING and value in operand


def _in_range(compare: Callable[[Any, Any], bool], operand: Any, value: Any) -> bool:
    if value is MISSING:
        return False
    try:
        return compare(value, operand)
    except TypeError:
        return False


def _field_test(condition: Any) -> _FieldTest:
    """Validate one field's condition and return the test its value must pass."""
    if not is_operator_spec(condition):
        return lambda value: condition is None if value is MISSING else value == condition
    tests: list[_FieldTest] = []
    for op, operand in condition.items():
        if op == "$in":
            if not isinstance(operand, Sequence) or isinstance(operand, (str, bytes)):
                raise QueryError("$in requires a list operand")
            tests.append(partial(_in, operand))
        elif op in _RANGE:
            tests.append(partial(_in_range, _RANGE[op], operand))
        else:
            raise QueryError(f"unknown operator {op!r}")
    return lambda value: all(test(value) for test in tests)


def compile_query(query: Mapping[str, Any]) -> Callable[[Mapping[str, Any]], bool]:
    """Validate every term of a query and return a document predicate."""
    if not isinstance(query, Mapping):
        raise QueryError(f"query must be a mapping, got {type(query).__name__}")
    terms: list[tuple[str, _FieldTest]] = []
    for key, condition in query.items():
        if not isinstance(key, str) or key.startswith("$"):
            raise QueryError(f"top-level query keys must be field names, got {key!r}")
        terms.append((key, _field_test(condition)))
    return lambda document: all(test(get_path(document, key)) for key, test in terms)


def matches(document: Mapping[str, Any], query: Mapping[str, Any]) -> bool:
    """Whether a document satisfies a query."""
    return compile_query(query)(document)
