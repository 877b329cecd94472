"""Hash-based indexes for point predicates.

"Point predicates utilise hash tables" (paper §3.2).  Four flavours:

* :class:`EqualityIndex` — ``attr = v`` predicates;
* :class:`NotEqualIndex` — ``attr != v`` predicates (matched by
  complement: all NE predicates minus those whose operand equals the
  event value);
* :class:`MembershipIndex` — ``attr in {v1, ...}`` predicates, indexed
  once per alternative;
* :class:`ExistsIndex` — ``exists(attr)`` predicates, fulfilled by any
  event carrying the attribute.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from .base import PredicateIndex


def _typed_key(value: Any) -> Any:
    """Hash key keeping bools apart from the numbers they equal.

    ``True == 1`` and ``hash(True) == hash(1)``, but ``=`` and ``!=``
    never relate a bool to a number; ``1`` and ``1.0`` stay one key.
    """
    return (bool, value) if value.__class__ is bool else value


class EqualityIndex(PredicateIndex):
    """operand value → ids of ``= value`` predicates."""

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}
        self._entries = 0

    def insert(self, operand: Any, predicate_id: int) -> None:
        bucket = self._buckets.setdefault(_typed_key(operand), set())
        if predicate_id not in bucket:
            bucket.add(predicate_id)
            self._entries += 1

    def remove(self, operand: Any, predicate_id: int) -> bool:
        key = _typed_key(operand)
        bucket = self._buckets.get(key)
        if bucket is None or predicate_id not in bucket:
            return False
        bucket.discard(predicate_id)
        self._entries -= 1
        if not bucket:
            del self._buckets[key]
        return True

    def match(self, value: Any) -> Iterable[int]:
        return self._buckets.get(_typed_key(value), ())

    def __len__(self) -> int:
        return self._entries

    def operands(self) -> Iterator[Any]:
        """Distinct indexed operand values."""
        for key in self._buckets:
            yield key[1] if key.__class__ is tuple else key


class NotEqualIndex(PredicateIndex):
    """Ids of ``!= value`` predicates, matched by complement.

    An event value ``x`` fulfils every NE predicate except those whose
    operand equals ``x`` — one hash lookup plus a set difference.  Like
    ``=``, ``!=`` never relates a bool to a number, so a bool value
    draws only on bool operands and any other value only on non-bool
    ones.
    """

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}
        #: is-bool operand -> ids of the NE predicates with such operands
        self._pools: dict[bool, set[int]] = {False: set(), True: set()}

    def insert(self, operand: Any, predicate_id: int) -> None:
        pool = self._pools[operand.__class__ is bool]
        if predicate_id in pool:
            return
        self._buckets.setdefault(_typed_key(operand), set()).add(predicate_id)
        pool.add(predicate_id)

    def remove(self, operand: Any, predicate_id: int) -> bool:
        key = _typed_key(operand)
        bucket = self._buckets.get(key)
        if bucket is None or predicate_id not in bucket:
            return False
        bucket.discard(predicate_id)
        self._pools[operand.__class__ is bool].discard(predicate_id)
        if not bucket:
            del self._buckets[key]
        return True

    def match(self, value: Any) -> Iterable[int]:
        pool = self._pools[value.__class__ is bool]
        excluded = self._buckets.get(_typed_key(value))
        if not excluded:
            return set(pool)
        return pool - excluded

    def __len__(self) -> int:
        return len(self._pools[False]) + len(self._pools[True])


class MembershipIndex(PredicateIndex):
    """``attr in {alternatives}`` predicates, indexed per alternative.

    ``insert`` takes the *full* frozenset operand and fans out.
    """

    def __init__(self) -> None:
        self._buckets: dict[Any, set[int]] = {}
        self._ids: set[int] = set()

    def insert(self, operand: Any, predicate_id: int) -> None:
        if predicate_id in self._ids:
            return
        for alternative in operand:
            self._buckets.setdefault(alternative, set()).add(predicate_id)
        self._ids.add(predicate_id)

    def remove(self, operand: Any, predicate_id: int) -> bool:
        if predicate_id not in self._ids:
            return False
        for alternative in operand:
            bucket = self._buckets.get(alternative)
            if bucket is not None:
                bucket.discard(predicate_id)
                if not bucket:
                    del self._buckets[alternative]
        self._ids.discard(predicate_id)
        return True

    def match(self, value: Any) -> Iterable[int]:
        return self._buckets.get(value, ())

    def __len__(self) -> int:
        return len(self._ids)


class ExistsIndex(PredicateIndex):
    """``exists(attr)`` predicates — fulfilled by any value."""

    def __init__(self) -> None:
        self._ids: set[int] = set()

    def insert(self, operand: Any, predicate_id: int) -> None:
        self._ids.add(predicate_id)

    def remove(self, operand: Any, predicate_id: int) -> bool:
        if predicate_id not in self._ids:
            return False
        self._ids.discard(predicate_id)
        return True

    def match(self, value: Any) -> Iterable[int]:
        return set(self._ids)

    def __len__(self) -> int:
        return len(self._ids)
