"""Predicates: attribute-operator-value triples.

A predicate is the atomic filter unit of the subscription language
(paper §3.1).  Predicates are *structural* values — two predicates with
the same attribute, operator and operand are the same predicate and are
deduplicated by the :class:`~repro.predicates.registry.PredicateRegistry`,
which also assigns the integer identifiers ``id(p)`` the engines and the
byte-level subscription encoding work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..events.event import Event
from .operators import Operator


class InvalidPredicateError(ValueError):
    """Raised when a predicate triple is malformed."""


def _normalize_operand(operator: Operator, value: Any) -> Any:
    """Validate and canonicalize a predicate operand for ``operator``.

    ``BETWEEN`` operands become ``(low, high)`` tuples, ``IN`` operands
    become frozensets; scalars pass through unchanged.
    """
    if operator is Operator.EXISTS:
        if value is not None:
            raise InvalidPredicateError("EXISTS predicates take no operand")
        return None
    if operator is Operator.BETWEEN:
        if not isinstance(value, (tuple, list)) or len(value) != 2:
            raise InvalidPredicateError(
                f"BETWEEN operand must be a (low, high) pair, got {value!r}"
            )
        low, high = value
        for bound in (low, high):
            if isinstance(bound, bool) or not isinstance(bound, (int, float, str)):
                raise InvalidPredicateError(
                    f"BETWEEN bounds must be numbers or strings, got {bound!r}"
                )
            if bound != bound:
                raise InvalidPredicateError("BETWEEN bounds must not be NaN")
        if isinstance(low, str) != isinstance(high, str):
            raise InvalidPredicateError("BETWEEN bounds must share a domain")
        if low > high:
            raise InvalidPredicateError(
                f"BETWEEN bounds out of order: {low!r} > {high!r}"
            )
        return (low, high)
    if operator is Operator.IN:
        if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
            raise InvalidPredicateError(
                f"IN operand must be an iterable of alternatives, got {value!r}"
            )
        alternatives = frozenset(value)
        if not alternatives:
            raise InvalidPredicateError("IN operand must be non-empty")
        return alternatives
    if operator.is_string_only and not isinstance(value, str):
        raise InvalidPredicateError(
            f"{operator.name} operand must be a string, got {value!r}"
        )
    if operator.is_numeric_range and isinstance(value, bool):
        raise InvalidPredicateError(
            f"{operator.name} operand must not be a bool"
        )
    if operator.is_numeric_range and value != value:
        raise InvalidPredicateError(f"{operator.name} operand must not be NaN")
    if value is None:
        raise InvalidPredicateError("predicate operand must not be None")
    return value


@dataclass(frozen=True, eq=False)
class Predicate:
    """An attribute-operator-value filter triple.

    Equality and hash are structural, except that a bool operand never
    equals the number it compares equal to in Python (``True == 1``):
    ``a = true`` and ``a = 1`` fulfil different events, so the registry
    must give them different identifiers.

    Examples
    --------
    >>> p = Predicate("price", Operator.GT, 10)
    >>> p.matches(Event({"price": 12}))
    True
    >>> p.matches(Event({"price": 9}))
    False
    >>> p.matches(Event({"volume": 100}))   # attribute absent
    False
    """

    attribute: str
    operator: Operator
    value: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.attribute, str) or not self.attribute:
            raise InvalidPredicateError(
                f"attribute must be a non-empty string, got {self.attribute!r}"
            )
        object.__setattr__(
            self, "value", _normalize_operand(self.operator, self.value)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        value, other_value = self.value, other.value  # type: ignore[attr-defined]
        return (
            self.attribute == other.attribute  # type: ignore[attr-defined]
            and self.operator is other.operator  # type: ignore[attr-defined]
            and value == other_value
            and (value.__class__ is bool) == (other_value.__class__ is bool)
        )

    def __hash__(self) -> int:
        value = self.value
        return hash((self.attribute, self.operator, value, value.__class__ is bool))

    def matches(self, event: Event) -> bool:
        """Evaluate this predicate against ``event``.

        A predicate on an attribute the event does not carry is *not
        fulfilled* — including ``NE`` predicates, which follow the usual
        content-based semantics of constraining a present attribute.
        """
        if self.attribute not in event:
            return False
        return self.operator.evaluate(event[self.attribute], self.value)

    def negated(self) -> "Predicate":
        """Return the complementary predicate, when one exists.

        Used by the DNF transformation to push ``NOT`` into the leaves
        (e.g. ``NOT (a > 5)`` becomes ``a <= 5``).

        Raises
        ------
        ValueError
            For operators without a single-predicate complement
            (``BETWEEN``, ``IN``, string operators, ``EXISTS``) — callers
            must keep an explicit NOT node instead.
        """
        complements = {
            Operator.EQ: Operator.NE,
            Operator.NE: Operator.EQ,
            Operator.LT: Operator.GE,
            Operator.GE: Operator.LT,
            Operator.GT: Operator.LE,
            Operator.LE: Operator.GT,
        }
        try:
            flipped = complements[self.operator]
        except KeyError:
            raise ValueError(
                f"operator {self.operator.name} has no single-predicate complement"
            ) from None
        return Predicate(self.attribute, flipped, self.value)

    def __str__(self) -> str:
        if self.operator is Operator.EXISTS:
            return f"exists({self.attribute})"
        if self.operator is Operator.BETWEEN:
            low, high = self.value
            return f"{self.attribute} between [{low!r}, {high!r}]"
        if self.operator is Operator.IN:
            inner = ", ".join(repr(v) for v in sorted(self.value, key=repr))
            return f"{self.attribute} in {{{inner}}}"
        return f"{self.attribute} {self.operator.value} {self.value!r}"
