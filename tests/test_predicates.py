"""Unit tests for predicates and the registry (repro.predicates)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events import Event
from repro.predicates import (
    InvalidPredicateError,
    Operator,
    Predicate,
    PredicateRegistry,
    UnknownPredicateError,
)


class TestPredicateValidation:
    def test_simple_comparison_predicate(self):
        p = Predicate("price", Operator.GT, 10)
        assert p.attribute == "price"
        assert p.value == 10

    def test_empty_attribute_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("", Operator.EQ, 1)

    def test_non_string_attribute_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(5, Operator.EQ, 1)

    def test_none_operand_rejected_for_comparisons(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.EQ, None)

    def test_between_normalizes_to_tuple(self):
        p = Predicate("a", Operator.BETWEEN, [1, 5])
        assert p.value == (1, 5)

    def test_between_rejects_reversed_bounds(self):
        with pytest.raises(InvalidPredicateError, match="out of order"):
            Predicate("a", Operator.BETWEEN, (5, 1))

    def test_between_rejects_mixed_domains(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.BETWEEN, (1, "z"))

    def test_between_rejects_non_pair(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.BETWEEN, (1, 2, 3))
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.BETWEEN, 5)

    def test_between_rejects_bool_bounds(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.BETWEEN, (True, False))

    def test_in_normalizes_to_frozenset(self):
        p = Predicate("a", Operator.IN, [1, 2, 2])
        assert p.value == frozenset({1, 2})

    def test_in_rejects_empty(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.IN, [])

    def test_in_rejects_bare_string(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.IN, "abc")

    def test_string_operator_requires_string_operand(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.PREFIX, 5)

    def test_range_operator_rejects_bool_operand(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.GT, True)

    @pytest.mark.parametrize(
        "operator, operand",
        [
            (Operator.LT, float("nan")),
            (Operator.LE, float("nan")),
            (Operator.GT, float("nan")),
            (Operator.GE, float("nan")),
            (Operator.BETWEEN, (float("nan"), 3)),
            (Operator.BETWEEN, (1, float("nan"))),
        ],
    )
    def test_order_operators_reject_nan_operand(self, operator, operand):
        """A NaN bound orders against nothing and would break the B+
        trees' sorted leaves."""
        with pytest.raises(InvalidPredicateError):
            Predicate("a", operator, operand)

    def test_exists_takes_no_operand(self):
        p = Predicate("a", Operator.EXISTS)
        assert p.value is None
        with pytest.raises(InvalidPredicateError):
            Predicate("a", Operator.EXISTS, 5)


class TestPredicateMatching:
    def test_matches_fulfilling_event(self):
        assert Predicate("price", Operator.GT, 10).matches(Event({"price": 11}))

    def test_does_not_match_unfulfilling_event(self):
        assert not Predicate("price", Operator.GT, 10).matches(
            Event({"price": 10})
        )

    def test_absent_attribute_never_matches(self):
        p = Predicate("price", Operator.NE, 10)
        assert not p.matches(Event({"volume": 5}))

    def test_exists_matches_any_present_value(self):
        p = Predicate("price", Operator.EXISTS)
        assert p.matches(Event({"price": 0}))
        assert not p.matches(Event({"volume": 1}))

    def test_between_matching(self):
        p = Predicate("x", Operator.BETWEEN, (1, 5))
        assert p.matches(Event({"x": 3}))
        assert not p.matches(Event({"x": 6}))

    def test_string_operator_matching(self):
        p = Predicate("sym", Operator.PREFIX, "AC")
        assert p.matches(Event({"sym": "ACME"}))
        assert not p.matches(Event({"sym": "ME"}))


class TestPredicateStructuralEquality:
    def test_equal_triples_are_equal(self):
        assert Predicate("a", Operator.EQ, 1) == Predicate("a", Operator.EQ, 1)

    def test_different_operand_differs(self):
        assert Predicate("a", Operator.EQ, 1) != Predicate("a", Operator.EQ, 2)

    def test_hashable_and_deduplicable(self):
        s = {Predicate("a", Operator.EQ, 1), Predicate("a", Operator.EQ, 1)}
        assert len(s) == 1

    @pytest.mark.parametrize("operator", [Operator.EQ, Operator.NE])
    def test_bool_operand_differs_from_equal_number(self, operator):
        """``True == 1`` in Python, but ``a = true`` and ``a = 1`` fulfil
        different events; ``1`` and ``1.0`` stay one predicate."""
        true = Predicate("a", operator, True)
        one = Predicate("a", operator, 1)
        assert true != one
        assert len({true, one, Predicate("a", operator, 1.0)}) == 2
        registry = PredicateRegistry()
        assert registry.register(true) != registry.register(one)

    def test_str_rendering(self):
        assert str(Predicate("a", Operator.LE, 5)) == "a <= 5"
        assert "between" in str(Predicate("a", Operator.BETWEEN, (1, 2)))
        assert "in" in str(Predicate("a", Operator.IN, [1]))
        assert "exists" in str(Predicate("a", Operator.EXISTS))


class TestPredicateNegation:
    @pytest.mark.parametrize(
        "operator, flipped",
        [
            (Operator.EQ, Operator.NE),
            (Operator.NE, Operator.EQ),
            (Operator.LT, Operator.GE),
            (Operator.GE, Operator.LT),
            (Operator.GT, Operator.LE),
            (Operator.LE, Operator.GT),
        ],
    )
    def test_negation_flips_operator(self, operator, flipped):
        p = Predicate("a", operator, 5)
        assert p.negated().operator is flipped

    def test_double_negation_is_identity(self):
        p = Predicate("a", Operator.LT, 5)
        assert p.negated().negated() == p

    @pytest.mark.parametrize(
        "operator, operand",
        [
            (Operator.BETWEEN, (1, 2)),
            (Operator.IN, [1, 2]),
            (Operator.PREFIX, "a"),
            (Operator.EXISTS, None),
        ],
    )
    def test_non_complementable_operators_raise(self, operator, operand):
        with pytest.raises(ValueError, match="no single-predicate complement"):
            Predicate("a", operator, operand).negated()

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_negation_is_complement_when_attribute_present(self, value, operand):
        event = Event({"a": value})
        for operator in (Operator.EQ, Operator.LT, Operator.LE, Operator.GT):
            p = Predicate("a", operator, operand)
            assert p.matches(event) != p.negated().matches(event)


class TestPredicateRegistry:
    def test_register_assigns_positive_ids(self):
        registry = PredicateRegistry()
        pid = registry.register(Predicate("a", Operator.EQ, 1))
        assert pid >= 1

    def test_structural_dedup(self):
        registry = PredicateRegistry()
        first = registry.register(Predicate("a", Operator.EQ, 1))
        second = registry.register(Predicate("a", Operator.EQ, 1))
        assert first == second
        assert len(registry) == 1
        assert registry.refcount(first) == 2

    def test_distinct_predicates_get_distinct_ids(self):
        registry = PredicateRegistry()
        a = registry.register(Predicate("a", Operator.EQ, 1))
        b = registry.register(Predicate("a", Operator.EQ, 2))
        assert a != b

    def test_lookup_both_directions(self):
        registry = PredicateRegistry()
        p = Predicate("a", Operator.EQ, 1)
        pid = registry.register(p)
        assert registry.predicate(pid) == p
        assert registry.identifier(p) == pid

    def test_release_decrements_then_retires(self):
        registry = PredicateRegistry()
        p = Predicate("a", Operator.EQ, 1)
        pid = registry.register(p)
        registry.register(p)
        assert registry.release(pid) is False
        assert registry.release(pid) is True
        assert p not in registry
        assert len(registry) == 0

    def test_release_unknown_raises(self):
        registry = PredicateRegistry()
        with pytest.raises(UnknownPredicateError):
            registry.release(99)

    def test_lookup_unknown_raises(self):
        registry = PredicateRegistry()
        with pytest.raises(UnknownPredicateError):
            registry.predicate(99)
        with pytest.raises(UnknownPredicateError):
            registry.identifier(Predicate("a", Operator.EQ, 1))

    def test_retired_ids_are_recycled(self):
        registry = PredicateRegistry()
        pid = registry.register(Predicate("a", Operator.EQ, 1))
        registry.release(pid)
        fresh = registry.register(Predicate("b", Operator.EQ, 2))
        assert fresh == pid

    def test_iteration_yields_pairs(self):
        registry = PredicateRegistry()
        p = Predicate("a", Operator.EQ, 1)
        pid = registry.register(p)
        assert list(registry) == [(pid, p)]

    def test_contains_protocol(self):
        registry = PredicateRegistry()
        p = Predicate("a", Operator.EQ, 1)
        assert p not in registry
        registry.register(p)
        assert p in registry

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
    def test_refcounts_track_register_release_sequences(self, values):
        registry = PredicateRegistry()
        counts: dict[int, int] = {}
        for value in values:
            p = Predicate("a", Operator.EQ, value)
            pid = registry.register(p)
            counts[pid] = counts.get(pid, 0) + 1
        assert len(registry) == len(counts)
        for pid, count in counts.items():
            assert registry.refcount(pid) == count
        for pid, count in counts.items():
            for remaining in range(count - 1, -1, -1):
                retired = registry.release(pid)
                assert retired == (remaining == 0)
        assert len(registry) == 0
