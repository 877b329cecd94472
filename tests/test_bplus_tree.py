"""Unit and property tests for the from-scratch B+ tree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes import BPlusTree


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert tree.entry_count == 0
        assert tree.get(5) == frozenset()
        assert 5 not in tree

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_insert_and_get(self):
        tree = BPlusTree(order=4)
        tree.insert(10, 1)
        tree.insert(10, 2)
        assert tree.get(10) == {1, 2}
        assert len(tree) == 1
        assert tree.entry_count == 2

    def test_duplicate_pair_not_double_counted(self):
        tree = BPlusTree(order=4)
        tree.insert(10, 1)
        tree.insert(10, 1)
        assert tree.entry_count == 1

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        for key in (5, 1, 9, 3, 7):
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == [1, 3, 5, 7, 9]
        assert list(tree.keys()) == [1, 3, 5, 7, 9]

    def test_height_grows_with_splits(self):
        tree = BPlusTree(order=4)
        assert tree.height() == 1
        for key in range(50):
            tree.insert(key, key)
        assert tree.height() >= 3
        tree.check_invariants()

    def test_string_keys(self):
        tree = BPlusTree(order=4)
        for word in ("pear", "apple", "fig"):
            tree.insert(word, 1)
        assert list(tree.keys()) == ["apple", "fig", "pear"]


class TestRangeQueries:
    @pytest.fixture
    def tree(self):
        tree = BPlusTree(order=4)
        for key in range(0, 100, 10):
            tree.insert(key, key)
        return tree

    def test_closed_range(self, tree):
        assert list(tree.range_search(20, 50)) == [20, 30, 40, 50]

    def test_open_low(self, tree):
        assert list(tree.range_search(20, 50, include_low=False)) == [30, 40, 50]

    def test_open_high(self, tree):
        assert list(tree.range_search(20, 50, include_high=False)) == [20, 30, 40]

    def test_unbounded_low(self, tree):
        assert list(tree.range_search(high=20)) == [0, 10, 20]

    def test_unbounded_high(self, tree):
        assert list(tree.range_search(low=70)) == [70, 80, 90]

    def test_fully_unbounded(self, tree):
        assert list(tree.range_search()) == list(range(0, 100, 10))

    def test_empty_range(self, tree):
        assert list(tree.range_search(41, 49)) == []

    def test_range_between_keys(self, tree):
        assert list(tree.range_search(15, 35)) == [20, 30]

    def test_range_ids_streams_bucket_members(self, tree):
        tree.insert(20, 999)
        assert sorted(tree.range_ids(20, 30)) == [20, 30, 999]


class TestDeletion:
    def test_remove_id_keeps_key_until_empty(self):
        tree = BPlusTree(order=4)
        tree.insert(5, 1)
        tree.insert(5, 2)
        assert tree.remove(5, 1)
        assert 5 in tree
        assert tree.remove(5, 2)
        assert 5 not in tree
        assert len(tree) == 0

    def test_remove_missing_returns_false(self):
        tree = BPlusTree(order=4)
        tree.insert(5, 1)
        assert not tree.remove(5, 9)
        assert not tree.remove(6, 1)

    def test_discard_key_drops_whole_bucket(self):
        tree = BPlusTree(order=4)
        tree.insert(5, 1)
        tree.insert(5, 2)
        assert tree.discard_key(5)
        assert tree.entry_count == 0
        assert not tree.discard_key(5)

    def test_mass_delete_rebalances(self):
        tree = BPlusTree(order=4)
        for key in range(200):
            tree.insert(key, key)
        for key in range(0, 200, 2):
            assert tree.remove(key, key)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(1, 200, 2))

    def test_delete_everything_returns_to_empty(self):
        tree = BPlusTree(order=5)
        for key in range(100):
            tree.insert(key, key)
        for key in range(100):
            assert tree.remove(key, key)
        assert len(tree) == 0
        assert tree.height() == 1
        tree.check_invariants()

    def test_descending_deletion(self):
        tree = BPlusTree(order=4)
        for key in range(64):
            tree.insert(key, key)
        for key in reversed(range(64)):
            tree.remove(key, key)
            tree.check_invariants()
        assert len(tree) == 0


@st.composite
def operations(draw):
    """A sequence of (op, key, id) actions."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "discard"]),
                st.integers(0, 40),
                st.integers(0, 5),
            ),
            max_size=200,
        )
    )


class TestAgainstReferenceModel:
    @given(operations(), st.integers(3, 8))
    @settings(max_examples=120, deadline=None)
    def test_matches_dict_of_sets(self, ops, order):
        tree = BPlusTree(order=order)
        reference: dict[int, set[int]] = {}
        for op, key, identifier in ops:
            if op == "insert":
                tree.insert(key, identifier)
                reference.setdefault(key, set()).add(identifier)
            elif op == "remove":
                expected = key in reference and identifier in reference[key]
                assert tree.remove(key, identifier) == expected
                if expected:
                    reference[key].discard(identifier)
                    if not reference[key]:
                        del reference[key]
            else:
                expected = key in reference
                assert tree.discard_key(key) == expected
                reference.pop(key, None)
        tree.check_invariants()
        assert {k: set(b) for k, b in tree.items()} == reference
        assert len(tree) == len(reference)
        assert tree.entry_count == sum(len(b) for b in reference.values())

    @given(operations(), st.integers(3, 8),
           st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_range_queries_match_reference(self, ops, order, low, high):
        if low > high:
            low, high = high, low
        tree = BPlusTree(order=order)
        reference: dict[int, set[int]] = {}
        for op, key, identifier in ops:
            if op == "insert":
                tree.insert(key, identifier)
                reference.setdefault(key, set()).add(identifier)
            elif op == "remove" and key in reference and identifier in reference[key]:
                tree.remove(key, identifier)
                reference[key].discard(identifier)
                if not reference[key]:
                    del reference[key]
        got = list(tree.range_search(low, high))
        expected = sorted(k for k in reference if low <= k <= high)
        assert got == expected

    @given(operations(), st.integers(3, 8),
           st.one_of(st.none(), st.integers(-2, 42)),
           st.one_of(st.none(), st.integers(-2, 42)),
           st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_range_forms_agree_with_reference(
        self, ops, order, low, high, include_low, include_high
    ):
        """range_items, range_buckets and range_ids select the same keys
        for every bound/inclusivity combination; range_ids streams the
        live buckets without copying them."""
        tree = BPlusTree(order=order)
        reference: dict[int, set[int]] = {}
        for op, key, identifier in ops:
            if op == "insert":
                tree.insert(key, identifier)
                reference.setdefault(key, set()).add(identifier)
            elif op == "remove" and key in reference and identifier in reference[key]:
                tree.remove(key, identifier)
                reference[key].discard(identifier)
                if not reference[key]:
                    del reference[key]

        def admitted(key):
            if low is not None and (key < low or (not include_low and key == low)):
                return False
            return high is None or not (
                key > high or (not include_high and key == high)
            )

        expected = [(k, reference[k]) for k in sorted(reference) if admitted(k)]
        bounds = dict(include_low=include_low, include_high=include_high)
        items = list(tree.range_items(low, high, **bounds))
        assert items == expected
        assert all(isinstance(bucket, frozenset) for _, bucket in items)
        assert list(tree.range_buckets(low, high, **bounds)) == expected
        assert sorted(tree.range_ids(low, high, **bounds)) == sorted(
            pid for _, bucket in expected for pid in bucket
        )
