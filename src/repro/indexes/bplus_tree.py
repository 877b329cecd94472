"""A from-scratch in-memory B+ tree.

The paper's phase-1 predicate matching deploys "one-dimensional index
structures such as hash tables or B+ trees ... point predicates utilise
hash tables, for range predicates we deploy B+ trees" (§3.2).  This is
that B+ tree: keys are predicate operand values, and each key holds a
*bucket* — the set of predicate identifiers whose predicates carry that
operand.

Design notes
------------
* classic order-``b`` B+ tree: internal nodes hold up to ``b`` children,
  leaves hold up to ``b - 1`` keys, all data lives in the leaf level,
  leaves are doubly linked for range scans;
* deletion implements full rebalancing (borrow from siblings, merge on
  underflow) so the tree stays height-balanced under churn;
* keys must be mutually comparable — the index manager keeps separate
  trees per value domain (numeric vs. string) to guarantee that.

The structure is validated by property-based tests against a sorted-dict
reference model, including the internal invariants (`_check_invariants`).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional


class _Node:
    __slots__ = ("keys",)


class _Leaf(_Node):
    __slots__ = ("buckets", "next", "prev")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.buckets: list[set[int]] = []
        self.next: Optional["_Leaf"] = None
        self.prev: Optional["_Leaf"] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.children: list[_Node] = []


class BPlusTree:
    """An order-``b`` B+ tree mapping comparable keys to id buckets.

    Parameters
    ----------
    order:
        Maximum number of children of an internal node (≥ 3).  Leaves
        hold at most ``order - 1`` keys.

    Example
    -------
    >>> tree = BPlusTree(order=4)
    >>> tree.insert(10, 1)
    >>> tree.insert(20, 2)
    >>> sorted(tree.range_search(low=5, high=15))
    [10]
    """

    def __init__(self, order: int = 32) -> None:
        if order < 3:
            raise ValueError("B+ tree order must be at least 3")
        self._order = order
        self._root: _Node = _Leaf()
        self._size = 0          # number of distinct keys
        self._entry_count = 0   # number of (key, id) pairs

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """The tree's branching factor."""
        return self._order

    def __len__(self) -> int:
        """Number of distinct keys."""
        return self._size

    @property
    def entry_count(self) -> int:
        """Total number of (key, id) pairs across all buckets."""
        return self._entry_count

    def height(self) -> int:
        """Number of levels (a lone leaf has height 1)."""
        level = 1
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
            level += 1
        return level

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        assert isinstance(node, _Leaf)
        return node

    def get(self, key: Any) -> frozenset[int]:
        """The bucket stored under ``key`` (empty when absent)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return frozenset(leaf.buckets[index])
        return frozenset()

    def __contains__(self, key: Any) -> bool:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        return index < len(leaf.keys) and leaf.keys[index] == key

    def items(self) -> Iterator[tuple[Any, frozenset[int]]]:
        """All (key, bucket) pairs in ascending key order."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            for key, bucket in zip(leaf.keys, leaf.buckets):
                yield key, frozenset(bucket)
            leaf = leaf.next

    def keys(self) -> Iterator[Any]:
        """All keys in ascending order."""
        for key, _ in self.items():
            yield key

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node  # type: ignore[return-value]

    def _leaf_runs(
        self, low: Any, high: Any, include_low: bool, include_high: bool
    ) -> Iterator[tuple[_Leaf, int, int]]:
        """``(leaf, start, end)`` runs covering the keys within the bounds.

        Each bound costs one bisect per leaf, not one comparison per key.
        """
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            start = 0
        else:
            leaf = self._find_leaf(low)
            seek = bisect.bisect_left if include_low else bisect.bisect_right
            start = seek(leaf.keys, low)
        stop = bisect.bisect_right if include_high else bisect.bisect_left
        while leaf is not None:
            keys = leaf.keys
            end = len(keys) if high is None else stop(keys, high)
            if start < end:
                yield leaf, start, end
            if end < len(keys):
                return
            leaf = leaf.next
            start = 0

    def range_buckets(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, set[int]]]:
        """(key, bucket) pairs within the bounds, buckets *live*.

        The no-copy form of :meth:`range_items` for callers that only
        read each bucket before the next mutation of the tree.
        """
        for leaf, start, end in self._leaf_runs(low, high, include_low, include_high):
            yield from zip(leaf.keys[start:end], leaf.buckets[start:end])

    def range_items(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, frozenset[int]]]:
        """(key, bucket) pairs with ``low ? key ? high``.

        ``None`` bounds are open-ended.  Inclusivity of each bound is
        controlled independently — range predicate matching needs all
        four combinations (``<`` vs ``<=`` on either side).
        """
        for key, bucket in self.range_buckets(
            low, high, include_low=include_low, include_high=include_high
        ):
            yield key, frozenset(bucket)

    def range_search(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Any]:
        """Keys within the bounds (see :meth:`range_items`)."""
        for key, _ in self.range_buckets(
            low, high, include_low=include_low, include_high=include_high
        ):
            yield key

    def range_ids(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Union of all bucket ids within the bounds, streamed from the
        live buckets (no per-key copy).

        Walks the leaf runs itself rather than through
        :meth:`range_buckets`: skipping the per-key ``(key, bucket)``
        tuple made overlay-churn publishes (per-event phase 1) about 10%
        faster in an interleaved in-process A/B on a 2-vCPU x86-64 VM.
        """
        for leaf, start, end in self._leaf_runs(low, high, include_low, include_high):
            for bucket in leaf.buckets[start:end]:
                yield from bucket

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, identifier: int) -> None:
        """Add ``identifier`` to the bucket of ``key`` (creating it)."""
        result = self._insert(self._root, key, identifier)
        if result is not None:
            separator, right = result
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(
        self, node: _Node, key: Any, identifier: int
    ) -> Optional[tuple[Any, _Node]]:
        """Insert into the subtree; return (separator, new right node) on split."""
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                if identifier not in node.buckets[index]:
                    node.buckets[index].add(identifier)
                    self._entry_count += 1
                return None
            node.keys.insert(index, key)
            node.buckets.insert(index, {identifier})
            self._size += 1
            self._entry_count += 1
            if len(node.keys) <= self._order - 1:
                return None
            return self._split_leaf(node)
        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[child_index], key, identifier)
        if result is None:
            return None
        separator, right = result
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.buckets = leaf.buckets[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.buckets = leaf.buckets[:middle]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> tuple[Any, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def remove(self, key: Any, identifier: int) -> bool:
        """Remove ``identifier`` from ``key``'s bucket.

        The key itself is deleted (with rebalancing) once its bucket
        empties.  Returns ``True`` when the pair existed.
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        bucket = leaf.buckets[index]
        if identifier not in bucket:
            return False
        bucket.discard(identifier)
        self._entry_count -= 1
        if bucket:
            return True
        self._delete_key(key)
        return True

    def discard_key(self, key: Any) -> bool:
        """Delete ``key`` and its whole bucket; returns ``True`` if present."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        self._entry_count -= len(leaf.buckets[index])
        self._delete_key(key)
        return True

    def _delete_key(self, key: Any) -> None:
        self._delete(self._root, key)
        self._size -= 1
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]

    def _min_leaf_keys(self) -> int:
        return (self._order - 1) // 2 if self._order > 3 else 1

    def _min_children(self) -> int:
        return (self._order + 1) // 2

    def _delete(self, node: _Node, key: Any) -> None:
        """Delete ``key`` from the subtree; callers fix child underflow."""
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise KeyError(key)
            node.keys.pop(index)
            node.buckets.pop(index)
            return
        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        child = node.children[child_index]
        self._delete(child, key)
        self._fix_underflow(node, child_index)

    def _fix_underflow(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        if isinstance(child, _Leaf):
            if len(child.keys) >= self._min_leaf_keys() or parent is None:
                self._refresh_separator(parent, child_index)
                return
            self._rebalance_leaf(parent, child_index)
        else:
            assert isinstance(child, _Internal)
            if len(child.children) >= self._min_children():
                self._refresh_separator(parent, child_index)
                return
            self._rebalance_internal(parent, child_index)

    def _refresh_separator(self, parent: _Internal, child_index: int) -> None:
        """Keep separators equal to the smallest key of the right subtree."""
        if child_index > 0:
            smallest = self._smallest_key(parent.children[child_index])
            if smallest is not None:
                parent.keys[child_index - 1] = smallest

    def _smallest_key(self, node: _Node) -> Any:
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf = node
        return leaf.keys[0] if leaf.keys else None  # type: ignore[union-attr]

    def _rebalance_leaf(self, parent: _Internal, index: int) -> None:
        leaf: _Leaf = parent.children[index]  # type: ignore[assignment]
        minimum = self._min_leaf_keys()
        left: Optional[_Leaf] = parent.children[index - 1] if index > 0 else None  # type: ignore[assignment]
        right: Optional[_Leaf] = (
            parent.children[index + 1] if index + 1 < len(parent.children) else None  # type: ignore[assignment]
        )
        if left is not None and len(left.keys) > minimum:
            leaf.keys.insert(0, left.keys.pop())
            leaf.buckets.insert(0, left.buckets.pop())
            parent.keys[index - 1] = leaf.keys[0]
            return
        if right is not None and len(right.keys) > minimum:
            leaf.keys.append(right.keys.pop(0))
            leaf.buckets.append(right.buckets.pop(0))
            parent.keys[index] = right.keys[0]
            self._refresh_separator(parent, index)
            return
        if left is not None:
            self._merge_leaves(parent, index - 1)
        elif right is not None:
            self._merge_leaves(parent, index)

    def _merge_leaves(self, parent: _Internal, left_index: int) -> None:
        left: _Leaf = parent.children[left_index]  # type: ignore[assignment]
        right: _Leaf = parent.children[left_index + 1]  # type: ignore[assignment]
        left.keys.extend(right.keys)
        left.buckets.extend(right.buckets)
        left.next = right.next
        if right.next is not None:
            right.next.prev = left
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    def _rebalance_internal(self, parent: _Internal, index: int) -> None:
        node: _Internal = parent.children[index]  # type: ignore[assignment]
        minimum = self._min_children()
        left: Optional[_Internal] = parent.children[index - 1] if index > 0 else None  # type: ignore[assignment]
        right: Optional[_Internal] = (
            parent.children[index + 1] if index + 1 < len(parent.children) else None  # type: ignore[assignment]
        )
        if left is not None and len(left.children) > minimum:
            node.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            node.children.insert(0, left.children.pop())
            return
        if right is not None and len(right.children) > minimum:
            node.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            node.children.append(right.children.pop(0))
            return
        if left is not None:
            self._merge_internals(parent, index - 1)
        elif right is not None:
            self._merge_internals(parent, index)

    def _merge_internals(self, parent: _Internal, left_index: int) -> None:
        left: _Internal = parent.children[left_index]  # type: ignore[assignment]
        right: _Internal = parent.children[left_index + 1]  # type: ignore[assignment]
        left.keys.append(parent.keys[left_index])
        left.keys.extend(right.keys)
        left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation.

        Checks: sorted keys everywhere, balanced leaf depth, node fill
        bounds (root exempt), leaf chain consistency and key/bucket
        parity.
        """
        depths: set[int] = set()
        self._check_node(self._root, depth=1, depths=depths, is_root=True,
                         low=None, high=None)
        assert len(depths) == 1, f"leaves at different depths: {depths}"
        # leaf chain must visit exactly the keys in order
        chained = [k for k, _ in self.items()]
        assert chained == sorted(chained), "leaf chain out of order"
        assert len(chained) == self._size, (
            f"size {self._size} != chained key count {len(chained)}"
        )

    def _check_node(
        self, node: _Node, depth: int, depths: set[int], is_root: bool,
        low: Any, high: Any,
    ) -> None:
        assert node.keys == sorted(node.keys), "unsorted node keys"
        for key in node.keys:
            if low is not None:
                assert key >= low, f"key {key!r} below separator {low!r}"
            if high is not None:
                assert key < high, f"key {key!r} not below separator {high!r}"
        if isinstance(node, _Leaf):
            depths.add(depth)
            assert len(node.keys) == len(node.buckets), "key/bucket mismatch"
            assert all(node.buckets), "empty bucket retained"
            if not is_root:
                assert len(node.keys) >= self._min_leaf_keys(), "leaf underflow"
            assert len(node.keys) <= self._order - 1, "leaf overflow"
            return
        assert isinstance(node, _Internal)
        assert len(node.children) == len(node.keys) + 1, "child/key mismatch"
        if not is_root:
            assert len(node.children) >= self._min_children(), "internal underflow"
        else:
            assert len(node.children) >= 2, "root must have >= 2 children"
        assert len(node.children) <= self._order, "internal overflow"
        bounds = [low, *node.keys, high]
        for i, child in enumerate(node.children):
            self._check_node(
                child, depth + 1, depths, is_root=False,
                low=bounds[i], high=bounds[i + 1],
            )
