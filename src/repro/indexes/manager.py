"""Phase-1 predicate matching: the per-attribute index manager.

"In the first step of event filtering (predicate matching) all predicates
matching an event e are determined ... accomplished by the application of
one-dimensional index structures such as hash tables or B+ trees ...
applied based on operators used in predicates" (paper §3.2).

The :class:`IndexManager` owns one :class:`AttributeIndexes` bundle per
attribute name; each bundle holds the operator-family structures that
attribute's predicates need (created lazily).  ``match(event)`` walks the
event's attributes once — "applying indexes means to evaluate each
attribute only once" (§2.1) — and returns the full set of fulfilled
predicate identifiers, which is the input every engine's phase 2
consumes.  ``match_batch_bits(events)`` is the throughput-oriented
entry point: it answers a whole batch in the column-major bit form the
phase-2 kernel consumes, with work proportional to the indexed order
bounds and the matches rather than to (distinct value × fulfilled
predicate); ``match_batch`` is its per-event id-set view.

Operator dispatch is declarative: :data:`OPERATOR_SLOTS` binds each
:class:`~repro.predicates.operators.Operator` to the bundle slot that
stores its predicates, and :data:`VALUE_PROBES` lists the probes
``match`` runs against an event value (the batch path runs all but the
four order probes per distinct value and answers those from the event
side; see :meth:`IndexManager.match_batch_bits`).  Registering a new
operator means adding one slot entry (and, if it introduces a new
structure, one probe) — ``add``, ``remove`` and ``_match_attribute``
need no changes.

All engines share this phase; the paper's comparison (and ours) is about
what happens *after* it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..events.event import Event
from ..predicates.operators import Operator
from ..predicates.predicate import Predicate
from .bplus_tree import BPlusTree
from .hash_index import EqualityIndex, ExistsIndex, MembershipIndex, NotEqualIndex
from .interval_index import IntervalIndex
from .trie import ContainsScanList, PrefixTrie, SuffixTrie

_NUMERIC = "numeric"
_STRING = "string"


def _domain(value) -> str:
    """Order-comparison domain of an operand or event value."""
    return _STRING if isinstance(value, str) else _NUMERIC


class AttributeIndexes:
    """All index structures for one attribute, created on first use."""

    __slots__ = (
        "equality", "not_equal", "membership", "exists",
        "order_trees", "intervals", "prefix", "suffix", "contains",
    )

    def __init__(self) -> None:
        self.equality: EqualityIndex | None = None
        self.not_equal: NotEqualIndex | None = None
        self.membership: MembershipIndex | None = None
        self.exists: ExistsIndex | None = None
        #: {(operator, domain): BPlusTree} for LT/LE/GT/GE predicates
        self.order_trees: dict[tuple[Operator, str], BPlusTree] = {}
        #: {domain: IntervalIndex} for BETWEEN predicates
        self.intervals: dict[str, IntervalIndex] = {}
        self.prefix: PrefixTrie | None = None
        self.suffix: SuffixTrie | None = None
        self.contains: ContainsScanList | None = None

    def is_empty(self) -> bool:
        """Whether every structure is absent or empty."""
        simple = (
            self.equality, self.not_equal, self.membership, self.exists,
            self.prefix, self.suffix, self.contains,
        )
        if any(index is not None and len(index) > 0 for index in simple):
            return False
        if any(len(tree) > 0 for tree in self.order_trees.values()):
            return False
        return all(len(iv) == 0 for iv in self.intervals.values())


# ----------------------------------------------------------------------
# declarative operator -> slot dispatch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperatorSlot:
    """Where one operator family stores its predicates.

    ``find`` returns the existing structure for a predicate (or ``None``
    when absent), ``create`` builds and attaches a fresh one, and ``key``
    maps the predicate to the value inserted into / removed from the
    structure.  ``add`` and ``remove`` are generic over these three
    callables.
    """

    find: Callable[[AttributeIndexes, Predicate], object | None]
    create: Callable[["IndexManager", AttributeIndexes, Predicate], object]
    key: Callable[[Predicate], object]


def _attribute_slot(
    attribute: str, factory: Callable[[], object], *, key=lambda p: p.value
) -> OperatorSlot:
    """A slot living in a plain ``AttributeIndexes`` attribute."""

    def find(bundle: AttributeIndexes, predicate: Predicate):
        return getattr(bundle, attribute)

    def create(manager: "IndexManager", bundle: AttributeIndexes, predicate):
        index = factory()
        setattr(bundle, attribute, index)
        return index

    return OperatorSlot(find=find, create=create, key=key)


def _order_slot(operator: Operator) -> OperatorSlot:
    """A slot keyed by (operator, operand domain) in ``order_trees``."""

    def find(bundle: AttributeIndexes, predicate: Predicate):
        return bundle.order_trees.get((operator, _domain(predicate.value)))

    def create(manager: "IndexManager", bundle: AttributeIndexes, predicate):
        tree = BPlusTree(order=manager._btree_order)
        bundle.order_trees[(operator, _domain(predicate.value))] = tree
        return tree

    return OperatorSlot(find=find, create=create, key=lambda p: p.value)


def _interval_slot() -> OperatorSlot:
    """The BETWEEN slot, keyed by the bounds' domain in ``intervals``."""

    def find(bundle: AttributeIndexes, predicate: Predicate):
        return bundle.intervals.get(_domain(predicate.value[0]))

    def create(manager: "IndexManager", bundle: AttributeIndexes, predicate):
        index = IntervalIndex()
        bundle.intervals[_domain(predicate.value[0])] = index
        return index

    return OperatorSlot(find=find, create=create, key=lambda p: p.value)


#: The dispatch registry: one entry per supported operator.  New
#: operators plug in here without touching ``add``/``remove``/matching.
OPERATOR_SLOTS: dict[Operator, OperatorSlot] = {
    Operator.EQ: _attribute_slot("equality", EqualityIndex),
    Operator.NE: _attribute_slot("not_equal", NotEqualIndex),
    Operator.IN: _attribute_slot("membership", MembershipIndex),
    Operator.EXISTS: _attribute_slot("exists", ExistsIndex, key=lambda p: None),
    Operator.LT: _order_slot(Operator.LT),
    Operator.LE: _order_slot(Operator.LE),
    Operator.GT: _order_slot(Operator.GT),
    Operator.GE: _order_slot(Operator.GE),
    Operator.BETWEEN: _interval_slot(),
    Operator.PREFIX: _attribute_slot("prefix", PrefixTrie),
    Operator.SUFFIX: _attribute_slot("suffix", SuffixTrie),
    Operator.CONTAINS: _attribute_slot("contains", ContainsScanList),
}


# ----------------------------------------------------------------------
# declarative value -> probe dispatch (the match side)
# ----------------------------------------------------------------------
# Guards select which probes apply to an event value: every value hits
# the hash-family probes; orderable values (numbers and strings, but not
# bools or NaN, which order against nothing) hit the order and interval
# probes; strings additionally hit the trie probes.
_GUARD_ALL = "all"
_GUARD_ORDER = "order"
_GUARD_ORDERED = "ordered"
_GUARD_STRING = "string"


def _simple_probe(attribute: str):
    def probe(bundle: AttributeIndexes, value) -> Iterable[int]:
        index = getattr(bundle, attribute)
        return index.match(value) if index is not None else ()

    return probe


def _order_probe(operator: Operator, bound: str, inclusive: bool):
    # attr < v is fulfilled iff v > value: scan (value, +inf); similarly
    # for the other comparison operators.
    def probe(bundle: AttributeIndexes, value) -> Iterable[int]:
        tree = bundle.order_trees.get((operator, _domain(value)))
        if tree is None:
            return ()
        if bound == "low":
            return tree.range_ids(low=value, include_low=inclusive)
        return tree.range_ids(high=value, include_high=inclusive)

    return probe


def _interval_probe(bundle: AttributeIndexes, value) -> Iterable[int]:
    index = bundle.intervals.get(_domain(value))
    return index.match(value) if index is not None else ()


#: (guard, probe) pairs; ``_match_attribute`` runs the probes whose guard
#: admits the event value and unions their ids.  The ``order`` probes
#: are the per-event form of the batch path's event-space walk.
VALUE_PROBES: tuple[tuple[str, Callable], ...] = (
    (_GUARD_ALL, _simple_probe("equality")),
    (_GUARD_ALL, _simple_probe("not_equal")),
    (_GUARD_ALL, _simple_probe("membership")),
    (_GUARD_ALL, _simple_probe("exists")),
    (_GUARD_ORDER, _order_probe(Operator.LT, "low", False)),
    (_GUARD_ORDER, _order_probe(Operator.LE, "low", True)),
    (_GUARD_ORDER, _order_probe(Operator.GT, "high", False)),
    (_GUARD_ORDER, _order_probe(Operator.GE, "high", True)),
    (_GUARD_ORDERED, _interval_probe),
    (_GUARD_STRING, _simple_probe("prefix")),
    (_GUARD_STRING, _simple_probe("suffix")),
    (_GUARD_STRING, _simple_probe("contains")),
)


def _probes(*guards: str) -> tuple[Callable, ...]:
    return tuple(probe for guard, probe in VALUE_PROBES if guard in guards)


#: the kind of a value that orders against nothing; the other kinds
#: are the order domains ``_NUMERIC`` and ``_STRING``
_UNORDERED = "unordered"

#: value kind -> the probes ``match`` runs for such a value
_PROBES: dict[str, tuple[Callable, ...]] = {
    _UNORDERED: _probes(_GUARD_ALL),
    _NUMERIC: _probes(_GUARD_ALL, _GUARD_ORDER, _GUARD_ORDERED),
    _STRING: _probes(_GUARD_ALL, _GUARD_ORDER, _GUARD_ORDERED, _GUARD_STRING),
}
#: the same minus the order probes: what the batch path runs per value
_POINT_PROBES: dict[str, tuple[Callable, ...]] = {
    _UNORDERED: _probes(_GUARD_ALL),
    _NUMERIC: _probes(_GUARD_ALL, _GUARD_ORDERED),
    _STRING: _probes(_GUARD_ALL, _GUARD_ORDERED, _GUARD_STRING),
}


def _value_kind(value) -> str:
    """The order domain of an event value, or ``_UNORDERED`` for bools
    (they never satisfy an order predicate) and NaN (every comparison
    with NaN is false).  Selects the probes the value admits."""
    if isinstance(value, bool) or value != value:
        return _UNORDERED
    return _STRING if isinstance(value, str) else _NUMERIC


#: How the batch path answers an order tree from the event side: for a
#: bound ``b``, which mask array and which bisect over the batch's
#: sorted values give its event mask, and whether the leaf walk's limit
#: (the largest batch value for suffix walks, the smallest for prefix
#: walks) is inclusive; past that limit every mask is zero.
#:   attr >= b  ->  suffix[bisect_left(values, b)],   walk b <= max
#:   attr >  b  ->  suffix[bisect_right(values, b)],  walk b <  max
#:   attr <= b  ->  prefix[bisect_right(values, b)],  walk b >= min
#:   attr <  b  ->  prefix[bisect_left(values, b)],   walk b >  min
_ORDER_WALKS: dict[Operator, tuple[bool, Callable, bool]] = {
    # operator: (suffix array?, bisect, inclusive limit?)
    Operator.GE: (True, bisect_left, True),
    Operator.GT: (True, bisect_right, False),
    Operator.LE: (False, bisect_right, True),
    Operator.LT: (False, bisect_left, False),
}


class IndexManager:
    """Registers predicates into per-attribute indexes and matches events."""

    def __init__(self, *, btree_order: int = 64) -> None:
        if btree_order < 3:
            raise ValueError("btree_order must be at least 3")
        self._btree_order = btree_order
        self._attributes: dict[str, AttributeIndexes] = {}
        self._registered: dict[int, Predicate] = {}
        #: bumped on every add/remove
        self._version = 0
        #: predicate-id -> bit-position layout (lazy; see core.bitset)
        self._layout = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, predicate: Predicate, predicate_id: int) -> None:
        """Index ``predicate`` under ``predicate_id``.

        Idempotent per id: re-adding an id already indexed is a no-op
        (predicates are shared across subscriptions and refcounted by the
        registry; the index holds each live predicate exactly once).
        """
        if predicate_id in self._registered:
            return
        slot = OPERATOR_SLOTS.get(predicate.operator)
        if slot is None:  # pragma: no cover - exhaustive over Operator
            raise NotImplementedError(predicate.operator)
        bundle = self._attributes.setdefault(predicate.attribute, AttributeIndexes())
        index = slot.find(bundle, predicate)
        if index is None:
            index = slot.create(self, bundle, predicate)
        index.insert(slot.key(predicate), predicate_id)
        self._registered[predicate_id] = predicate
        self._version += 1
        self.bit_layout.assign(predicate_id)

    def remove(self, predicate_id: int) -> bool:
        """Drop ``predicate_id`` from its index; returns ``True`` if present."""
        predicate = self._registered.pop(predicate_id, None)
        if predicate is None:
            return False
        slot = OPERATOR_SLOTS[predicate.operator]
        bundle = self._attributes[predicate.attribute]
        slot.find(bundle, predicate).remove(slot.key(predicate), predicate_id)
        if bundle.is_empty():
            del self._attributes[predicate.attribute]
        self._version += 1
        if self._layout is not None:
            self._layout.release(predicate_id)
        return True

    # ------------------------------------------------------------------
    # bit layout (phase-2 kernel support)
    # ------------------------------------------------------------------
    @property
    def bit_layout(self):
        """The manager-owned predicate-id -> bit-position layout.

        Created lazily (the import is deferred: ``core`` imports this
        module at package init, so a top-level import of
        :mod:`repro.core.bitset` would cycle).  Every id this manager
        indexes has a bit here — ``add`` assigns, ``remove`` releases —
        so engines sharing the manager agree on bit positions and
        recycled bits can never sit in a live requirement mask.
        """
        layout = self._layout
        if layout is None:
            from ..core.bitset import BitLayout

            layout = self._layout = BitLayout()
        return layout

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every ``add`` and ``remove``."""
        return self._version

    # ------------------------------------------------------------------
    # matching (phase 1)
    # ------------------------------------------------------------------
    def match(self, event: Event) -> set[int]:
        """All predicate ids fulfilled by ``event`` — the phase-1 output."""
        fulfilled: set[int] = set()
        attributes = self._attributes
        for attribute, value in event.items():
            bundle = attributes.get(attribute)
            if bundle is None:
                continue
            self._match_attribute(bundle, value, fulfilled)
        return fulfilled

    def match_batch(self, events: Sequence[Event]) -> list[set[int]]:
        """Phase 1 over a batch as per-event id sets: the set view of
        :meth:`match_batch_bits`."""
        return self.match_batch_bits(events).to_id_sets()

    def match_batch_bits(self, events: Sequence[Event]):
        """Phase 1 over a batch, in the kernel's column-major bit form.

        Returns a :class:`~repro.core.bitset.FulfilledMatrix`: one
        event-space integer column per fulfilled predicate bit.

        Events' attribute values are grouped first, so each distinct
        ``(attribute, type, value)`` pair carries the mask of the events
        holding it; the key includes the value's concrete type because
        matching distinguishes ``True`` from ``1`` even though they hash
        equally.  Each pair runs the point probes (hash family,
        intervals, tries) once and ORs its mask into every id they
        return.

        The four order trees are answered from the event side instead.
        Per ``(attribute, domain)`` the distinct orderable values are
        sorted, with prefix-OR and suffix-OR arrays of their masks; one
        walk along each tree's leaf chain then gives every bound its
        event mask by a single bisect (see :data:`_ORDER_WALKS`), and the
        walk stops where masks become zero.  The cost is one step per
        indexed bound that some event fulfils plus one OR per fulfilled
        id, instead of one set insert per (distinct value, fulfilled
        predicate).
        """
        from ..core.bitset import FulfilledMatrix

        layout = self.bit_layout
        attributes = self._attributes
        # distinct (attribute, type, value) -> mask of events carrying it
        pair_events: dict[tuple[str, type, object], int] = {}
        event_bit = 1
        for event in events:
            for attribute, value in event.items():
                key = (attribute, value.__class__, value)
                prev = pair_events.get(key)
                pair_events[key] = event_bit if prev is None else prev | event_bit
            event_bit <<= 1
        columns = [0] * layout.capacity
        active_bits: list[int] = []
        mark = active_bits.append
        bit_of = layout.bits
        # (attribute, domain) -> {orderable value: event mask}
        order_values: dict[tuple[str, str], dict[object, int]] = {}
        for (attribute, _, value), mask in pair_events.items():
            bundle = attributes.get(attribute)
            if bundle is None:
                continue
            kind = _value_kind(value)
            for probe in _POINT_PROBES[kind]:
                for pid in probe(bundle, value):
                    bit = bit_of[pid]
                    column = columns[bit]
                    if not column:
                        mark(bit)
                    columns[bit] = column | mask
            if kind != _UNORDERED and bundle.order_trees:
                by_value = order_values.setdefault((attribute, kind), {})
                by_value[value] = by_value.get(value, 0) | mask
        for (attribute, domain), by_value in order_values.items():
            values = sorted(by_value)
            prefix = [0]
            for value in values:
                prefix.append(prefix[-1] | by_value[value])
            suffix = [0]
            for value in reversed(values):
                suffix.append(suffix[-1] | by_value[value])
            suffix.reverse()
            trees = attributes[attribute].order_trees
            for (operator, tree_domain), tree in trees.items():
                if tree_domain != domain:
                    continue
                use_suffix, seek, inclusive = _ORDER_WALKS[operator]
                if use_suffix:
                    masks = suffix
                    walk = tree.range_buckets(high=values[-1], include_high=inclusive)
                else:
                    masks = prefix
                    walk = tree.range_buckets(low=values[0], include_low=inclusive)
                for bound, bucket in walk:
                    mask = masks[seek(values, bound)]
                    for pid in bucket:
                        bit = bit_of[pid]
                        column = columns[bit]
                        if not column:
                            mark(bit)
                        columns[bit] = column | mask
        return FulfilledMatrix(layout, columns, active_bits, len(events))

    def _match_attribute(
        self, bundle: AttributeIndexes, value, fulfilled: set[int]
    ) -> None:
        for probe in _PROBES[_value_kind(value)]:
            ids = probe(bundle, value)
            if ids:
                fulfilled.update(ids)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of indexed predicates."""
        return len(self._registered)

    def __contains__(self, predicate_id: int) -> bool:
        return predicate_id in self._registered

    def attributes(self) -> Iterator[str]:
        """Attribute names with at least one indexed predicate."""
        return iter(self._attributes)

    def predicate(self, predicate_id: int) -> Predicate:
        """The predicate indexed under ``predicate_id``."""
        return self._registered[predicate_id]
