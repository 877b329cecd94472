"""Bit-packed phase-2 kernel (PR 8): primitives, churn, engine parity.

Three layers of proof, bottom-up:

* the bitmap primitives (`popcount` table, word-indexed `Bitmap`,
  trailing-word masking) agree with Python's int bit operations across
  word boundaries;
* `BitLayout` recycles released bit positions without ever handing a
  live bit two meanings, and `IndexManager.match_batch_bits` stays in
  lockstep with per-event `match` (and the predicates' own evaluation)
  through add/remove churn;
* every registry engine's `match_fulfilled_matrix` equals its set-based
  `match_fulfilled_batch` (and `match_batch` equals per-event `match`)
  over randomized corpora, including batch-flushed subscribe/unsubscribe
  rounds — the no-stale-bit-resurrection property, observed end to end.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SELECTED_ENGINE, predicate_strategy
from repro import EngineSpec, UnsupportedSubscriptionError
from repro.core.bitset import (
    POPCOUNT8,
    WORD_BITS,
    BitLayout,
    Bitmap,
    FulfilledMatrix,
    iter_bits,
    popcount,
    popcount_bytes,
    trailing_word_mask,
)
from repro.events import Event
from repro.indexes import IndexManager
from repro.predicates import Operator, Predicate, PredicateRegistry
from repro.workloads import GeneralSubscriptionGenerator

# -- word boundaries the primitives must survive -----------------------
BOUNDARY_VALUES = [
    0,
    1,
    (1 << 63) - 1,
    1 << 63,
    (1 << 64) - 1,
    1 << 64,
    (1 << 64) + 1,
    (1 << 128) - 1,
    1 << 128,
    (1 << 130) - 1,
    0xDEADBEEFCAFEBABE_0123456789ABCDEF,
]


class TestPrimitives:
    def test_popcount_table_is_per_byte_bit_count(self):
        assert len(POPCOUNT8) == 256
        for byte in range(256):
            assert POPCOUNT8[byte] == byte.bit_count()

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_popcount_matches_bit_count(self, value):
        assert popcount(value) == value.bit_count()

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_popcount_bytes_matches_int_popcount(self, value):
        width = max(1, (value.bit_length() + 7) // 8)
        data = value.to_bytes(width, "little")
        assert popcount_bytes(data) == value.bit_count()

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_iter_bits_ascending_and_complete(self, value):
        positions = list(iter_bits(value))
        assert positions == sorted(positions)
        assert sum(1 << position for position in positions) == value

    def test_trailing_word_mask(self):
        full = (1 << WORD_BITS) - 1
        assert trailing_word_mask(0) == full
        assert trailing_word_mask(64) == full
        assert trailing_word_mask(128) == full
        assert trailing_word_mask(1) == 0b1
        assert trailing_word_mask(63) == (1 << 63) - 1
        assert trailing_word_mask(65) == 0b1
        assert trailing_word_mask(70) == (1 << 6) - 1

    @given(st.integers(min_value=0, max_value=(1 << 200) - 1))
    @settings(max_examples=60, deadline=None)
    def test_popcount_forms_agree(self, value):
        width = max(1, (value.bit_length() + 7) // 8)
        assert popcount(value) == popcount_bytes(value.to_bytes(width, "little"))


class TestBitmap:
    @pytest.mark.parametrize("index", [0, 1, 63, 64, 65, 127, 128])
    def test_set_test_clear_across_word_boundaries(self, index):
        bitmap = Bitmap(130)
        assert not bitmap.test(index)
        bitmap.set(index)
        assert bitmap.test(index)
        assert bitmap.to_int() == 1 << index
        bitmap.clear(index)
        assert not bitmap.test(index)
        assert bitmap.to_int() == 0

    def test_out_of_range_access_raises(self):
        bitmap = Bitmap(64)
        for index in (-1, 64, 1000):
            with pytest.raises(IndexError):
                bitmap.test(index)
            with pytest.raises(IndexError):
                bitmap.set(index)

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            Bitmap(-1)

    def test_zero_width_bitmap(self):
        bitmap = Bitmap(0)
        assert len(bitmap) == 0
        assert bitmap.to_int() == 0
        assert bitmap.popcount() == 0
        assert list(bitmap) == []
        assert bitmap.invert().to_int() == 0

    @pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=lambda v: f"{v:#x}")
    def test_from_int_to_int_roundtrip(self, value):
        nbits = max(1, value.bit_length())
        assert Bitmap.from_int(value, nbits).to_int() == value

    def test_from_int_masks_excess_bits(self):
        bitmap = Bitmap.from_int((1 << 80) | 0b101, 70)
        assert bitmap.to_int() == 0b101

    def test_from_int_rejects_negative(self):
        with pytest.raises(ValueError):
            Bitmap.from_int(-1, 8)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Bitmap(64).and_(Bitmap(65))

    @given(
        st.integers(min_value=0, max_value=(1 << 130) - 1),
        st.integers(min_value=0, max_value=(1 << 130) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_binary_operations_agree_with_int_algebra(self, a, b):
        nbits = 130
        bitmap_a = Bitmap.from_int(a, nbits)
        bitmap_b = Bitmap.from_int(b, nbits)
        assert bitmap_a.and_(bitmap_b).to_int() == a & b
        assert bitmap_a.or_(bitmap_b).to_int() == a | b
        assert bitmap_a.andnot(bitmap_b).to_int() == a & ~b & ((1 << nbits) - 1)
        assert bitmap_a.popcount() == a.bit_count()
        assert list(bitmap_a) == list(iter_bits(a))

    @pytest.mark.parametrize("nbits", [1, 63, 64, 65, 128, 130])
    def test_invert_respects_trailing_word_mask(self, nbits):
        zero = Bitmap(nbits)
        inverted = zero.invert()
        assert inverted.to_int() == (1 << nbits) - 1
        assert inverted.popcount() == nbits
        # double inversion is identity, and no bit above nbits leaks
        assert inverted.invert() == zero
        assert all(position < nbits for position in inverted)

    def test_equality_requires_same_width(self):
        assert Bitmap.from_int(5, 64) == Bitmap.from_int(5, 64)
        assert Bitmap.from_int(5, 64) != Bitmap.from_int(5, 65)


class TestBitLayout:
    def test_assign_is_dense_and_idempotent(self):
        layout = BitLayout()
        assert layout.assign(101) == 0
        assert layout.assign(202) == 1
        assert layout.assign(101) == 0
        assert layout.capacity == 2
        assert len(layout) == 2
        assert 101 in layout and 303 not in layout
        assert layout.bit_of(202) == 1
        assert layout.pid_at(0) == 101
        assert layout.bits_of([202, 101]) == (1, 0)

    def test_release_recycles_and_bumps_epoch(self):
        layout = BitLayout()
        for pid in (1, 2, 3):
            layout.assign(pid)
        epoch = layout.epoch
        assert layout.release(2)
        assert layout.epoch == epoch + 1
        assert layout.pid_at(1) is None
        assert 2 not in layout
        # the freed position is recycled, capacity does not grow
        assert layout.assign(9) == 1
        assert layout.capacity == 3
        # releasing an unknown id is a no-op and does not bump the epoch
        epoch = layout.epoch
        assert not layout.release(777)
        assert layout.epoch == epoch

    def test_capacity_bounded_by_live_high_water_mark(self):
        layout = BitLayout()
        rng = random.Random(7)
        live: set[int] = set()
        high_water = 0
        for pid in range(1, 400):
            layout.assign(pid)
            live.add(pid)
            high_water = max(high_water, len(live))
            if len(live) > 20 and rng.random() < 0.6:
                victim = rng.choice(sorted(live))
                layout.release(victim)
                live.remove(victim)
        assert layout.capacity <= high_water
        assert len(layout) == len(live)

    def test_compact_renumbers_densely(self):
        layout = BitLayout()
        for pid in range(10):
            layout.assign(pid)
        for pid in (1, 4, 7, 9):
            layout.release(pid)
        epoch = layout.epoch
        remap = layout.compact()
        assert layout.epoch == epoch + 1
        assert layout.capacity == len(layout) == 6
        assert not layout.free
        # the remap covers exactly the surviving bits, onto a dense range
        assert sorted(remap.values()) == list(range(6))
        for old_bit, new_bit in remap.items():
            assert layout.pid_at(new_bit) is not None
        for pid in (0, 2, 3, 5, 6, 8):
            assert layout.bit_of(pid) < 6


class TestFulfilledMatrix:
    def _layout(self, pids):
        layout = BitLayout()
        for pid in pids:
            layout.assign(pid)
        return layout

    def test_from_id_sets_to_id_sets_roundtrip(self):
        layout = self._layout([10, 20, 30, 40])
        sets = [{10, 30}, set(), {20}, {10, 20, 40}]
        matrix = FulfilledMatrix.from_id_sets(layout, sets)
        assert matrix.event_count == 4
        assert matrix.to_id_sets() == sets
        assert matrix.to_id_sets() is matrix.to_id_sets()  # cached

    def test_columns_and_rows_are_transposes(self):
        layout = self._layout([10, 20, 30])
        sets = [{10}, {10, 20}, {30}]
        matrix = FulfilledMatrix.from_id_sets(layout, sets)
        bit_10 = layout.bit_of(10)
        assert matrix.column(bit_10) == 0b011  # events 0 and 1
        assert matrix.row(0) == 1 << bit_10
        assert matrix.row(1) == (1 << bit_10) | (1 << layout.bit_of(20))
        assert matrix.row_bitmap(2).to_int() == 1 << layout.bit_of(30)
        with pytest.raises(IndexError):
            matrix.row(3)

    def test_active_bits_are_exactly_nonzero_columns(self):
        layout = self._layout([1, 2, 3, 4])
        matrix = FulfilledMatrix.from_id_sets(layout, [{2}, {2, 4}])
        assert sorted(matrix.active_bits) == sorted(
            bit for bit, column in enumerate(matrix.columns) if column
        )
        assert sorted(matrix.active_pids()) == [2, 4]
        assert matrix.all_events_mask == 0b11

    @given(
        st.lists(
            st.sets(st.sampled_from([11, 22, 33, 44, 55]), max_size=5),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, sets):
        layout = self._layout([11, 22, 33, 44, 55])
        matrix = FulfilledMatrix.from_id_sets(layout, sets)
        assert matrix.to_id_sets() == sets
        for index in range(len(sets)):
            assert {
                layout.pid_at(bit) for bit in iter_bits(matrix.row(index))
            } == sets[index]


_ORDER_OPERATORS = [Operator.LT, Operator.LE, Operator.GT, Operator.GE]
#: numbers whose int and float spellings collide (3 / 3.0, 0 / 0.0)
_NUMBERS = st.one_of(
    st.integers(-6, 6), st.sampled_from([-2.5, 0.0, 0.5, 3.0, 1e9])
)
_WORDS = st.text(alphabet="ab", max_size=3)
#: event values: numbers, NaN and infinities, bools, strings — on
#: numeric and string attributes alike
_EVENT_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    _WORDS,
)


def _phase1_predicates():
    """Predicates stressing phase 1's batch form: numeric and string
    order bounds on the same attribute, ``True`` vs ``1`` operands, plus
    every operator family of :func:`predicate_strategy`."""
    attribute = st.sampled_from(["a", "b", "s"])
    return st.one_of(
        predicate_strategy(),
        st.builds(Predicate, attribute, st.sampled_from(_ORDER_OPERATORS), _NUMBERS),
        st.builds(Predicate, attribute, st.sampled_from(_ORDER_OPERATORS), _WORDS),
        st.builds(
            Predicate,
            attribute,
            st.sampled_from([Operator.EQ, Operator.NE]),
            st.sampled_from([True, False, 1, 0, 1.0]),
        ),
        st.builds(
            lambda a, values: Predicate(a, Operator.IN, values),
            attribute,
            st.sets(st.sampled_from([True, 1, 0, 2.0, "a"]), min_size=1),
        ),
    )


def _phase1_batches():
    return st.lists(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "s", "t"]), _EVENT_VALUES, max_size=4
        ).map(Event),
        min_size=1,
        max_size=12,
    )


class TestIndexManagerBits:
    @given(
        st.lists(_phase1_predicates(), min_size=1, max_size=14),
        st.lists(
            st.tuples(
                _phase1_batches(),
                st.lists(st.integers(0, 63), max_size=4),
                st.lists(_phase1_predicates(), max_size=4),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_match_batch_bits_equals_match_batch(self, predicates, rounds):
        """The event-space batch form equals per-event ``match`` — and
        the predicates' own evaluation — through add/remove between
        batches.  Half the predicates are registered twice under fresh
        ids, so order bounds are shared by several ids; a small B+ tree
        order spreads each tree over several leaves."""
        manager = IndexManager(btree_order=4)
        live: dict[int, Predicate] = {}

        def add(predicate):
            predicate_id = len(live) + sum(1 for _ in removed) + 1
            manager.add(predicate, predicate_id)
            live[predicate_id] = predicate

        removed: list[int] = []
        for predicate in predicates + predicates[: len(predicates) // 2]:
            add(predicate)
        for events, removals, additions in rounds:
            expected = [manager.match(event) for event in events]
            assert expected == [
                {pid for pid, p in live.items() if p.matches(event)}
                for event in events
            ]
            matrix = manager.match_batch_bits(events)
            assert matrix.to_id_sets() == expected
            assert sorted(matrix.active_bits) == sorted(
                bit for bit, column in enumerate(matrix.columns) if column
            )
            assert manager.match_batch(events) == expected
            for index in removals:
                if live:
                    predicate_id = sorted(live)[index % len(live)]
                    assert manager.remove(predicate_id)
                    del live[predicate_id]
                    removed.append(predicate_id)
            for predicate in additions:
                add(predicate)

    def test_order_bounds_at_and_between_event_values(self):
        """Every order operator against bounds equal to, between and
        outside the batch's values — ints, equal floats, strings, NaN and
        bools in one batch — on a tree spread over several leaves."""
        manager = IndexManager(btree_order=3)
        bounds = [-1, 1, 2, 2.0, 2.5, 3, 9, "b", "bb"]
        predicates = {}
        for operator in _ORDER_OPERATORS:
            for bound in bounds:
                for _ in range(2):  # two ids per bound
                    predicate_id = len(predicates) + 1
                    predicates[predicate_id] = Predicate("v", operator, bound)
                    manager.add(predicates[predicate_id], predicate_id)
        values = [1, 2, 2.0, 3, "b", "a", "c", float("nan"), True, False]
        events = [Event({"v": value}) for value in values] + [Event({})]
        expected = [
            {pid for pid, p in predicates.items() if p.matches(event)}
            for event in events
        ]
        assert [manager.match(event) for event in events] == expected
        assert manager.match_batch_bits(events).to_id_sets() == expected
        # one value per batch: the walk limits sit on the bounds
        for event, wanted in zip(events, expected):
            assert manager.match_batch_bits([event]).to_id_sets() == [wanted]

    def test_layout_tracks_add_and_remove(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.GT, 1), 1)
        manager.add(Predicate("x", Operator.LT, 9), 2)
        layout = manager.bit_layout
        assert 1 in layout and 2 in layout
        epoch = layout.epoch
        assert manager.remove(1)
        assert 1 not in layout
        assert layout.epoch == epoch + 1
        # the freed bit is recycled by the next add; no stale resurrection
        manager.add(Predicate("y", Operator.EQ, 3), 3)
        assert layout.capacity == 2
        matrix = manager.match_batch_bits([Event({"x": 5}), Event({"y": 3})])
        assert matrix.to_id_sets() == [{2}, {3}]

    def test_answers_follow_add_and_remove(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.GT, 1), 1)
        events = [Event({"x": 5}), Event({"x": 5})]
        assert manager.match_batch_bits(events).to_id_sets() == [{1}, {1}]
        # a structural change shows in the very next batch
        manager.add(Predicate("x", Operator.GT, 4), 2)
        assert manager.match_batch_bits(events).to_id_sets() == [{1, 2}] * 2
        manager.remove(1)
        assert manager.match_batch_bits(events).to_id_sets() == [{2}, {2}]

    def test_duplicate_events_share_probe_work(self):
        manager = IndexManager()
        manager.add(Predicate("x", Operator.EQ, 7), 1)
        events = [Event({"x": 7})] * 5 + [Event({"x": 8})]
        matrix = manager.match_batch_bits(events)
        assert matrix.to_id_sets() == [{1}] * 5 + [set()]
        assert matrix.column(manager.bit_layout.bit_of(1)) == 0b011111


# -- engine parity: matrix phase 2 vs set-based phase 2 ----------------

#: (id, spec, allow_not) — all six registry engines, plus the
#: non-canonical codec/evaluation variants (same cases as
#: tests/test_batch_parity.py, so the CI engine matrix slices both
#: suites identically).
ENGINE_CASES = [
    ("noncanonical", EngineSpec("noncanonical"), True),
    (
        "noncanonical-varint",
        EngineSpec("noncanonical", {"codec": "varint"}),
        True,
    ),
    (
        "noncanonical-encoded",
        EngineSpec("noncanonical", {"evaluation": "encoded"}),
        True,
    ),
    ("paged", EngineSpec("paged"), True),
    ("bruteforce", EngineSpec("bruteforce"), True),
    (
        "counting",
        EngineSpec("counting", {"support_unsubscription": True}),
        False,
    ),
    ("counting-variant", EngineSpec("counting-variant"), False),
    ("matching-tree", EngineSpec("matching-tree"), False),
]

if SELECTED_ENGINE is not None:
    ENGINE_CASES = [
        case for case in ENGINE_CASES if case[1].name == SELECTED_ENGINE
    ]

_NUMERIC = ("price", "volume", "qty", "score")
_STRING = ("symbol", "category")


def _random_events(rng: random.Random, count: int) -> list[Event]:
    events = []
    for _ in range(count):
        attributes = {}
        for name in _NUMERIC:
            if rng.random() < 0.7:
                attributes[name] = rng.randint(0, 30)
        for name in _STRING:
            if rng.random() < 0.5:
                attributes[name] = "".join(
                    rng.choice("abcde") for _ in range(rng.randint(1, 3))
                )
        events.append(Event(attributes))
    return events


def _register(engine, generator, count: int) -> list[int]:
    registered = []
    for subscription in generator.subscriptions(count):
        try:
            engine.register(subscription)
        except UnsupportedSubscriptionError:
            continue
        registered.append(subscription.subscription_id)
    return registered


def _assert_matrix_parity(engine, events) -> None:
    """Matrix phase 2 must equal set phase 2 on the same phase-1 output,
    and the full batch path must equal per-event matching."""
    fulfilled_sets = engine.indexes.match_batch(events)
    matrix = FulfilledMatrix.from_id_sets(
        engine.indexes.bit_layout, fulfilled_sets
    )
    assert engine.match_fulfilled_matrix(matrix) == engine.match_fulfilled_batch(
        fulfilled_sets
    )
    assert engine.match_batch(events) == [engine.match(e) for e in events]


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_matrix_phase2_equals_set_phase2(spec, allow_not):
    rng = random.Random(20050610)
    engine = spec.build()
    generator = GeneralSubscriptionGenerator(
        seed=13, allow_not=allow_not, value_range=30
    )
    registered = _register(engine, generator, 50)
    assert registered, "workload registered nothing"
    _assert_matrix_parity(engine, _random_events(rng, 64))
    if hasattr(engine, "close"):  # the paged engine holds an arena file
        engine.close()


@pytest.mark.parametrize(
    "spec, allow_not",
    [case[1:] for case in ENGINE_CASES],
    ids=[case[0] for case in ENGINE_CASES],
)
def test_matrix_parity_survives_batch_flushed_churn(spec, allow_not):
    """Rounds of batch-flushed subscribe/unsubscribe: every round
    registers a fresh block, unregisters a random half of the live
    population, and re-checks matrix-vs-set parity — recycled bit
    positions must never resurrect an unregistered subscription."""
    rng = random.Random(8181)
    engine = spec.build()
    generator = GeneralSubscriptionGenerator(
        seed=29, allow_not=allow_not, value_range=30
    )
    events = _random_events(rng, 48)
    live: list[int] = []
    for _ in range(4):
        live.extend(_register(engine, generator, 15))
        _assert_matrix_parity(engine, events)
        rng.shuffle(live)
        doomed, live = live[: len(live) // 2], live[len(live) // 2 :]
        for subscription_id in doomed:
            engine.unregister(subscription_id)
        _assert_matrix_parity(engine, events)
        for subscription_id in doomed:
            assert all(
                subscription_id not in matched
                for matched in engine.match_batch(events)
            )
    # recycling bounds the bit space at the live high-water mark, not
    # total registration traffic (60 registrations flowed through)
    layout = engine.indexes.bit_layout
    assert layout.capacity <= 60 * 4
    if hasattr(engine, "close"):  # the paged engine holds an arena file
        engine.close()


def test_shared_layout_across_engines():
    """Engines sharing one IndexManager agree on bit positions: a matrix
    built once serves matrix-capable engines of different kinds."""
    registry = PredicateRegistry()
    indexes = IndexManager()
    specs = [
        EngineSpec("noncanonical"),
        EngineSpec("counting", {"support_unsubscription": True}),
        EngineSpec("counting-variant"),
    ]
    engines = [spec.build(registry=registry, indexes=indexes) for spec in specs]
    generator = GeneralSubscriptionGenerator(
        seed=5, allow_not=False, value_range=30
    )
    for subscription in generator.subscriptions(30):
        for engine in engines:
            try:
                engine.register(subscription)
            except UnsupportedSubscriptionError:
                break
    events = _random_events(random.Random(6), 32)
    fulfilled_sets = indexes.match_batch(events)
    matrix = FulfilledMatrix.from_id_sets(indexes.bit_layout, fulfilled_sets)
    for engine in engines:
        assert engine.match_fulfilled_matrix(matrix) == engine.match_fulfilled_batch(
            fulfilled_sets
        )
