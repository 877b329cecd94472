"""Bit-packed phase-2 kernel: predicate-bit layouts and batch bitmaps.

Phase 1 produces *sets* of fulfilled predicate ids; until PR 8, phase 2
consumed them one Python set operation at a time.  This module re-encodes
fulfillment state as packed bitmaps so the engines' hot paths become bulk
word-wise AND/OR over contiguous memory (the ``BitList``/``CompressedList``
idiom of the C++ exemplar in SNIPPETS.md Snippet 3):

* :class:`BitLayout` — a dense ``predicate id -> bit position`` mapping
  with free-list recycling and an epoch counter, owned by the
  :class:`~repro.indexes.manager.IndexManager` so every engine sharing a
  manager agrees on bit positions;
* :class:`Bitmap` — a fixed-width bitmap over ``array('Q')`` machine
  words: word-indexed set/test/clear, word-wise AND/OR/ANDNOT/NOT with
  explicit trailing-word masking, and table-driven popcount.  This is
  the explicit-word reference form; its operations are what the int
  fast path below must agree with (and the unit tests prove it);
* :class:`FulfilledMatrix` — the batch form: one *column* per predicate
  bit, each column an event-space integer whose bit ``i`` says "event
  ``i`` fulfils this predicate".  CPython's arbitrary-precision integers
  are little-endian arrays of machine words with C-level bitwise
  operators, so ``column_a & column_b`` is exactly the word-loop
  ``Bitmap.and_`` runs — minus the Python-level loop.  Evaluating a
  subscription clause over the whole batch is then a handful of int
  ANDs/ORs instead of per-event set algebra.

The module is self-contained (no ``repro`` imports) so the index manager
can import it lazily without touching the ``core`` package cycle.

Churn soundness
---------------
A bit position is recycled only through :meth:`BitLayout.release`, which
the index manager calls when a predicate id is dropped from the indexes —
and that happens only once the predicate registry's refcount hits zero,
i.e. once *no* live subscription in *any* engine sharing the manager
references the predicate.  A recycled bit therefore can never appear in
a live requirement mask, so stale bits cannot resurrect matches (the
PR 5 IntervalIndex tombstone lesson, applied by construction).  The
``epoch`` counter still advances on every release/compaction as a guard:
derived state that snapshots bit positions can detect invalidation
instead of trusting the argument above.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

#: Bits per bitmap word; matches the ``array('Q')`` element width.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

#: Table-driven popcount: set-bit count per byte value.  The C++ exemplar
#: folds nibbles through a 16-entry table; one byte per entry keeps the
#: lookup a single index on bytes-like views.
POPCOUNT8 = bytes(bin(value).count("1") for value in range(256))


def popcount(value: int) -> int:
    """Set-bit count of a non-negative int (C-level ``bit_count``).

    The int fast path of the table-driven :func:`popcount_bytes`; the
    unit tests pin the two to each other across word boundaries.
    """
    return value.bit_count()


def popcount_bytes(data: Iterable[int]) -> int:
    """Table-driven popcount over a bytes-like view of bitmap words."""
    table = POPCOUNT8
    return sum(table[byte] for byte in data)


def iter_bits(value: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def trailing_word_mask(nbits: int) -> int:
    """Mask selecting the valid bits of an ``nbits`` bitmap's last word.

    Full when ``nbits`` is a word multiple; otherwise the low
    ``nbits % WORD_BITS`` bits.  Every :class:`Bitmap` operation that
    could set bits past ``nbits`` (NOT, ``from_int``) applies it, so the
    invariant "bits at or above ``nbits`` are zero" always holds.
    """
    remainder = nbits % WORD_BITS
    return _WORD_MASK if remainder == 0 else (1 << remainder) - 1


class Bitmap:
    """Fixed-width bitmap backed by an ``array('Q')`` of machine words.

    The explicit word-indexed form of the kernel: bit ``i`` lives in
    word ``i >> 6`` at position ``i & 63``.  Binary operations require
    equal widths; results are fresh bitmaps (operands untouched).
    """

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int) -> None:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        self.nbits = nbits
        word_count = (nbits + WORD_BITS - 1) // WORD_BITS
        self.words = array("Q", bytes(8 * word_count))

    # -- construction / conversion -------------------------------------
    @classmethod
    def from_int(cls, value: int, nbits: int) -> "Bitmap":
        """Bitmap of width ``nbits`` from an int (excess bits masked off)."""
        if value < 0:
            raise ValueError("value must be non-negative")
        bitmap = cls(nbits)
        value &= (1 << nbits) - 1
        words = bitmap.words
        for index in range(len(words)):
            words[index] = value & _WORD_MASK
            value >>= WORD_BITS
        return bitmap

    def to_int(self) -> int:
        """The bitmap as a little-endian-word integer."""
        value = 0
        shift = 0
        for word in self.words:
            value |= word << shift
            shift += WORD_BITS
        return value

    # -- single-bit access ---------------------------------------------
    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range [0, {self.nbits})")

    def set(self, index: int) -> None:
        self._check_index(index)
        self.words[index >> 6] |= 1 << (index & 63)

    def clear(self, index: int) -> None:
        self._check_index(index)
        self.words[index >> 6] &= _WORD_MASK ^ (1 << (index & 63))

    def test(self, index: int) -> bool:
        self._check_index(index)
        return bool(self.words[index >> 6] & (1 << (index & 63)))

    # -- word-wise binary operations -----------------------------------
    def _check_width(self, other: "Bitmap") -> None:
        if self.nbits != other.nbits:
            raise ValueError(f"width mismatch: {self.nbits} vs {other.nbits} bits")

    def and_(self, other: "Bitmap") -> "Bitmap":
        """Word-wise AND (new bitmap)."""
        self._check_width(other)
        result = Bitmap(self.nbits)
        result.words = array("Q", (a & b for a, b in zip(self.words, other.words)))
        return result

    def or_(self, other: "Bitmap") -> "Bitmap":
        """Word-wise OR (new bitmap)."""
        self._check_width(other)
        result = Bitmap(self.nbits)
        result.words = array("Q", (a | b for a, b in zip(self.words, other.words)))
        return result

    def andnot(self, other: "Bitmap") -> "Bitmap":
        """Word-wise AND-NOT: bits set here and clear in ``other``."""
        self._check_width(other)
        result = Bitmap(self.nbits)
        result.words = array(
            "Q", (a & (b ^ _WORD_MASK) for a, b in zip(self.words, other.words))
        )
        return result

    def invert(self) -> "Bitmap":
        """Word-wise NOT, with the trailing word masked to ``nbits``."""
        result = Bitmap(self.nbits)
        result.words = array("Q", (word ^ _WORD_MASK for word in self.words))
        if result.words:
            result.words[-1] &= trailing_word_mask(self.nbits)
        return result

    # -- aggregate queries ---------------------------------------------
    def popcount(self) -> int:
        """Set-bit count, via the byte table (:data:`POPCOUNT8`)."""
        return popcount_bytes(self.words.tobytes())

    def __iter__(self) -> Iterator[int]:
        """Ascending positions of the set bits."""
        base = 0
        for word in self.words:
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low
            base += WORD_BITS

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self.words == other.words

    def __len__(self) -> int:
        return self.nbits

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self.nbits}, value={self.to_int():#x})"


class BitLayout:
    """Dense ``predicate id -> bit position`` layout with recycling.

    ``bits`` (id -> bit) and ``pids`` (bit -> id, ``None`` for free
    slots) are exposed directly for hot-path indexing — treat them as
    read-only and mutate only through :meth:`assign` / :meth:`release` /
    :meth:`compact`.  Released bit positions go to a free list and are
    recycled by later assignments, so the bit-space capacity is bounded
    by the high-water mark of simultaneously live predicates, not by
    total registration traffic.  ``epoch`` advances whenever any
    existing position's meaning could change (release, compaction).
    """

    __slots__ = ("bits", "pids", "free", "epoch")

    def __init__(self) -> None:
        self.bits: dict[int, int] = {}
        self.pids: list[int | None] = []
        self.free: list[int] = []
        self.epoch = 0

    def assign(self, predicate_id: int) -> int:
        """The bit position for ``predicate_id``, allocating if new.

        Idempotent: re-assigning a live id returns its existing bit.
        """
        bit = self.bits.get(predicate_id)
        if bit is not None:
            return bit
        if self.free:
            bit = self.free.pop()
            self.pids[bit] = predicate_id
        else:
            bit = len(self.pids)
            self.pids.append(predicate_id)
        self.bits[predicate_id] = bit
        return bit

    def release(self, predicate_id: int) -> bool:
        """Free the id's bit for recycling; ``False`` if it was not live."""
        bit = self.bits.pop(predicate_id, None)
        if bit is None:
            return False
        self.pids[bit] = None
        self.free.append(bit)
        self.epoch += 1
        return True

    def compact(self) -> dict[int, int]:
        """Renumber live bits densely; returns the old->new bit remap.

        Shrinks :attr:`capacity` to the live count and empties the free
        list.  Every externally held bit position is invalidated — the
        epoch bump is the signal; callers owning masks must rebuild them
        through the remap.
        """
        remap: dict[int, int] = {}
        pids: list[int | None] = []
        for old_bit, pid in enumerate(self.pids):
            if pid is None:
                continue
            remap[old_bit] = len(pids)
            pids.append(pid)
        self.pids = pids
        self.bits = {pid: bit for bit, pid in enumerate(pids)}
        self.free = []
        self.epoch += 1
        return remap

    # -- queries --------------------------------------------------------
    def bit_of(self, predicate_id: int) -> int:
        """The bit position of a live predicate id (KeyError otherwise)."""
        return self.bits[predicate_id]

    def pid_at(self, bit: int) -> int | None:
        """The predicate id at ``bit``, or ``None`` for a free slot."""
        return self.pids[bit]

    def bits_of(self, predicate_ids: Iterable[int]) -> tuple[int, ...]:
        """Bit positions for an iterable of live predicate ids."""
        bits = self.bits
        return tuple(bits[pid] for pid in predicate_ids)

    @property
    def capacity(self) -> int:
        """Allocated bit-space width (live + free slots)."""
        return len(self.pids)

    def __len__(self) -> int:
        """Number of live (assigned) predicate ids."""
        return len(self.bits)

    def __contains__(self, predicate_id: int) -> bool:
        return predicate_id in self.bits

    def __repr__(self) -> str:
        return (
            f"BitLayout(live={len(self.bits)}, capacity={self.capacity}, "
            f"epoch={self.epoch})"
        )


class FulfilledMatrix:
    """Column-major batch form of phase-1 output.

    ``columns[bit]`` is an event-space integer: bit ``i`` set means
    event ``i`` fulfils the predicate at layout position ``bit``.
    ``active_bits`` lists the nonzero columns (typically a small
    fraction of the layout), so consumers never scan the full width.
    The row view (one bitmap per event, the transpose) is available for
    reference and fallback paths; the columns are the hot form because
    one subscription clause evaluates against *all* events with a
    couple of int operations.
    """

    __slots__ = ("layout", "columns", "active_bits", "event_count", "epoch", "_id_sets")

    def __init__(
        self,
        layout: BitLayout,
        columns: list[int],
        active_bits: list[int],
        event_count: int,
    ) -> None:
        self.layout = layout
        self.columns = columns
        self.active_bits = active_bits
        self.event_count = event_count
        self.epoch = layout.epoch
        self._id_sets: list[set[int]] | None = None

    @classmethod
    def from_id_sets(
        cls, layout: BitLayout, fulfilled_sets: Sequence[Iterable[int]]
    ) -> "FulfilledMatrix":
        """Transpose per-event fulfilled-id sets into column form.

        The set-based reference construction — tests pit engine matrix
        paths against set paths through it.
        """
        columns = [0] * layout.capacity
        active_bits: list[int] = []
        bit_of = layout.bits
        event_bit = 1
        for fulfilled in fulfilled_sets:
            for pid in fulfilled:
                bit = bit_of[pid]
                if not columns[bit]:
                    active_bits.append(bit)
                columns[bit] |= event_bit
            event_bit <<= 1
        return cls(layout, columns, active_bits, len(fulfilled_sets))

    @property
    def all_events_mask(self) -> int:
        """Event-space mask with every event's bit set."""
        return (1 << self.event_count) - 1

    def column(self, bit: int) -> int:
        """The event-space column at layout position ``bit``."""
        return self.columns[bit]

    def row(self, index: int) -> int:
        """Event ``index``'s fulfilled bits as a layout-space integer."""
        if not 0 <= index < self.event_count:
            raise IndexError(f"event {index} out of range")
        event_bit = 1 << index
        row = 0
        columns = self.columns
        for bit in self.active_bits:
            if columns[bit] & event_bit:
                row |= 1 << bit
        return row

    def row_bitmap(self, index: int) -> Bitmap:
        """Event ``index``'s row as a :class:`Bitmap` over the layout."""
        return Bitmap.from_int(self.row(index), self.layout.capacity)

    def active_pids(self) -> list[int]:
        """Predicate ids fulfilled by at least one event in the batch."""
        pids = self.layout.pids
        return [pids[bit] for bit in self.active_bits]

    def to_id_sets(self) -> list[set[int]]:
        """Expand back to per-event fulfilled predicate id sets (cached).

        The bridge to set-based phase 2: engines without a matrix path
        (and closure-mode fallbacks) consume this; building it costs one
        pass over the set bits, paid at most once per matrix.
        """
        if self._id_sets is None:
            sets: list[set[int]] = [set() for _ in range(self.event_count)]
            pids = self.layout.pids
            for bit in self.active_bits:
                pid = pids[bit]
                column = self.columns[bit]
                while column:
                    low = column & -column
                    sets[low.bit_length() - 1].add(pid)
                    column ^= low
            self._id_sets = sets
        return self._id_sets

    def __repr__(self) -> str:
        return (
            f"FulfilledMatrix(events={self.event_count}, "
            f"active_bits={len(self.active_bits)}, "
            f"capacity={self.layout.capacity})"
        )
