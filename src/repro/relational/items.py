"""Item sets as bitmaps over one process-wide item dictionary.

Every plan of the paper moves *sets of items* between the sources'
``sq`` / ``sjq`` answers and the mediator's local ``∪`` / ``∩`` / ``−``
(Sec. 2.3, Sec. 4).  Kept as ``frozenset`` objects, each of those steps
hashes every item again.  Here an item is interned once, in
:data:`INDEX`, as a dense integer id; an :class:`ItemSet` is a python
``int`` whose bit ``i`` says whether item ``i`` is in the set, so ``∪``
/ ``∩`` / ``−`` are one ``|`` / ``&`` / ``& ~`` each, and ``len`` is
``int.bit_count``.

Only ``str`` and non-``bool`` ``int`` items are interned: for those two
types ``==`` implies the same type, so the object a set hands back for
an item never depends on which equal object was interned first.  Any
other item (``1.0``, ``True``, ``None``, ...) keeps an item set a plain
``frozenset`` — see :func:`repro.relational.columnar.union_items` for
the one rule that combines the two kinds.

An :class:`ItemSet` decodes to a ``frozenset`` once, when something
iterates it, and keeps the result (:func:`as_frozenset`); the executors
do exactly that with a plan's answer, so everything a caller receives
is an ordinary ``frozenset``.  The bitmap itself stays beside the
decoded answer (``ExecutionResult.item_set``): the second phase — an
aggregate query's fetch or pushdown, a two-phase record fetch — sends
it to the sources, where each membership mask is one flag gather.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Set
from functools import reduce
from itertools import compress, filterfalse, repeat
from operator import is_, or_
from typing import Any, Iterable, Iterator, Sequence

#: The item types :class:`ItemIndex` interns (exact types: no ``bool``,
#: no ``str`` / ``int`` subclasses).
INTERNABLE = frozenset({str, int})

#: ``bin()`` digits to one flag byte each (``b"0"`` → 0, ``b"1"`` → 1).
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_ONE = ord("1")

#: Bitmaps up to this wide are built by OR-ing ``1 << id`` (constant
#: cost per id at this width) instead of through their digits.
_WORD_BITS = 64


class ItemIndex:
    """An append-only dictionary from item to dense integer id.

    Like ``sys.intern``: one per process (:data:`INDEX`), ids are never
    reused or reassigned, ``values[id]`` is the item.  A lookup takes no
    lock; only adding new items does, so concurrent readers and writers
    always agree on every id that exists.
    """

    __slots__ = ("values", "_ids", "_lock")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self._ids: dict[Any, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    def get(self, value: Any) -> int | None:
        """The id of an item equal to ``value``, or None if none is interned."""
        return self._ids.get(value)

    def intern(self, value: Any) -> int:
        """The id of ``value`` (a ``str`` or an ``int``), adding it when new."""
        if type(value) not in INTERNABLE:
            raise TypeError(f"only str and int items are interned, not {value!r}")
        found = self._ids.get(value)
        if found is None:
            self._add([value])
            found = self._ids[value]
        return found

    def ids(self, values: Sequence[Any]) -> list[int] | None:
        """One id per value, interning new ones; None when a value is not
        of an :data:`INTERNABLE` type."""
        if not INTERNABLE.issuperset(map(type, values)):
            return None
        ids = list(map(self._ids.get, values))
        if None in ids:
            self._add(dict.fromkeys(compress(values, map(is_, ids, repeat(None)))))
            ids = list(map(self._ids.get, values))
        return ids

    def _add(self, candidates: Iterable[Any]) -> None:
        with self._lock:
            fresh = list(filterfalse(self._ids.__contains__, candidates))
            start = len(self.values)
            # The values are readable before their ids are published.
            self.values.extend(fresh)
            self._ids.update(zip(fresh, range(start, start + len(fresh))))


#: The process-wide item dictionary every :class:`ItemSet` refers to.
INDEX = ItemIndex()


class ItemSet(Set):
    """An immutable set of interned items: a bitmap over :data:`INDEX`.

    A ``collections.abc.Set`` that compares, hashes and iterates like the
    ``frozenset`` of its items.  Between two item sets ``==`` / ``<=`` /
    ``|`` / ``&`` / ``-`` are integer operations; against any other set
    the item set decodes and the ``frozenset`` operator runs.  ``in`` is
    one dictionary lookup and a bit test.
    """

    __slots__ = ("_bits", "_decoded")

    def __init__(self, bits: int = 0):
        self._bits = bits
        self._decoded: frozenset[Any] | None = None

    @classmethod
    def from_ids(cls, ids: Iterable[int], bound: int) -> "ItemSet":
        """The set of the given ids, each below ``bound``.

        One byte per id below ``bound`` and a single ``int(..., 2)`` —
        O(ids + bound) in C, never a shift of a wide bitmap per id.  A
        bitmap of at most :data:`_WORD_BITS` bits is a word or two, and
        OR-ing shifted ones into it costs less than building the digits.
        """
        if bound <= _WORD_BITS:
            return cls(reduce(or_, map((1).__lshift__, ids), 0))
        digits = bytearray(b"0") * bound
        deque(map(digits.__setitem__, ids, repeat(_DIGIT_ONE)), maxlen=0)
        digits.reverse()
        return cls(int(digits, 2))

    def flags(self, width: int = 0) -> bytes:
        """One byte per id, 1 for a member — at least ``width`` bytes."""
        return bin(self._bits)[:1:-1].encode("ascii").translate(_FLAGS).ljust(width, b"\0")

    def decoded(self) -> frozenset[Any]:
        """The ``frozenset`` of the items (built on first use, then kept)."""
        if self._decoded is None:
            self._decoded = self._decode()
        return self._decoded

    def _decode(self) -> frozenset[Any]:
        return frozenset(compress(INDEX.values, self.flags()))

    # -- the Set protocol ------------------------------------------------

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, value: object) -> bool:
        found = INDEX.get(value)
        return found is not None and self._bits >> found & 1 == 1

    def __iter__(self) -> Iterator[Any]:
        return iter(self.decoded())

    def __hash__(self) -> int:
        return hash(self.decoded())

    def __repr__(self) -> str:
        if not self._bits:
            return "ItemSet()"
        return "ItemSet({%s})" % ", ".join(sorted(map(repr, self.decoded())))

    def __reduce__(self):
        # Ids mean nothing outside this process: pickle the items.
        return items_of, (tuple(self.decoded()),)

    def __eq__(self, other: object) -> bool:
        if type(other) is ItemSet:
            return self._bits == other._bits
        if isinstance(other, Set):
            return self.decoded() == other
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if type(other) is ItemSet:
            return not self._bits & ~other._bits
        if isinstance(other, Set):
            return self.decoded() <= other
        return NotImplemented

    def __or__(self, other: object):
        if type(other) is ItemSet:
            return ItemSet(self._bits | other._bits)
        if isinstance(other, Set):
            return self.decoded() | other
        return NotImplemented

    def __and__(self, other: object):
        if type(other) is ItemSet:
            return ItemSet(self._bits & other._bits)
        if isinstance(other, Set):
            return self.decoded() & other
        return NotImplemented

    def __sub__(self, other: object):
        if type(other) is ItemSet:
            return ItemSet(self._bits & ~other._bits)
        if isinstance(other, Set):
            return self.decoded() - other
        return NotImplemented

    # ``frozenset`` op ``ItemSet``: the frozenset declines, we decode.
    def __ror__(self, other: object):
        return other | self.decoded() if isinstance(other, Set) else NotImplemented

    def __rand__(self, other: object):
        return other & self.decoded() if isinstance(other, Set) else NotImplemented

    def __rsub__(self, other: object):
        return other - self.decoded() if isinstance(other, Set) else NotImplemented

    # ``<``, ``>=``, ``>``, ``^`` and ``isdisjoint`` are the ``Set`` mixins,
    # written in terms of the operators above.
    @classmethod
    def _from_iterable(cls, values: Iterable[Any]) -> "ItemSet | frozenset[Any]":
        return items_of(values)


#: The empty item set (its ``decoded()`` is ``frozenset()``).
EMPTY_ITEMS = ItemSet()


def union_of(operands: Iterable[Any]) -> ItemSet | None:
    """``X_1 ∪ ... ∪ X_k`` as one OR when every operand is an
    :class:`ItemSet` (the empty union included); otherwise None."""
    bits = 0
    for operand in operands:
        if type(operand) is not ItemSet:
            return None
        bits |= operand._bits
    return ItemSet(bits)


def intersection_of(operands: Iterable[Any]) -> ItemSet | None:
    """``X_1 ∩ ... ∩ X_k`` (k ≥ 1) as one AND when every operand is an
    :class:`ItemSet`; otherwise None."""
    bits = -1
    for operand in operands:
        if type(operand) is not ItemSet:
            return None
        bits &= operand._bits
    return ItemSet(bits)


def items_of(values: Iterable[Any]) -> "ItemSet | frozenset[Any]":
    """The item set of ``values``: an :class:`ItemSet` when every value is
    of an :data:`INTERNABLE` type, otherwise their ``frozenset``."""
    values = list(values)
    ids = INDEX.ids(values)
    if ids is None:
        return frozenset(values)
    return ItemSet.from_ids(ids, max(ids, default=-1) + 1)


def as_frozenset(items: Iterable[Any]) -> frozenset[Any]:
    """An answer in its public form: an :class:`ItemSet` decoded (once),
    a ``frozenset`` as it is, anything else copied into one."""
    if type(items) is ItemSet:
        return items.decoded()
    return items if type(items) is frozenset else frozenset(items)
