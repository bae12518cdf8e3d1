"""Set partitions of [n] in canonical form, plus structural measures.

A set partition splits {1, ..., n} into disjoint nonempty blocks whose
union is the whole ground set. Values are immutable; equality and hashing
are structural on the canonical form (blocks ordered by their minimum,
elements ascending inside each block). The element-to-block map ``block_of``
and the restricted growth string ``rgs`` are built on first use, outside the value.

Text notation joins blocks with "/". For n <= 9 the elements of a block
are written as bare digits ("134/25"); for n >= 10 they are
comma-separated ("1,10,12/2,3"). ``parse`` accepts both forms.
"""

from __future__ import annotations

import itertools
from operator import lt
from typing import Any, Iterable

__all__ = [
    "IntervalCut",
    "LayeredShape",
    "ParseError",
    "SetPartition",
    "format_partition",
    "is_layered",
    "is_permutation_partition",
    "parse",
    "permeability",
    "permeability_oracle",
    "sba",
    "standardize",
]


class ParseError(ValueError):
    """Text is not valid slash notation; ``position`` is a 0-based character index."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Value:
    """Base of partpat's immutable value types.

    A subclass names its fields, in constructor order, in ``_fields``,
    keeps them in ``__slots__`` and sets them once, at the end of its
    ``__init__``, through ``_assign`` (or ``object.__setattr__``, which
    saves the method call, in the constructors that run once per query).
    Values are equal only when they have the same class and equal fields;
    the hash is that of the field tuple, the repr is
    ``Name(field=value, ...)``, assignment raises AttributeError, and
    pickling or copying rebuilds through the constructor, checks included.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values: Any) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._values()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _increasing_ints(values: Iterable[int], message: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ValueError(message) unless strictly increasing."""
    out = tuple(map(int, values))
    if not all(map(lt, out, out[1:])):
        raise ValueError(message)
    return out


class SetPartition(_Value):
    """A partition of {1, ..., n} into disjoint nonempty blocks.

    The constructor canonicalizes and validates: blocks are re-sorted, and
    the element multiset must be exactly 1..n. The empty partition (n = 0,
    no blocks) is a valid value. ``block_of[e]`` and ``rgs[e - 1]`` give
    the index of the block holding e; both are built on first use and take
    no part in equality, hashing, repr or pickling.

    >>> parse("134/25").rgs
    (0, 1, 0, 0, 1)
    """

    __slots__ = ("n", "blocks", "block_of", "rgs")
    _fields = ("n", "blocks")
    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: dict[int, int]  # element -> index of its block, built on first use
    rgs: tuple[int, ...]  # rgs[e - 1] = block_of[e], built on first use

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]) -> None:
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        canon = list(map(tuple, map(sorted, blocks)))
        flat = list(itertools.chain.from_iterable(canon))
        if not (
            len(flat) == n
            and all(canon)
            and all(map(isinstance, flat, itertools.repeat(int)))
            and sorted(flat) == list(range(1, len(flat) + 1))
        ):
            raise _partition_fault(n, canon)
        # the blocks are disjoint, so tuple order is order by least element
        canon.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(canon))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Build from any iterable of blocks, inferring n from the largest element."""
        mat = list(map(tuple, blocks))
        return cls(max(itertools.chain.from_iterable(mat), default=0), mat)

    def __getattr__(self, name: str) -> Any:
        # Called only when normal lookup fails, as it does for block_of and
        # rgs until their slots are set: each is built on first use and read
        # as a plain slot from then on.
        if name == "block_of":
            value: Any = {e: i for i, b in enumerate(self.blocks) for e in b}
        elif name == "rgs":
            value = tuple(map(self.block_of.__getitem__, range(1, self.n + 1)))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __str__(self) -> str:
        return format_partition(self)


def _partition_fault(n: int, canon: list[tuple[int, ...]]) -> ValueError:
    """The first fault, in block order, of blocks that do not partition [n]."""
    seen: set[int] = set()
    for ordered in canon:
        if not ordered:
            return ValueError("empty block")
        for e in ordered:
            if not isinstance(e, int) or e < 1:
                return ValueError(f"element {e!r} is not a positive integer")
            if e in seen:
                return ValueError(f"duplicate element {e}")
            seen.add(e)
    if seen and max(seen) > n:
        return ValueError(f"element {max(seen)} exceeds ground size {n}")
    missing = next(e for e in range(1, n + 1) if e not in seen)
    return ValueError(f"missing element {missing}")


def parse(text: str) -> SetPartition:
    """Parse slash notation into a canonical partition.

    A text containing a comma or the digit 0 is read in comma form, where
    each block is a comma-separated list of decimal elements; otherwise
    every character of a block is a single-digit element. Any partition
    with n >= 10 contains the element 10, whose rendering includes a "0",
    so the dispatch never misreads a formatted partition. The empty string
    denotes the empty partition.

    >>> parse("134/25").blocks
    ((1, 3, 4), (2, 5))
    >>> str(parse("21/3"))
    '12/3'
    >>> parse("1").n
    1
    """
    if text == "":
        return SetPartition(0, ())
    comma_form = "," in text or "0" in text
    positions: dict[int, int] = {}
    blocks: list[list[int]] = []
    cursor = 0
    for token in text.split("/"):
        if not token:
            raise ParseError("empty block", cursor)
        elems: list[int] = []
        if comma_form:
            offset = 0
            for piece in token.split(","):
                if not piece or not (piece.isascii() and piece.isdigit()):
                    raise ParseError(f"malformed element {piece!r}", cursor + offset)
                value = int(piece)
                if value == 0:
                    raise ParseError("element 0 is not allowed", cursor + offset)
                _note_element(value, cursor + offset, positions)
                elems.append(value)
                offset += len(piece) + 1
        else:
            for offset, ch in enumerate(token):
                if ch not in "123456789":
                    raise ParseError(f"malformed character {ch!r}", cursor + offset)
                _note_element(int(ch), cursor + offset, positions)
                elems.append(int(ch))
        blocks.append(elems)
        cursor += len(token) + 1
    n = max(positions)
    for e in range(1, n + 1):
        if e not in positions:
            raise ParseError(f"missing element {e}", len(text))
    return SetPartition(n, blocks)


def _note_element(value: int, position: int, positions: dict[int, int]) -> None:
    if value in positions:
        raise ParseError(f"duplicate element {value}", position)
    positions[value] = position


def format_partition(p: SetPartition) -> str:
    """Canonical slash notation; comma form exactly when n >= 10.

    >>> format_partition(SetPartition.from_blocks([(2, 5), (1, 3, 4)]))
    '134/25'
    """
    if p.n >= 10:
        return "/".join(",".join(map(str, b)) for b in p.blocks)
    return "/".join("".join(map(str, b)) for b in p.blocks)


def standardize(elements: Iterable[int], host: SetPartition) -> SetPartition:
    """Restriction of host to ``elements``, relabeled onto [k] by the increasing bijection.

    Two elements share a block in the result exactly when they share a
    block in the host.

    >>> str(standardize({1, 3, 5}, parse("124/35")))
    '1/23'
    """
    chosen = sorted(set(elements))
    if not chosen:
        raise ValueError("cannot standardize an empty element set")
    if chosen[0] < 1 or chosen[-1] > host.n:
        raise ValueError(f"elements must lie in 1..{host.n}")
    grouped: dict[int, list[int]] = {}
    for rank, e in enumerate(chosen, start=1):
        grouped.setdefault(host.block_of[e], []).append(rank)
    return SetPartition(len(chosen), grouped.values())


class LayeredShape(_Value):
    """Block sizes (a_1, ..., a_r) of a layered partition: the smallest a_1
    elements form one block, the next a_2 the second, and so on."""

    __slots__ = _fields = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(map(int, parts))
        if parts and min(parts) < 1:
            raise ValueError("layer sizes must be positive")
        self._assign(parts)

    @property
    def k(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    def to_partition(self) -> SetPartition:
        blocks = []
        start = 1
        for a in self.parts:
            blocks.append(tuple(range(start, start + a)))
            start += a
        return SetPartition(start - 1, tuple(blocks))


def is_layered(p: SetPartition) -> LayeredShape | None:
    """The layer sizes if every block is an interval of consecutive integers, else None.

    >>> is_layered(parse("12/345/67")).parts
    (2, 3, 2)
    >>> is_layered(parse("13/245/67")) is None
    True
    """
    parts = []
    for b in p.blocks:
        if b[-1] - b[0] + 1 != len(b):
            return None
        parts.append(len(b))
    return LayeredShape(tuple(parts))


def is_permutation_partition(p: SetPartition) -> tuple[int, ...] | None:
    """The permutation s with blocks {r, k + s(r)} if p has that form, else None.

    Requires n = 2k with every block pairing an element <= k with one > k.
    The empty partition yields the empty permutation.

    >>> is_permutation_partition(parse("14/23"))
    (2, 1)
    >>> is_permutation_partition(parse("123")) is None
    True
    """
    if p.n % 2:
        return None
    k = p.n // 2
    sigma = []
    for r, block in enumerate(p.blocks, start=1):
        if len(block) != 2:
            return None
        lo, hi = block
        if lo != r or hi <= k:
            return None
        sigma.append(hi - k)
    return tuple(sigma)


def sba(p: SetPartition) -> int:
    """Number of positions i in 1..n-1 with i and i+1 in the same block."""
    bo = p.block_of
    return sum(1 for i in range(1, p.n) if bo[i] == bo[i + 1])


class IntervalCut(_Value):
    """Cut positions in 1..n-1; cutting after each yields len(cuts)+1 intervals."""

    __slots__ = _fields = ("cuts",)
    cuts: tuple[int, ...]

    def __init__(self, cuts: Iterable[int]) -> None:
        message = "cuts must be strictly increasing positive positions"
        cuts = _increasing_ints(cuts, message)
        if cuts and cuts[0] < 1:
            raise ValueError(message)
        self._assign(cuts)

    def intervals(self, n: int) -> list[tuple[int, int]]:
        """The induced intervals of [n] as inclusive (lo, hi) pairs."""
        if n == 0:
            if self.cuts:
                raise ValueError("cuts on an empty ground set")
            return []
        if self.cuts and self.cuts[-1] >= n:
            raise ValueError(f"cut {self.cuts[-1]} out of range for n={n}")
        bounds = (0,) + self.cuts + (n,)
        return [(lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])]


def permeability(p: SetPartition) -> tuple[int, IntervalCut]:
    """Minimum number of cuts so each interval has at most one element per block.

    Greedy: extend each interval as far right as possible before cutting,
    which is optimal by the usual exchange argument; ``permeability_oracle``
    provides an exhaustive cross-check. Returns the count and the witness
    cut set (the leftmost-maximal one).

    >>> permeability(parse("13/24"))
    (1, IntervalCut(cuts=(2,)))
    """
    bo = p.block_of
    cuts: list[int] = []
    seen: set[int] = set()
    for e in range(1, p.n + 1):
        b = bo[e]
        if b in seen:
            cuts.append(e - 1)
            seen = {b}
        else:
            seen.add(b)
    return len(cuts), IntervalCut(tuple(cuts))


def permeability_oracle(p: SetPartition) -> int:
    """Exhaustive minimum over all cut sets, for cross-checking the greedy routine."""
    if p.n == 0:
        return 0
    bo = p.block_of

    def feasible(cuts: tuple[int, ...]) -> bool:
        boundaries = set(cuts)
        seen: set[int] = set()
        for e in range(1, p.n + 1):
            b = bo[e]
            if b in seen:
                return False
            seen.add(b)
            if e in boundaries:
                seen.clear()
        return True

    for m in range(p.n):
        for cuts in itertools.combinations(range(1, p.n), m):
            if feasible(cuts):
                return m
    raise AssertionError("unreachable: cutting everywhere is always feasible")
