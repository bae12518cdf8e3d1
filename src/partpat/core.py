"""Set partitions of [n] in canonical form, plus structural measures.

A set partition splits {1, ..., n} into disjoint nonempty blocks whose
union is the whole ground set. Values are immutable; equality and hashing
are structural on the canonical form (blocks ordered by their minimum,
elements ascending inside each block). The restricted growth string ``rgs``,
which partpat's own code reads as its element-to-block index, and the dict
``block_of`` are each built on first use, outside the value.

Text notation joins blocks with "/". For n <= 9 the elements of a block
are written as bare digits ("134/25"); for n >= 10 they are
comma-separated ("1,10,12/2,3"). ``parse`` accepts both forms.
"""

from __future__ import annotations

import itertools
import json
import re
from operator import eq, index, lt
from typing import Any, Iterable

__all__ = [
    "CeilingError",
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
    "reverse",
    "sba",
    "standardize",
]


class CeilingError(RuntimeError):
    """A resource ceiling refused the work: the transfer DP's state cap, the
    cap on an ``--all-k`` family's size, the oracle's n ceiling, or a
    search's recursion limit. ``counts`` holds the exact A_0..A_m-1 below a
    refused DP layer m."""

    def __init__(self, message: str, counts: list[int] | None = None) -> None:
        super().__init__(message)
        self.counts = counts or []


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
    A constructor is skipped (``object.__new__``, then the fields set
    directly) only for a value built from a search's own checked output,
    with the invariant that makes the checks redundant commented at the
    site: ``to_dacp`` and ``find_occurrence``.
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


def _positions(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, read through ``operator.index`` (a
    float or a string raises TypeError); ValueError naming ``what`` unless
    they are strictly increasing positions, each at least 1."""
    out = tuple(map(index, values))
    if not all(map(lt, out, out[1:])):
        raise ValueError(f"{what} must be strictly increasing")
    if out and out[0] < 1:
        raise ValueError(f"{what} must be strictly increasing positive positions")
    return out


class SetPartition(_Value):
    """A partition of {1, ..., n} into disjoint nonempty blocks.

    The constructor canonicalizes and validates: blocks are re-sorted, and
    the elements must be exactly 1..n, each of type int (a bool is not).
    ``n`` goes through ``operator.index``, so a non-integer raises
    TypeError. The empty partition (n = 0, no blocks) is a valid value.
    ``rgs[e - 1]`` and ``block_of[e]`` give the index of the block holding
    e. Each is built on first use, ``rgs`` straight from the blocks and
    ``block_of`` only for a caller that asks for it, and neither takes part
    in equality, hashing, repr or pickling.

    >>> parse("134/25").rgs
    (0, 1, 0, 0, 1)
    """

    __slots__ = ("n", "blocks", "block_of", "rgs")
    _fields = ("n", "blocks")
    n: int
    blocks: tuple[tuple[int, ...], ...]
    block_of: dict[int, int]  # element -> index of its block, built on first use
    rgs: tuple[int, ...]  # rgs[e - 1] = index of e's block, built on first use

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]) -> None:
        n = index(n)
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        canon = list(map(tuple, map(sorted, blocks)))
        flat = list(itertools.chain.from_iterable(canon))
        if not (len(flat) == n and all(canon) and {*map(type, flat)} <= {int}):
            raise _partition_fault(n, canon)
        flat.sort()
        if flat != list(range(1, n + 1)):
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
        if name == "rgs":
            rgs = [0] * (self.n + 1)  # indexed by element; slot 0 is dropped
            for i, b in enumerate(self.blocks):
                for e in b:
                    rgs[e] = i
            del rgs[0]
            value: Any = tuple(rgs)
        elif name == "block_of":
            value = {e: i for i, b in enumerate(self.blocks) for e in b}
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
            if type(e) is not int or e < 1:
                return ValueError(f"element {e!r} is not a positive integer")
            if e in seen:
                return ValueError(f"duplicate element {e}")
            seen.add(e)
    if seen and max(seen) > n:
        return ValueError(f"element {max(seen)} exceeds ground size {n}")
    missing = next(e for e in range(1, n + 1) if e not in seen)
    return ValueError(f"missing element {missing}")


_PARSE_CHARS = frozenset("0123456789,/")
_decode = json.JSONDecoder().decode
# a run of zeros that begins an element and is not the whole element
_LEADING_ZEROS = re.compile(r"(?<![0-9])0+(?=[0-9])")


def parse(text: str) -> SetPartition:
    """Parse slash notation into a canonical partition.

    A text containing a comma or the digit 0 is read in comma form, where
    each block is a comma-separated list of decimal elements, leading zeros
    allowed; otherwise every character of a block is a single-digit
    element. Any partition with n >= 10 contains the element 10, whose
    rendering includes a "0", so the dispatch never misreads a formatted
    partition. The empty string denotes the empty partition.

    A text of the allowed characters is rewritten as one JSON array of
    blocks, digit form with a comma between characters, and decoded in one
    call; the character check keeps out any other JSON. A text that fails
    to decode or to partition [n] is scanned by ``_parse_fault`` for the
    message and position of its error.

    >>> parse("134/25").blocks
    ((1, 3, 4), (2, 5))
    >>> str(parse("21/3"))
    '12/3'
    >>> parse("1").n
    1
    """
    if text == "":
        return SetPartition(0, ())
    if _PARSE_CHARS.issuperset(text):
        if "," not in text and "0" not in text:
            comma_text = ",".join(text).replace(",/,", "/")
        elif text[0] == "0" or ",0" in text or "/0" in text:
            comma_text = _LEADING_ZEROS.sub("", text)  # JSON reads no leading zero
        else:
            comma_text = text
        try:
            blocks = _decode("[[" + comma_text.replace("/", "],[") + "]]")
            # every element is followed by a separator but the last; the
            # constructor rejects an empty block and a duplicate, missing or zero element
            return SetPartition(comma_text.count(",") + comma_text.count("/") + 1, blocks)
        except ValueError:
            pass
    raise _parse_fault(text) or AssertionError(f"parse rejected {text!r} without a fault")


def _parse_fault(text: str) -> ParseError | None:
    """The first fault of ``text`` as slash notation, found by a scan
    character by character, or None for a valid text. ``parse`` runs it
    only on a text it rejects, for the message and position of its error."""
    comma_form = "," in text or "0" in text
    # a piece is a comma-separated field, or one character in digit form
    kind, gap = ("element", 1) if comma_form else ("character", 0)
    seen: set[int] = set()
    cursor = 0
    for token in text.split("/") if text else ():
        if not token:
            return ParseError("empty block", cursor)
        at = cursor
        for piece in token.split(",") if comma_form else token:
            if not (piece.isascii() and piece.isdigit()):  # "".isdigit() is False
                return ParseError(f"malformed {kind} {piece!r}", at)
            value = int(piece)
            if value == 0:  # only in comma form: a "0" selects it
                return ParseError("element 0 is not allowed", at)
            if value in seen:
                return ParseError(f"duplicate element {value}", at)
            seen.add(value)
            at += len(piece) + gap
        cursor += len(token) + 1
    for e in range(1, max(seen, default=0) + 1):
        if e not in seen:
            return ParseError(f"missing element {e}", len(text))
    return None


def format_partition(p: SetPartition) -> str:
    """Canonical slash notation; comma form exactly when n >= 10.

    >>> format_partition(SetPartition.from_blocks([(2, 5), (1, 3, 4)]))
    '134/25'
    """
    if p.n >= 10:
        return "/".join(",".join(map(str, b)) for b in p.blocks)
    return "/".join("".join(map(str, b)) for b in p.blocks)


def reverse(p: SetPartition) -> SetPartition:
    """The mirror image of p, element e becoming n + 1 - e: a partition
    avoids tau exactly when its reverse avoids reverse(tau)."""
    return SetPartition(p.n, [[p.n + 1 - e for e in b] for b in p.blocks])


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
    rgs = host.rgs
    grouped: dict[int, list[int]] = {}
    for rank, e in enumerate(chosen, start=1):
        grouped.setdefault(rgs[e - 1], []).append(rank)
    return SetPartition(len(chosen), grouped.values())


class LayeredShape(_Value):
    """Block sizes (a_1, ..., a_r) of a layered partition: the smallest a_1
    elements form one block, the next a_2 the second, and so on. Sizes go
    through ``operator.index``, so a non-integer raises TypeError."""

    __slots__ = _fields = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(map(index, parts))
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
    rgs = p.rgs
    return sum(map(eq, rgs, rgs[1:]))


class IntervalCut(_Value):
    """Cut positions in 1..n-1; cutting after each yields len(cuts)+1 intervals."""

    __slots__ = _fields = ("cuts",)
    cuts: tuple[int, ...]

    def __init__(self, cuts: Iterable[int]) -> None:
        self._assign(_positions(cuts, "cuts"))

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
    cuts: list[int] = []
    seen: set[int] = set()
    for e, b in enumerate(p.rgs, start=1):
        if b in seen:
            cuts.append(e - 1)
            seen = {b}
        else:
            seen.add(b)
    return len(cuts), IntervalCut(tuple(cuts))


def permeability_oracle(p: SetPartition) -> int:
    """Exhaustive minimum over all cut sets, for cross-checking the greedy routine."""
    rgs = p.rgs

    def feasible(cuts: tuple[int, ...]) -> bool:
        boundaries = set(cuts)
        seen: set[int] = set()
        for e, b in enumerate(rgs, start=1):
            if b in seen:
                return False
            seen.add(b)
            if e in boundaries:
                seen.clear()
        return True

    for m in range(p.n + 1):
        for cuts in itertools.combinations(range(1, p.n), m):
            if feasible(cuts):
                return m
    raise AssertionError("unreachable: cutting everywhere is always feasible")
