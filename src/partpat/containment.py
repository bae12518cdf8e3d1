"""Containment of one set partition in another, with occurrence witnesses.

A host contains a pattern when some subset of the host's elements,
relabeled by the increasing bijection, reproduces the pattern's block
structure exactly. Distinct pattern blocks must land in distinct host
blocks. The matcher assigns pattern elements in increasing order. An
element whose pattern block is already bound always takes the least
element of its host block above the image of the element before it,
which never loses an occurrence, so the search branches only where a
pattern block opens, once per unused host block, and the witness it
returns is the lexicographically least one. Once an opening has failed,
the later ones stop where a bound pattern block with an element still to
come would find no room left in its host block. ``contains`` runs the same
search and builds no witness. The search recurses through the
module-level ``_extend``, which takes every per-call list as an argument,
so a query builds no function object and leaves no reference cycle. The
enumeration walker's prune calls ``_extend`` too, on its own lists, with
the block of the pattern's last element bound in advance to the block of
the walker's newest element.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .core import (
    CeilingError,
    LayeredShape,
    SetPartition,
    _positions,
    _Value,
    is_permutation_partition,
    parse,
)

__all__ = [
    "EmbeddingError",
    "Occurrence",
    "contains",
    "embed_into_permutation_partition",
    "find_occurrence",
    "layered_witness",
    "permutation_partition",
]


class Occurrence(_Value):
    """Increasing injection sending pattern element j to host element map[j-1].
    Positions go through ``operator.index`` and must be at least 1."""

    __slots__ = _fields = ("map",)
    map: tuple[int, ...]

    def __init__(self, map: Sequence[int]) -> None:
        object.__setattr__(self, "map", _positions(map, "occurrence map"))


def find_occurrence(host: SetPartition, pattern: SetPartition) -> Occurrence | None:
    """Lexicographically least occurrence of pattern in host, or None.

    Pattern elements are assigned 1..k in order. The search rests on an
    exchange lemma: in any occurrence, the image of pattern element j can
    move down to the least element of its host block that is >= lo, where
    lo is one more than the image of j - 1; the occurrence stays valid,
    becomes lexicographically smaller, and only widens the room left for
    j + 1..k. So an element whose pattern block is already bound takes that
    least element with no choice, and the search branches only where a
    pattern block opens: once per unused host block, on its least element
    >= lo, skipping blocks with too few elements left. Openings are tried
    in ascending order, so the first complete assignment is the least
    witness under tuple comparison.

    Openings are also bounded from above. Say pattern element j opens at
    host element e, and a pattern block c bound to host block C has a later
    element p. The images of j..p increase strictly, so C must hold an
    element >= e + (p - j): e <= max(C) - (p - j), for this opening and
    every later one. So once an opening has failed, none past the least
    such bound is tried. An opening cut off that way has no completion, so
    the answer stays the same and the first witness found is still the
    least.

    The witness is built from the search's map without re-running
    ``Occurrence``'s checks.

    >>> find_occurrence(parse("124/35"), parse("1/23")).map
    (1, 3, 5)
    """
    image = _least_image(host.n, host.blocks, host.rgs, pattern)
    if image is None:
        return None
    occ = object.__new__(Occurrence)  # _extend's map rises from lo = 1: increasing ints >= 1, as _positions requires
    object.__setattr__(occ, "map", tuple(image))
    return occ


def contains(host: SetPartition, pattern: SetPartition) -> bool:
    """True iff some subset of host's elements standardizes to the pattern
    (``find_occurrence``'s search, which here builds no witness)."""
    return _least_image(host.n, host.blocks, host.rgs, pattern) is not None


def _least_image(
    n: int,
    host_blocks: Sequence[Sequence[int]],
    host_block: Sequence[int],
    pattern: SetPartition,
) -> list[int] | None:
    """The least occurrence map of ``find_occurrence``, unchecked, or None.

    The host is given by its parts: its ground size n, its blocks, each
    ascending, and host_block[e - 1], the index of the block holding e. So
    a ``SetPartition``'s ``blocks`` and ``rgs`` serve, and so do the lists
    of the enumeration walker, which need no value built. The search state
    is three fresh lists, handed to ``_extend``.
    """
    if pattern.n < 1:
        raise ValueError("pattern must be nonempty")
    k, r = pattern.n, len(pattern.blocks)
    if k > n or r > len(host_blocks):  # distinct pattern blocks need distinct host blocks
        return None
    binding = [-1] * r
    used = [False] * len(host_blocks)
    image = [0] * k
    try:
        found = _extend(0, 1, n, k, pattern.rgs, pattern.blocks, host_blocks, host_block, binding, used, image)
    except RecursionError:  # _extend recurses once per pattern block
        raise CeilingError(f"containment search recursion limit exceeded by {r} pattern blocks") from None
    return image if found else None


def _extend(
    j: int, lo: int, n: int, k: int, pat_block: Sequence[int], pat_blocks: Sequence[Sequence[int]],
    host_blocks: Sequence[Sequence[int]], host_block: Sequence[int],
    binding: list[int], used: list[bool], image: list[int],
) -> bool:
    """Complete image[j:], the images of pattern elements j + 1..k, with
    image[j] >= lo. host_block[e - 1] is the host block holding e, as in
    ``_least_image``. binding[b] is the host block of pattern block b (-1
    while unbound) and used[hb] marks a taken host block; a failed call
    leaves both as it found them. The bound on openings is worked out only
    once the first one has failed, so a search whose first openings all
    succeed does none of that work. Where the bound cuts, a second pass
    over the openings goes on from the next element up to it."""
    while j < k:
        b = pat_block[j]
        hb = binding[b]
        if hb < 0:
            break
        blk = host_blocks[hb]
        i = bisect_left(blk, lo)
        if i == len(blk):
            return False
        e = blk[i]
        image[j] = e
        lo = e + 1
        j += 1
    else:
        return True
    size = len(pat_blocks[b])
    start, stop = lo, n - (k - j) + 2
    while True:
        for e in range(start, stop):
            hb = host_block[e - 1]
            if used[hb]:
                continue
            blk = host_blocks[hb]
            i = bisect_left(blk, e)
            if (i and blk[i - 1] >= lo) or len(blk) - i < size:
                continue
            binding[b] = hb
            used[hb] = True
            image[j] = e
            if _extend(j + 1, e + 1, n, k, pat_block, pat_blocks, host_blocks, host_block, binding, used, image):
                return True
            used[hb] = False
            if b and start == lo and e + 1 < stop:  # the first opening failed: bound the rest, once
                start, end = e + 1, stop
                # blocks 0..b-1 opened before j, so they are bound; one whose
                # last element, at position last - 1, is still to come needs
                # its host block to reach e + (last - 1 - j). The walker's
                # bound top block ends at n and its last element is k, so its
                # bound is the stop already there. With b == 0 nothing is
                # bound, and with e + 1 == stop no opening is left to cut.
                for c in range(b):
                    last = pat_blocks[c][-1]
                    if last > j + 1:
                        room = host_blocks[binding[c]][-1] + j + 2 - last
                        if room < stop:
                            stop = room
                if stop < end:  # go on from e + 1, below the bound
                    break
        else:
            binding[b] = -1
            return False


def layered_witness(host: SetPartition, shape: LayeredShape) -> Occurrence:
    """Occurrence of the layered partition of ``shape`` built constructively.

    Writing the layer sizes a_1, ..., a_r with k = sum(a_i), the host must
    have at least r blocks of size >= k - r + 1 (raises ValueError
    otherwise). Step j picks, among the remaining big blocks, the one whose
    (a_1 + ... + a_j - (j-1))-th smallest element is least, then takes the
    run of that block from its (a_1 + ... + a_{j-1} - (j-2))-th through
    (a_1 + ... + a_j - (j-1))-th smallest elements. The selected order
    statistics are distinct across disjoint blocks, so there are no ties.

    >>> layered_witness(parse("135/246"), LayeredShape((2, 2))).map
    (1, 3, 4, 6)
    """
    parts = shape.parts
    k, r = shape.k, shape.r
    pool = [list(b) for b in host.blocks if len(b) >= k - r + 1]
    if len(pool) < r:
        raise ValueError(
            f"host has {len(pool)} blocks of size >= {k - r + 1}, need {r}"
        )
    chosen: list[int] = []
    prefix = 0
    for j, a in enumerate(parts, start=1):
        lo = prefix - (j - 2)
        prefix += a
        hi = prefix - (j - 1)
        best = min(pool, key=lambda blk: blk[hi - 1])
        pool.remove(best)
        chosen.extend(best[lo - 1 : hi])
    return Occurrence(tuple(sorted(chosen)))


def permutation_partition(sigma: Sequence[int]) -> SetPartition:
    """The partition of [2k] with blocks {r, k + sigma[r-1]} for r = 1..k."""
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{k}")
    return SetPartition(2 * k, tuple((r, k + sigma[r - 1]) for r in range(1, k + 1)))


class EmbeddingError(ValueError):
    """The pattern cannot embed into a permutation partition; carries the
    occurrence of the forbidden subpattern that blocks it."""

    def __init__(self, message: str, occurrence: Occurrence) -> None:
        super().__init__(message)
        self.occurrence = occurrence


def embed_into_permutation_partition(
    pattern: SetPartition,
) -> tuple[tuple[int, ...], Occurrence]:
    """Embed a pattern avoiding "123" and "12/34" into a permutation partition.

    Avoiding "123" forces every block to have size <= 2, and avoiding
    "12/34" forces a half-integer threshold c with every 2-block pairing an
    element below c with one above. Each singleton below c is completed
    with a fresh value above the current maximum, each singleton above c
    with a fresh value below the current minimum (singletons processed in
    ascending order), and the completed partition is standardized onto
    [2k]. Returns the resulting permutation together with the occurrence of
    the pattern inside ``permutation_partition(sigma)``.

    The returned permutation depends on the choice of c and the completion
    order; this routine pins c just above the largest lower element of a
    2-block (above all elements when every block is a singleton).

    >>> embed_into_permutation_partition(parse("1/23"))[0]
    (2, 1)
    """
    for forbidden in ("123", "12/34"):
        occ = find_occurrence(pattern, parse(forbidden))
        if occ is not None:
            raise EmbeddingError(f"pattern contains {forbidden}", occ)
    pairs = [b for b in pattern.blocks if len(b) == 2]
    threshold = max(b[0] for b in pairs) if pairs else pattern.n
    completed = [list(b) for b in pattern.blocks]
    hi_fresh = pattern.n
    lo_fresh = 1
    for block in completed:
        if len(block) == 1:
            if block[0] <= threshold:
                hi_fresh += 1
                block.append(hi_fresh)
            else:
                lo_fresh -= 1
                block.append(lo_fresh)
    rank = {v: i for i, v in enumerate(sorted(v for b in completed for v in b), start=1)}
    relabeled = SetPartition.from_blocks([[rank[v] for v in b] for b in completed])
    sigma = is_permutation_partition(relabeled)
    if sigma is None:
        raise AssertionError(f"completed partition {relabeled} is not a permutation partition")
    witness = Occurrence(tuple(rank[e] for e in range(1, pattern.n + 1)))
    return sigma, witness
