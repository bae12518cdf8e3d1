"""Containment of one set partition in another, with occurrence witnesses.

A host contains a pattern when some subset of the host's elements,
relabeled by the increasing bijection, reproduces the pattern's block
structure exactly. Distinct pattern blocks must land in distinct host
blocks. The matcher assigns pattern elements in increasing order. An
element whose pattern block is already bound always takes the least
element of its host block above the image of the element before it,
which never loses an occurrence, so the search branches only where a
pattern block opens, once per unused host block, and the witness it
returns is the lexicographically least one. ``contains`` runs the same
search and builds no witness.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .core import LayeredShape, SetPartition, _increasing_ints, _Value, parse

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
    """Increasing injection sending pattern element j to host element map[j-1]."""

    __slots__ = _fields = ("map",)
    map: tuple[int, ...]

    def __init__(self, map: Sequence[int]) -> None:
        mapped = _increasing_ints(map, "occurrence map must be strictly increasing")
        object.__setattr__(self, "map", mapped)


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

    >>> find_occurrence(parse("124/35"), parse("1/23")).map
    (1, 3, 5)
    """
    image = _least_image(host, pattern)
    return None if image is None else Occurrence(image)


def contains(host: SetPartition, pattern: SetPartition) -> bool:
    """True iff some subset of host's elements standardizes to the pattern
    (``find_occurrence``'s search, which here builds no witness)."""
    return _least_image(host, pattern) is not None


def _least_image(host: SetPartition, pattern: SetPartition) -> list[int] | None:
    """The least occurrence map of ``find_occurrence``, unchecked, or None."""
    if pattern.n < 1:
        raise ValueError("pattern must be nonempty")
    k, n = pattern.n, host.n
    if k > n:
        return None
    pat_block = pattern.rgs
    host_block = host.block_of
    host_blocks = host.blocks
    binding = [-1] * len(pattern.blocks)
    used = [False] * len(host_blocks)
    image = [0] * k

    def extend(j: int, lo: int) -> bool:
        # image[j] (pattern element j + 1) must be >= lo
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
        size = len(pattern.blocks[b])
        for e in range(lo, n - (k - j) + 2):
            hb = host_block[e]
            if used[hb]:
                continue
            blk = host_blocks[hb]
            i = bisect_left(blk, e)
            if (i and blk[i - 1] >= lo) or len(blk) - i < size:
                continue
            binding[b] = hb
            used[hb] = True
            image[j] = e
            if extend(j + 1, e + 1):
                return True
            used[hb] = False
        binding[b] = -1
        return False

    found = extend(0, 1)
    del extend  # it refers to itself through its cell: break the cycle
    return image if found else None


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
    sigma = _as_permutation_partition(relabeled)
    witness = Occurrence(tuple(rank[e] for e in range(1, pattern.n + 1)))
    return sigma, witness


def _as_permutation_partition(p: SetPartition) -> tuple[int, ...]:
    from .core import is_permutation_partition

    sigma = is_permutation_partition(p)
    if sigma is None:
        raise AssertionError(f"completed partition {p} is not a permutation partition")
    return sigma
