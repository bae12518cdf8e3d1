"""Shared helpers: cached exact counts, brute-force containment, pattern lists.

``cached_count`` keeps one ``count_sequence`` per pattern for the whole
session, recounting only when a larger n is asked for, so the expensive
counts (for example every layered shape up to n = 12) are computed once no
matter how many invariants consult them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from partpat import SetPartition, all_partitions, count_sequence, parse
from partpat.cli import compositions

_sequences: dict[str, list[int]] = {}


def cached_count(tau_text: str, n: int) -> int:
    seq = _sequences.get(tau_text)
    if seq is None or len(seq) <= n:
        seq = _sequences[tau_text] = count_sequence(parse(tau_text), n)
    return seq[n]


@lru_cache(maxsize=None)
def patterns_of(k: int) -> tuple[SetPartition, ...]:
    return tuple(all_partitions(k))


@lru_cache(maxsize=None)
def partitions_up_to(n: int) -> tuple[SetPartition, ...]:
    return tuple(p for m in range(n + 1) for p in all_partitions(m))


def rgs_key(p: SetPartition, elements=None) -> tuple[int, ...]:
    """Restricted-growth encoding of p (or of its restriction to ``elements``);
    equal keys mean equal standardizations."""
    label: dict[int, int] = {}
    out = []
    for e in elements if elements is not None else range(1, p.n + 1):
        b = p.block_of[e]
        if b not in label:
            label[b] = len(label)
        out.append(label[b])
    return tuple(out)


def brute_contains(host: SetPartition, pattern: SetPartition) -> bool:
    """Definition-level check: some k-subset of the host standardizes to the
    pattern. Independent of the backtracking matcher."""
    key = rgs_key(pattern)
    k = pattern.n
    if k > host.n:
        return False
    return any(
        rgs_key(host, subset) == key
        for subset in itertools.combinations(range(1, host.n + 1), k)
    )


def least_witnesses(host: SetPartition, k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """For each pattern of [k] (as its rgs_key) that the host contains, the
    least k-subset of the host that standardizes to it. Subsets come from
    itertools.combinations in lexicographic order, so the first one seen
    for a key is the least; independent of the matcher."""
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    for subset in itertools.combinations(range(1, host.n + 1), k):
        least.setdefault(rgs_key(host, subset), subset)
    return least
