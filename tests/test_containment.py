from __future__ import annotations

import gc
import itertools
import random

import pytest

from partpat import (
    EmbeddingError,
    LayeredShape,
    Occurrence,
    SetPartition,
    contains,
    count_avoiders_oracle,
    dacp_contains,
    embed_into_permutation_partition,
    enumerate_avoiders,
    find_occurrence,
    layered_witness,
    parse,
    permutation_partition,
    standardize,
    to_dacp,
)

from conftest import (
    brute_contains,
    compositions,
    least_witnesses,
    partitions_up_to,
    patterns_of,
    rgs_key,
)


def seeded_large_hosts() -> list[SetPartition]:
    """100 seeded hosts of 12..14 elements and 1..n blocks."""
    rng = random.Random(20161)
    hosts = []
    for _ in range(100):
        n = rng.randint(12, 14)
        r = rng.randint(1, n)
        labels = list(range(r)) + [rng.randrange(r) for _ in range(n - r)]
        rng.shuffle(labels)
        hosts.append(SetPartition.from_blocks(
            [e for e in range(1, n + 1) if labels[e - 1] == b] for b in range(r)
        ))
    return hosts


def test_searches_leave_no_reference_cycles():
    # a recursive nested function left alive after the call holds itself
    # through its closure cell, and only the cyclic collector frees it
    host, pattern = parse("124/35"), parse("1/23")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert find_occurrence(host, pattern) is not None
        assert find_occurrence(parse("12/34"), parse("1/2/3")) is None
        assert contains(host, pattern)
        assert not contains(parse("12/34"), parse("1/2/3"))
        assert count_avoiders_oracle(parse("12/34"), 6).count == 122
        assert dacp_contains(to_dacp(host), to_dacp(pattern))
        assert len(list(enumerate_avoiders(parse("12/34"), 6))) == 122
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestContains:
    def test_paper_example(self):
        assert contains(parse("124/35"), parse("1/23"))

    def test_one_block_host_has_no_two_blocks(self):
        assert not contains(parse("123456"), parse("1/2"))

    def test_interleaved_does_not_contain_separated(self):
        assert not contains(parse("13/24"), parse("12/34"))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern must be nonempty"):
            contains(parse("12"), parse(""))
        with pytest.raises(ValueError, match="pattern must be nonempty"):
            find_occurrence(parse("12"), parse(""))

    def test_agrees_with_find_occurrence_on_seeded_large_hosts(self):
        for host in seeded_large_hosts():
            for pattern in patterns_of(5):
                found = find_occurrence(host, pattern) is not None
                assert contains(host, pattern) is found, (str(host), str(pattern))

    def test_agrees_with_brute_force(self):
        # definition-level cross-check, hosts n <= 8, patterns k <= 4
        patterns = [p for k in range(1, 5) for p in patterns_of(k)]
        keys = {rgs_key(p): p for p in patterns}
        for host in partitions_up_to(8):
            seen = set()
            for k in range(1, min(4, host.n) + 1):
                for subset in itertools.combinations(range(1, host.n + 1), k):
                    key = rgs_key(host, subset)
                    if key in keys:
                        seen.add(key)
            for key, pattern in keys.items():
                assert contains(host, pattern) == (key in seen), (str(host), str(pattern))

    def test_monotone_under_restriction(self):
        patterns = [p for k in range(1, 5) for p in patterns_of(k)]
        for host in partitions_up_to(7):
            for m in range(1, host.n + 1):
                prefix = standardize(range(1, m + 1), host)
                for pattern in patterns:
                    if contains(prefix, pattern):
                        assert contains(host, pattern)


class TestFindOccurrence:
    def test_paper_witness(self):
        occ = find_occurrence(parse("124/35"), parse("1/23"))
        assert occ.map == (1, 3, 5)

    def test_self_occurrence_is_identity(self):
        for p in patterns_of(4):
            assert find_occurrence(p, p).map == tuple(range(1, 5))

    def test_lexicographically_smallest(self):
        occ = find_occurrence(parse("123/456"), parse("12/34"))
        assert occ.map == (1, 2, 4, 5)

    def test_absent_when_avoiding(self):
        assert find_occurrence(parse("13/24"), parse("12/34")) is None

    def test_witness_standardizes_to_pattern(self):
        patterns = [p for k in range(1, 5) for p in patterns_of(k)]
        for host in partitions_up_to(7):
            for pattern in patterns:
                occ = find_occurrence(host, pattern)
                if occ is not None:
                    assert standardize(occ.map, host) == pattern

    def test_minimality_against_all_witnesses(self):
        # every host n <= 7, every pattern k <= 4: the witness is the least
        # matching subset by brute force, and None exactly when none matches
        patterns = [p for k in range(1, 5) for p in patterns_of(k)]
        for host in partitions_up_to(7):
            least = {k: least_witnesses(host, k) for k in range(1, 5)}
            for pattern in patterns:
                expected = least[pattern.n].get(rgs_key(pattern))
                occ = find_occurrence(host, pattern)
                assert (occ and occ.map) == expected, (str(host), str(pattern))

    def test_minimality_on_seeded_large_hosts(self):
        # every seeded large host against all of [5]
        misses = 0
        for host in seeded_large_hosts():
            least = least_witnesses(host, 5)
            for pattern in patterns_of(5):
                expected = least.get(rgs_key(pattern))
                misses += expected is None
                occ = find_occurrence(host, pattern)
                assert (occ and occ.map) == expected, (str(host), str(pattern))
        assert misses > 500


class TestOccurrence:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Occurrence((2, 1))


class TestLayeredWitness:
    def test_two_interval_blocks(self):
        occ = layered_witness(parse("123/456"), LayeredShape((2, 2)))
        assert occ.map == (1, 2, 5, 6)

    def test_single_block_shape_takes_prefix(self):
        occ = layered_witness(parse("12345"), LayeredShape((3,)))
        assert occ.map == (1, 2, 3)

    def test_interleaved_blocks(self):
        occ = layered_witness(parse("135/246"), LayeredShape((2, 2)))
        assert occ.map == (1, 3, 4, 6)
        assert str(standardize(occ.map, parse("135/246"))) == "12/34"

    def test_precondition_violation_reported(self):
        with pytest.raises(ValueError, match="blocks of size"):
            layered_witness(parse("12/34"), LayeredShape((2, 2)))

    def test_all_hosts_n_le_9_all_shapes_k_le_5(self):
        shapes = [LayeredShape(c) for k in range(1, 6) for c in compositions(k)]
        targets = {s.parts: rgs_key(s.to_partition()) for s in shapes}
        for host in partitions_up_to(9):
            sizes = [len(b) for b in host.blocks]
            for shape in shapes:
                k, r = shape.k, shape.r
                if sum(1 for s in sizes if s >= k - r + 1) < r:
                    continue
                occ = layered_witness(host, shape)
                assert rgs_key(standardize(occ.map, host)) == targets[shape.parts], (
                    str(host),
                    shape.parts,
                )


class TestPermutationPartitionHelper:
    def test_blocks_form(self):
        assert str(permutation_partition((2, 1))) == "14/23"
        assert str(permutation_partition((1,))) == "12"

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permutation_partition((1, 1))


class TestEmbed:
    def test_already_permutation_partition(self):
        sigma, occ = embed_into_permutation_partition(parse("12"))
        assert sigma == (1,)
        assert occ.map == (1, 2)

    def test_singleton_completion(self):
        sigma, occ = embed_into_permutation_partition(parse("1/23"))
        assert sigma == (2, 1)
        assert str(permutation_partition(sigma)) == "14/23"
        assert occ.map == (1, 2, 3)

    def test_block_of_three_rejected_with_witness(self):
        with pytest.raises(EmbeddingError) as err:
            embed_into_permutation_partition(parse("123"))
        assert err.value.occurrence.map == (1, 2, 3)

    def test_separated_pairs_rejected_with_witness(self):
        with pytest.raises(EmbeddingError) as err:
            embed_into_permutation_partition(parse("12/34"))
        assert standardize(err.value.occurrence.map, parse("12/34")) == parse("12/34")

    def test_every_eligible_pattern_k_le_5(self):
        p123, p1234 = parse("123"), parse("12/34")
        for k in range(1, 6):
            for pattern in patterns_of(k):
                if contains(pattern, p123) or contains(pattern, p1234):
                    with pytest.raises(EmbeddingError):
                        embed_into_permutation_partition(pattern)
                    continue
                sigma, occ = embed_into_permutation_partition(pattern)
                host = permutation_partition(sigma)
                assert standardize(occ.map, host) == pattern
                assert contains(host, pattern)


def classical_perm_contains(sigma: tuple[int, ...], rho: tuple[int, ...]) -> bool:
    """Standard one-line pattern containment on permutation words."""
    def pattern_of(values):
        order = sorted(values)
        return tuple(order.index(v) + 1 for v in values)

    if len(rho) > len(sigma):
        return False
    return any(
        pattern_of([sigma[i] for i in idx]) == rho
        for idx in itertools.combinations(range(len(sigma)), len(rho))
    )


class TestPermutationContainmentEquivalence:
    def test_matches_classical_containment(self):
        # partition containment between permutation partitions agrees with
        # permutation pattern containment, all sigma in S_m, m <= 5
        for m in range(1, 6):
            for sigma in itertools.permutations(range(1, m + 1)):
                host = permutation_partition(sigma)
                for j in range(1, m + 1):
                    for rho in itertools.permutations(range(1, j + 1)):
                        assert contains(host, permutation_partition(rho)) == (
                            classical_perm_contains(sigma, rho)
                        ), (sigma, rho)
