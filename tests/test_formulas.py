from __future__ import annotations

import math

import pytest

from partpat import (
    LayeredShape,
    all_partitions,
    bell,
    block_recursion,
    log_upper_bound_block,
    log_upper_bound_layered,
    singleton_count,
    stirling2,
    uniform_count,
)

from partpat import formulas, parse
from partpat.enumeration import _dp_layers, _walk_sequence

from conftest import cached_count, compositions


class TestBell:
    def test_known_values(self):
        assert bell(0) == 1
        assert bell(5) == 52
        assert bell(7) == 877

    def test_matches_enumeration(self):
        for n in range(8):
            assert bell(n) == sum(1 for _ in all_partitions(n))

    def test_equals_stirling_row_sum(self):
        for n in range(1, 26):
            assert bell(n) == sum(stirling2(n, j) for j in range(n + 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell(-1)


class TestStirling2:
    def test_single_block(self):
        for n in range(1, 8):
            assert stirling2(n, 1) == 1

    def test_known_value(self):
        assert stirling2(4, 2) == 7

    def test_diagonal(self):
        assert stirling2(3, 3) == 1

    def test_matches_filtered_enumeration(self):
        for n in range(7):
            for j in range(n + 2):
                expected = sum(1 for p in all_partitions(n) if len(p.blocks) == j)
                assert stirling2(n, j) == expected

    def test_out_of_range(self):
        assert stirling2(3, 5) == 0
        with pytest.raises(ValueError):
            stirling2(-1, 0)


class TestBlockRecursion:
    def test_k3_sequence(self):
        f = block_recursion(3, 10)
        assert f[1:] == [1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
        assert f[0] == 1
        assert block_recursion(3, 0) == [1]

    def test_k2_is_constant_one(self):
        assert block_recursion(2, 12) == [1] * 13

    def test_matches_counter(self):
        # count_sequence answers one-block patterns with block_recursion, so
        # the closed form is checked against the DP and the walk directly
        for k in (3, 4, 5):
            tau = parse("".join(str(i) for i in range(1, k + 1)))
            f = block_recursion(k, 10)
            assert f == _walk_sequence(tau, 10), k
            assert f == [1, *(count for count, _, _ in _dp_layers(tau, 10))], k

    def test_counts_bounded_block_sizes(self):
        # f(n) equals the number of partitions with all blocks of size < k;
        # for k = 1 that is only the empty partition
        for k in (1, 3, 4):
            f = block_recursion(k, 7)
            for n in range(8):
                direct = sum(
                    1
                    for p in all_partitions(n)
                    if all(len(b) <= k - 1 for b in p.blocks)
                )
                assert f[n] == direct

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            block_recursion(0, 5)
        with pytest.raises(ValueError):
            block_recursion(3, -1)


class TestSingletonCount:
    def test_k2(self):
        for n in range(1, 8):
            assert singleton_count(2, n) == 1

    def test_k3_n4(self):
        assert singleton_count(3, 4) == 8

    def test_no_restriction_when_n_small(self):
        assert singleton_count(4, 3) == bell(3)

    def test_matches_counter(self):
        for k in range(2, 6):
            tau = "/".join(str(i) for i in range(1, k + 1))
            for n in range(11):
                assert singleton_count(k, n) == cached_count(tau, n), (k, n)

    def test_urn_bound(self):
        for k in range(2, 6):
            for n in range(1, 11):
                assert singleton_count(k, n) <= (k - 1) ** n

    def test_bound_breach_raises_even_under_optimization(self, monkeypatch):
        # an explicit check, not an assert, so it also holds under python -O
        monkeypatch.setattr(formulas, "stirling2", lambda n, j: 10**6)
        with pytest.raises(RuntimeError, match="internal error"):
            singleton_count(3, 4)


class TestLogUpperBoundBlock:
    def test_n1(self):
        assert log_upper_bound_block(3, 1) == pytest.approx(math.log(3))

    def test_k3_n10(self):
        expected = 10 * math.log(3) + 5 * math.log(10)
        got = log_upper_bound_block(3, 10)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(22.49, abs=0.01)
        assert got > math.log(9496)

    def test_k5_n8(self):
        assert log_upper_bound_block(5, 8) == pytest.approx(
            8 * math.log(5) + 6 * math.log(8), abs=1e-12
        )

    def test_k2_special_case(self):
        # the exponent 1 - 1/(k - 1) is 0 at k = 2, so the general form is n ln 2 exactly
        for n in range(1, 101):
            assert log_upper_bound_block(2, n) == n * math.log(2)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            log_upper_bound_block(1, 4)

    def test_holds_out_to_200(self):
        for k in (3, 4, 5):
            f = block_recursion(k, 200)
            for n in range(1, 201):
                assert math.log(f[n]) <= log_upper_bound_block(k, n) + 1e-9


class TestLogUpperBoundLayered:
    def test_k3_r1_n10(self):
        value = log_upper_bound_layered(3, 1, 10)
        assert value == pytest.approx(20 * math.log(2) + 5 * math.log(10), abs=1e-12)
        assert value > math.log(9496)

    def test_n1_kills_second_term(self):
        assert log_upper_bound_layered(4, 2, 1) == pytest.approx(2 * math.log(2.5))

    def test_k5_r2_n9(self):
        assert log_upper_bound_layered(5, 2, 9) == pytest.approx(
            18 * math.log(3) + 6 * math.log(9), abs=1e-12
        )

    def test_k_le_r_rejected(self):
        with pytest.raises(ValueError):
            log_upper_bound_layered(3, 3, 5)

    def test_dominates_counts(self):
        for k in range(2, 6):
            for parts in compositions(k):
                if len(parts) >= k:
                    continue
                shape = LayeredShape(parts)
                tau = str(shape.to_partition())
                for n in range(1, 11):
                    assert (
                        math.log(cached_count(tau, n))
                        <= log_upper_bound_layered(shape.k, shape.r, n) + 1e-9
                    ), (parts, n)


class TestLogLowerBoundUniform:
    # the bounds audit's lower bound: ln (n/t)!^(t-1), the log of the uniform count
    def test_t2_n4(self):
        assert math.log(uniform_count(4, 2)) == pytest.approx(math.log(2))

    def test_t2_n2(self):
        assert math.log(uniform_count(2, 2)) == 0.0

    def test_t3_n6(self):
        assert math.log(uniform_count(6, 3)) == pytest.approx(2 * math.log(2))
