from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from partpat import (
    IntervalCut,
    LayeredShape,
    ParseError,
    SetPartition,
    contains,
    format_partition,
    is_layered,
    is_permutation_partition,
    parse,
    permeability,
    permeability_oracle,
    sba,
    standardize,
)

from conftest import compositions, partitions_up_to, rgs_key


def random_partition(draw_rgs: list[int]) -> SetPartition:
    """Build a partition from an arbitrary int list read as a growth string."""
    blocks: list[list[int]] = []
    for i, raw in enumerate(draw_rgs, start=1):
        b = raw % (len(blocks) + 1)
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(i)
    return SetPartition.from_blocks(blocks)


partition_strategy = st.builds(
    random_partition, st.lists(st.integers(min_value=0, max_value=20), max_size=15)
)


class TestParse:
    def test_paper_notation(self):
        p = parse("134/25")
        assert p.n == 5
        assert p.blocks == ((1, 3, 4), (2, 5))

    def test_single_element(self):
        assert parse("1") == SetPartition(1, ((1,),))

    def test_canonicalizes_block_order_and_elements(self):
        assert str(parse("21/3")) == "12/3"
        assert parse("3/21") == parse("12/3")

    def test_empty_text_is_empty_partition(self):
        p = parse("")
        assert p.n == 0 and p.blocks == ()

    def test_comma_form(self):
        p = parse("1,10,12/2,3/4/5/6/7/8/9/11")
        assert p.n == 12
        assert p.blocks[0] == (1, 10, 12)

    def test_comma_form_singletons(self):
        n = 12
        text = "/".join(str(i) for i in range(1, n + 1))
        p = parse(text)
        assert p.n == n and all(len(b) == 1 for b in p.blocks)

    def test_duplicate_reports_position(self):
        with pytest.raises(ParseError, match="duplicate element 2") as err:
            parse("12/23")
        assert err.value.position == 3

    def test_missing_element(self):
        with pytest.raises(ParseError, match="missing element 2"):
            parse("13")

    def test_empty_block(self):
        with pytest.raises(ParseError, match="empty block"):
            parse("12//3")

    def test_malformed_character(self):
        with pytest.raises(ParseError, match="malformed character"):
            parse("1a/2")

    def test_malformed_comma_piece(self):
        with pytest.raises(ParseError, match="malformed element"):
            parse("1,,10/2,3,4,5,6,7,8,9")

    def test_zero_element_rejected(self):
        with pytest.raises(ParseError):
            parse("10,1/2,3,4,5,6,7,8,9,0")


class TestFormat:
    def test_paper_example(self):
        assert format_partition(SetPartition.from_blocks([(1, 3, 4), (2, 5)])) == "134/25"

    def test_block_order_normalized(self):
        assert format_partition(SetPartition.from_blocks([(2, 5), (1, 3, 4)])) == "134/25"

    def test_singleton(self):
        assert format_partition(SetPartition.from_blocks([(1,)])) == "1"

    def test_comma_form_iff_ten_or_more(self):
        nine = SetPartition.from_blocks([range(1, 10)])
        ten = SetPartition.from_blocks([range(1, 11)])
        assert format_partition(nine) == "123456789"
        assert format_partition(ten) == "1,2,3,4,5,6,7,8,9,10"

    @given(partition_strategy)
    def test_roundtrip(self, p):
        assert parse(format_partition(p)) == p


class TestCanonicalForm:
    def test_idempotent(self):
        p = SetPartition(5, ((2, 5), (4, 3, 1)))
        assert SetPartition(p.n, p.blocks) == p

    @given(partition_strategy)
    def test_blocks_sorted(self, p):
        assert all(list(b) == sorted(b) for b in p.blocks)
        mins = [b[0] for b in p.blocks]
        assert mins == sorted(mins)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="duplicate"):
            SetPartition(2, ((1, 1), (2,)))
        with pytest.raises(ValueError, match="missing element 2"):
            SetPartition(3, ((1, 3),))
        with pytest.raises(ValueError, match="exceeds ground size"):
            SetPartition(2, ((1, 2, 3),))
        with pytest.raises(ValueError, match="empty block"):
            SetPartition(1, ((1,), ()))

    def test_rgs_is_the_restricted_growth_string(self):
        for p in partitions_up_to(7):
            assert p.rgs == rgs_key(p), str(p)


class TestStandardize:
    def test_paper_subpartition(self):
        assert str(standardize({1, 3, 5}, parse("124/35"))) == "1/23"

    def test_full_set_is_identity(self):
        for p in partitions_up_to(5):
            if p.n:
                assert standardize(range(1, p.n + 1), p) == p

    def test_same_block_pair(self):
        assert str(standardize({2, 5}, parse("134/25"))) == "12"

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            standardize(set(), parse("12"))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            standardize({4}, parse("123"))

    def test_nested_selections_compose(self):
        # restricting twice equals restricting once through the composed
        # selection; exhaustive over n <= 6
        for p in partitions_up_to(6):
            n = p.n
            if n == 0:
                continue
            for outer_size in range(1, n + 1):
                for outer in itertools.combinations(range(1, n + 1), outer_size):
                    q = standardize(outer, p)
                    for inner_size in range(1, outer_size + 1):
                        for inner in itertools.combinations(range(1, outer_size + 1), inner_size):
                            composed = [outer[i - 1] for i in inner]
                            assert standardize(inner, q) == standardize(composed, p)


class TestLayered:
    def test_layered_example(self):
        assert is_layered(parse("12/345/67")) == LayeredShape((2, 3, 2))

    def test_non_layered_example(self):
        assert is_layered(parse("13/245/67")) is None

    def test_singleton(self):
        assert is_layered(parse("1")) == LayeredShape((1,))

    def test_empty_partition_is_layered(self):
        assert is_layered(parse("")) == LayeredShape(())

    def test_shape_roundtrip(self):
        for k in range(1, 9):
            for parts in compositions(k):
                shape = LayeredShape(parts)
                assert is_layered(shape.to_partition()) == shape

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            LayeredShape((2, 0))


class TestPermutationPartition:
    def test_identity_s2(self):
        assert is_permutation_partition(parse("13/24")) == (1, 2)

    def test_swap(self):
        assert is_permutation_partition(parse("14/23")) == (2, 1)

    def test_triple_block_rejected(self):
        assert is_permutation_partition(parse("123")) is None

    def test_odd_size_rejected(self):
        assert is_permutation_partition(parse("1/23")) is None

    def test_characterization_against_containment(self):
        # recognized exactly when all blocks pair an element <= k with one
        # above, which also forces avoidance of 123 and 12/34
        p123, p1234 = parse("123"), parse("12/34")
        for p in partitions_up_to(8):
            sigma = is_permutation_partition(p)
            k = p.n // 2
            structural = (
                p.n % 2 == 0
                and all(len(b) == 2 for b in p.blocks)
                and all(b[0] <= k < b[1] for b in p.blocks)
            )
            assert (sigma is not None) == structural
            if sigma is not None and p.n:
                assert not contains(p, p123)
                assert not contains(p, p1234)
                assert sorted(sigma) == list(range(1, k + 1))


class TestSba:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_one_block(self, k):
        assert sba(SetPartition.from_blocks([range(1, k + 1)])) == k - 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_singletons(self, k):
        assert sba(SetPartition.from_blocks([[i] for i in range(1, k + 1)])) == 0

    def test_mixed(self):
        assert sba(parse("12/345")) == 3

    def test_empty(self):
        assert sba(parse("")) == 0


class TestPermeability:
    def test_one_block_needs_all_cuts(self):
        for k in range(1, 8):
            pm, cut = permeability(SetPartition.from_blocks([range(1, k + 1)]))
            assert pm == k - 1
            assert pm == permeability_oracle(SetPartition.from_blocks([range(1, k + 1)]))

    def test_singletons_need_none(self):
        p = parse("1/2/3/4")
        assert permeability(p) == (0, IntervalCut(()))

    def test_interleaved_pair(self):
        pm, cut = permeability(parse("13/24"))
        assert pm == 1 and cut.cuts == (2,)
        assert cut.intervals(4) == [(1, 2), (3, 4)]

    def test_empty_partition(self):
        pm, cut = permeability(parse(""))
        assert pm == 0 and cut.cuts == () and cut.intervals(0) == []
        assert permeability_oracle(parse("")) == 0

    def test_witness_is_feasible(self):
        for p in partitions_up_to(7):
            pm, cut = permeability(p)
            for lo, hi in cut.intervals(p.n):
                blocks_seen = [p.block_of[e] for e in range(lo, hi + 1)]
                assert len(blocks_seen) == len(set(blocks_seen))

    def test_greedy_equals_oracle_all_n_le_7(self):
        for p in partitions_up_to(7):
            assert permeability(p)[0] == permeability_oracle(p), str(p)

    def test_at_least_sba(self):
        for p in partitions_up_to(7):
            assert permeability(p)[0] >= sba(p)

    def test_layered_value(self):
        for k in range(1, 9):
            for parts in compositions(k):
                shape = LayeredShape(parts)
                p = shape.to_partition()
                assert permeability(p)[0] == k - len(parts) == permeability_oracle(p)


class TestIntervalCut:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IntervalCut((3, 2))

    def test_rejects_out_of_range_cut(self):
        with pytest.raises(ValueError):
            IntervalCut((4,)).intervals(4)

    def test_intervals_partition_ground_set(self):
        cut = IntervalCut((2, 5))
        assert cut.intervals(7) == [(1, 2), (3, 5), (6, 7)]
