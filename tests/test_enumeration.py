from __future__ import annotations

import itertools
import math
from pathlib import Path

import pytest

from partpat import (
    CeilingError,
    CountCache,
    CountRecord,
    LayeredShape,
    SetPartition,
    all_partitions,
    bell,
    block_recursion,
    contains,
    count_avoiders,
    count_avoiders_oracle,
    count_sequence,
    enumerate_avoiders,
    f_ratio,
    parse,
    sba,
    uniform_avoids,
    uniform_count,
    uniform_partitions,
)
from partpat import cli, enumeration
from partpat.enumeration import _dp_layers, _walk_sequence

from conftest import brute_contains, cached_count, compositions, patterns_of


def dp_sequence(tau, n_max):
    return [1, *_dp_layers(tau, n_max)]


def reverse(tau):
    k = tau.n
    return SetPartition(k, tuple(tuple(k + 1 - e for e in b) for b in tau.blocks))


class TestCountAvoiders:
    def test_two_blocks_forbidden(self):
        for n in range(1, 6):
            assert count_avoiders(parse("1/2"), n).count == 1

    def test_involutions(self):
        assert count_avoiders(parse("123"), 4).count == 10

    def test_pattern_larger_than_ground(self):
        assert count_avoiders(parse("12/34"), 3).count == 5

    def test_empty_ground(self):
        assert count_avoiders(parse("123"), 0).count == 1

    def test_single_element_pattern(self):
        assert count_avoiders(parse("1"), 0).count == 1
        assert count_avoiders(parse("1"), 3).count == 0

    def test_record_carries_canonical_tau(self):
        assert count_avoiders(parse("3/21"), 4).tau == "12/3"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_avoiders(parse(""), 3)
        with pytest.raises(ValueError):
            count_avoiders(parse("12"), -1)

    def test_bell_ceiling_exactly_when_pattern_too_big(self):
        for k in range(1, 5):
            for tau in patterns_of(k):
                for n in range(9):
                    count = cached_count(str(tau), n)
                    if k > n:
                        assert count == bell(n)
                    else:
                        assert count < bell(n) or bell(n) <= 1


class TestCountSequence:
    def test_dp_equals_walk_for_patterns_up_to_5(self):
        # every n_max, because the DP prunes by the elements still to come
        for k in range(1, 6):
            for tau in patterns_of(k):
                walk = _walk_sequence(tau, 9)
                for n_max in range(10):
                    assert dp_sequence(tau, n_max) == walk[: n_max + 1], (str(tau), n_max)

    def test_dp_and_walk_equal_oracle_for_patterns_up_to_4(self):
        for k in range(1, 5):
            for tau in patterns_of(k):
                oracle = [count_avoiders_oracle(tau, n).count for n in range(9)]
                assert dp_sequence(tau, 8) == oracle, str(tau)
                assert _walk_sequence(tau, 8) == oracle, str(tau)

    def test_outgrowing_the_state_cap_is_refused(self, monkeypatch, capsys):
        # 12/34 outgrows a cap of 10 states in layer 7
        monkeypatch.setattr(enumeration, "_DP_MAX_STATES", 10)
        text = "DP state cap 10 exceeded by 12/34 at layer m=7 (n=9)"
        with pytest.raises(CeilingError) as refused:
            count_sequence(parse("12/34"), 9)
        assert str(refused.value) == text
        rc = cli.main(["count", "--pattern", "12/34", "--n-from", "1", "--n-to", "9", "--no-cache"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == "" and err == f"ceiling: {text}\n"
        # a pattern whose layers stay under the cap is counted
        assert count_sequence(parse("14/2/3"), 9) == dp_sequence(parse("14/2/3"), 9)

    def test_one_block_pattern_uses_the_block_recursion(self, monkeypatch):
        def no_dp(tau, n_max, max_states=math.inf):
            raise AssertionError("the DP was asked for a one-block pattern")

        monkeypatch.setattr(enumeration, "_dp_layers", no_dp)
        assert count_sequence(parse("1234"), 30) == block_recursion(4, 30)
        assert count_sequence(parse("12"), 0) == [1]
        assert count_sequence(parse("1"), 5) == [1, 0, 0, 0, 0, 0]
        assert count_avoiders(parse("123"), 200).count == block_recursion(3, 200)[200]

    def test_noncrossing_partitions_are_catalan(self):
        catalan = [math.comb(2 * n, n) // (n + 1) for n in range(13)]
        assert count_sequence(parse("13/24"), 12) == catalan

    def test_14_23_is_not_catalan(self):
        # In this containment order the 14/23-avoiders are not the (Catalan)
        # nonnesting partitions: A_5 is 41, where Catalan gives 42.
        seq = count_sequence(parse("14/23"), 7)
        assert seq[1:] == [1, 2, 5, 14, 41, 123, 374]
        assert seq[5] == 41 != math.comb(10, 5) // 6 == 42

    def test_reversal_symmetry_for_patterns_of_5(self):
        for tau in patterns_of(5):
            rev = reverse(tau)
            assert cached_count(str(tau), 10) == cached_count(str(rev), 10), (str(tau), str(rev))


class TestWilfClass:
    # the one class of [5] that joins two reversal orbits
    CLASS = ("1235/4", "1245/3", "1345/2")

    def test_equal_sequences_to_12(self):
        seqs = [count_sequence(parse(t), 12) for t in self.CLASS]
        assert seqs[0] == seqs[1] == seqs[2]
        assert seqs[0][12] == 2_274_757

    def test_equal_oracle_counts_to_8(self):
        for n in range(9):
            counts = {count_avoiders_oracle(parse(t), n).count for t in self.CLASS}
            assert len(counts) == 1, n

    def test_two_reversal_orbits(self):
        a, b, c = map(parse, self.CLASS)
        assert reverse(a) == c and reverse(c) == a
        assert reverse(b) == b

    def test_no_other_pattern_of_5_shares_a_10(self):
        same = [
            str(tau)
            for tau in patterns_of(5)
            if len(tau.blocks) > 1 and cached_count(str(tau), 10) == 79_001
        ]
        assert same == list(self.CLASS)


class TestOracle:
    def test_examples(self):
        assert count_avoiders_oracle(parse("123"), 5).count == 26
        assert count_avoiders_oracle(parse("1/2/3"), 4).count == 8
        assert count_avoiders_oracle(parse("12"), 3).count == 1

    def test_ceiling_enforced(self):
        with pytest.raises(CeilingError):
            count_avoiders_oracle(parse("123"), 11)
        assert count_avoiders_oracle(parse("123"), 11, ceiling=11).count == 35696

    def test_pruned_counter_matches_oracle(self):
        # moderate sweep here; the acceptance suite runs the full one
        for k in range(1, 4):
            for tau in patterns_of(k):
                for n in range(8):
                    assert (
                        count_avoiders(tau, n).count
                        == count_avoiders_oracle(tau, n).count
                    ), (str(tau), n)

    def test_single_element_pattern_matches_oracle_out_to_9(self):
        tau = parse("1")
        for n in range(10):
            expected = 1 if n == 0 else 0
            assert count_avoiders(tau, n).count == expected
            assert count_avoiders_oracle(tau, n).count == expected


class TestEnumerateAvoiders:
    def test_exact_members_small(self):
        assert [str(p) for p in enumerate_avoiders(parse("12"), 2)] == ["1/2"]
        assert {str(p) for p in enumerate_avoiders(parse("123"), 3)} == {
            "1/2/3",
            "12/3",
            "13/2",
            "1/23",
        }
        assert [str(p) for p in enumerate_avoiders(parse("1/2"), 3)] == ["123"]

    def test_stream_in_rgs_order_without_repeats(self):
        def rgs(p):
            label = {}
            out = []
            for e in range(1, p.n + 1):
                b = p.block_of[e]
                label.setdefault(b, len(label))
                out.append(label[b])
            return tuple(out)

        for tau_text in ("123", "12/3", "1/23"):
            stream = [rgs(p) for p in enumerate_avoiders(parse(tau_text), 6)]
            assert stream == sorted(stream)
            assert len(stream) == len(set(stream))

    def test_stream_length_equals_count(self):
        for tau_text in ("123", "13/2", "12/34"):
            tau = parse(tau_text)
            for n in range(8):
                assert sum(1 for _ in enumerate_avoiders(tau, n)) == cached_count(
                    tau_text, n
                )

    def test_every_member_avoids(self):
        tau = parse("12/3")
        for p in enumerate_avoiders(tau, 7):
            assert not contains(p, tau)

    def test_pruning_drops_exactly_the_containing_partitions(self):
        # direct soundness check of the prefix pruning: the stream equals
        # the definition-level avoider set
        for tau_text in ("123", "1/23", "13/2", "12/34"):
            tau = parse(tau_text)
            streamed = set(enumerate_avoiders(tau, 6))
            expected = {p for p in all_partitions(6) if not brute_contains(p, tau)}
            assert streamed == expected


class TestAllPartitions:
    def test_counts_are_bell_numbers(self):
        for n in range(8):
            assert sum(1 for _ in all_partitions(n)) == bell(n)

    def test_distinct(self):
        seen = list(all_partitions(6))
        assert len(seen) == len(set(seen))


class TestFRatio:
    def test_count_one_gives_zero(self):
        assert f_ratio(CountRecord("1/2", 5, 1)) == 0.0

    def test_frozen_involution_value(self):
        # ln(9496) / (10 ln 10), recomputed independently
        assert f_ratio(CountRecord("123", 10, 9496)) == pytest.approx(
            0.3977540705946534, abs=1e-12
        )

    def test_power_count_gives_one(self):
        for n in (2, 7, 40):
            assert f_ratio(CountRecord("x", n, n**n)) == pytest.approx(1.0, abs=1e-12)

    def test_huge_count_precision(self):
        n = 400
        assert f_ratio(CountRecord("x", n, n**n)) == pytest.approx(1.0, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            f_ratio(CountRecord("12", 1, 1))

    def test_zero_count_is_internal_error(self):
        with pytest.raises(RuntimeError):
            f_ratio(CountRecord("1", 5, 0))


class TestUniformPartitions:
    def test_two_sections_of_four(self):
        assert [str(p) for p in uniform_partitions(4, 2)] == ["13/24", "14/23"]
        assert uniform_count(4, 2) == 2

    def test_one_section(self):
        assert [str(p) for p in uniform_partitions(4, 1)] == ["1/2/3/4"]
        assert uniform_count(4, 1) == 1

    def test_three_sections_of_six(self):
        members = list(uniform_partitions(6, 3))
        assert len(members) == uniform_count(6, 3) == 4

    def test_counts_match_stream(self):
        for t in (1, 2, 3):
            for n in range(0, 13, t):
                if n % t == 0:
                    assert sum(1 for _ in uniform_partitions(n, t)) == uniform_count(n, t)

    def test_matches_definition_by_filter(self):
        # every partition of [6] with the uniform property appears in the stream
        t, n = 3, 6
        b = n // t
        expected = set()
        for p in all_partitions(n):
            if len(p.blocks) != b or any(len(blk) != t for blk in p.blocks):
                continue
            sections = [set(range(j * b + 1, (j + 1) * b + 1)) for j in range(t)]
            if all(len(s & set(blk)) == 1 for s in sections for blk in p.blocks):
                expected.add(p)
        assert set(uniform_partitions(n, t)) == expected

    def test_section_property(self):
        for n, t in ((8, 2), (9, 3)):
            b = n // t
            for p in uniform_partitions(n, t):
                for j in range(t):
                    section = range(j * b + 1, (j + 1) * b + 1)
                    per_block = [p.block_of[e] for e in section]
                    assert sorted(per_block) == list(range(b))

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            list(uniform_partitions(5, 2))
        with pytest.raises(ValueError):
            uniform_count(5, 2)


class TestUniformAvoids:
    def test_layered_boundary(self):
        for parts in ((3,), (2, 2), (1, 3)):
            shape = LayeredShape(parts)
            t = shape.k - shape.r
            assert uniform_avoids(shape.to_partition(), t)

    def test_singletons_never_qualify(self):
        for k in range(1, 6):
            tau = parse("/".join(str(i) for i in range(1, k + 1)))
            assert not uniform_avoids(tau, 1)

    def test_threshold_example(self):
        tau = parse("12/345")
        assert uniform_avoids(tau, 3)
        assert not uniform_avoids(tau, 4)

    def test_sufficiency_verified_empirically(self):
        # sba(tau) >= t really does force avoidance in every streamed
        # uniform partition, t in {2, 3}, n <= 9
        taus = [p for k in range(1, 6) for p in patterns_of(k)]
        for t in (2, 3):
            qualifying = [tau for tau in taus if uniform_avoids(tau, t)]
            for n in range(t, 10, t):
                for u in uniform_partitions(n, t):
                    for tau in qualifying:
                        assert not contains(u, tau), (str(u), str(tau), t)

    def test_condition_is_hypothesis_not_characterization(self):
        # sba(tau) >= t is sufficient, not necessary: a uniform host has all
        # blocks of size exactly t and only n/t of them, so patterns with a
        # bigger block (or more blocks than fit) are avoided too. For every
        # other small tau with sba < t a containing uniform partition shows
        # up in range; the obstructed ones are recorded as the observed
        # non-tightness candidates.
        taus = [p for k in range(1, 5) for p in patterns_of(k)]
        candidates = []
        for t in (2, 3):
            for tau in taus:
                if uniform_avoids(tau, t):
                    continue
                found = any(
                    contains(u, tau)
                    for n in range(t, 10, t)
                    for u in uniform_partitions(n, t)
                )
                obstructed = (
                    max(len(b) for b in tau.blocks) > t or len(tau.blocks) > 9 // t
                )
                if obstructed:
                    candidates.append((str(tau), t))
                else:
                    assert found, (str(tau), t)
        assert ("124/3", 2) in candidates and ("1/2/3/4", 3) in candidates


class TestLowerBoundRealized:
    def test_avoiders_at_least_uniform_count(self):
        # count_avoiders(L, n) >= (n/t)!^(t-1) for k - r in {2, 3}, n <= 12
        for t in (2, 3):
            shapes = [
                LayeredShape(c)
                for k in range(2, 6)
                for c in compositions(k)
                if k - len(c) == t
            ]
            for shape in shapes:
                tau_text = str(shape.to_partition())
                for n in range(t, 13, t):
                    assert cached_count(tau_text, n) >= uniform_count(n, t), (
                        shape.parts,
                        n,
                    )


class TestCountCache:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CountCache(path)
        assert cache.get("123", 4) is None
        cache.add(CountRecord("123", 4, 10))
        big = 10**40 + 7
        cache.add(CountRecord("1,2,3,4,5,6,7,8,9,10", 60, big))
        reloaded = CountCache(path)
        assert reloaded.get("123", 4) == 10
        assert reloaded.get("1,2,3,4,5,6,7,8,9,10", 60) == big
        assert len(reloaded) == 2

    def test_counts_stored_as_decimal_strings(self, tmp_path):
        import json

        path = tmp_path / "cache.jsonl"
        CountCache(path).add(CountRecord("12", 3, 1))
        line = json.loads(path.read_text().strip())
        assert line == {"tau": "12", "n": 3, "count": "1"}

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"tau": "12", "n": 3, "count": "1"}\n{"tau": "12", "n": 4, "cou')
        cache = CountCache(path)
        err = capsys.readouterr().err
        assert "warning" in err and str(path) in err and "line 2" in err
        assert len(cache) == 1 and cache.get("12", 4) is None
        cache.add(CountRecord("12", 4, 1))
        reloaded = CountCache(path)
        assert capsys.readouterr().err == ""
        assert reloaded.get("12", 3) == 1 and reloaded.get("12", 4) == 1

    def test_malformed_inner_line_is_an_error(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"tau": "12", "n": 3}\n{"tau": "12", "n": 4, "count": "1"}\n')
        with pytest.raises(ValueError, match="line 1"):
            CountCache(path)

    def test_directory_made_once_per_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "nested" / "dir" / "cache.jsonl"
        cache = CountCache(path)
        cache.add(CountRecord("12", 1, 1))
        made = []
        monkeypatch.setattr(Path, "mkdir", lambda self, *args, **kwargs: made.append(self))
        cache.add(CountRecord("12", 2, 1))
        cache.add(CountRecord("12", 3, 1))
        assert made == []
        assert len(path.read_text().splitlines()) == 3

    def test_add_is_idempotent(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = CountCache(path)
        cache.add(CountRecord("12", 3, 1))
        cache.add(CountRecord("12", 3, 1))
        assert len(path.read_text().splitlines()) == 1
