from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import partpat.cli as cli
from partpat import (
    all_partitions, block_recursion, count_avoiders_oracle, enumeration, parse, singleton_count,
    uniform_count,
)
from partpat.cli import main
from partpat.enumeration import _walk_sequence


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCount:
    def test_csv_counts_and_columns(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "123", "--n-from", "1", "--n-to", "10", "--no-cache"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,n,count,f_ratio,pm,pm_target,gap,gap_times_log_n"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == [1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]

    def test_pattern_larger_than_n_gives_bell(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "12/34", "--n-from", "1", "--n-to", "3", "--no-cache"
        )
        counts = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert counts == [1, 2, 5]

    def test_json_format(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "1/2", "--n-from", "1", "--n-to", "5",
            "--no-cache", "--format", "json",
        )
        rows = json.loads(out)
        assert [row["count"] for row in rows] == ["1"] * 5
        assert rows[0]["pm"] == 0 and rows[0]["pm_target"] is None

    def test_json_growth_columns(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "123", "--n-from", "1", "--n-to", "5",
            "--no-cache", "--format", "json",
        )
        assert rc == 0
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [1, 2, 3, 4, 5]
        assert all(row["tau"] == "123" and row["pm"] == 2 for row in rows)
        assert all(row["pm_target"] == pytest.approx(0.5) for row in rows)
        assert rows[0]["f_ratio"] is None
        assert rows[1]["f_ratio"] == pytest.approx(0.5)

    def test_json_degenerate_target(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "1/2", "--n-from", "3", "--n-to", "3",
            "--no-cache", "--format", "json",
        )
        assert rc == 0
        (row,) = json.loads(out)
        assert row["tau"] == "1/2" and row["n"] == 3 and row["count"] == "1"
        assert row["pm"] == 0 and row["pm_target"] is None

    def test_workers_capped_at_cpu_count(self, capsys):
        # --workers has no effect, but a value outside 1..CPU count is still refused
        limit = os.cpu_count() or 1
        rc, _, err = run(
            capsys, "count", "--pattern", "12/34", "--n-from", "1", "--n-to", "8",
            "--no-cache", "--workers", str(limit * 1000),
        )
        assert rc == 1 and f"1 and {limit}" in err

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc, _, _ = run(
                capsys, "count", "--pattern", "12/3", "--n-from", "1", "--n-to", "8",
                "--no-cache", "--out", str(path),
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counts_match_the_oracle(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "123/45", "--n-from", "1", "--n-to", "8", "--no-cache"
        )
        assert rc == 0
        counts = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert counts == [count_avoiders_oracle(parse("123/45"), n).count for n in range(1, 9)]

    def test_dp_counts_past_n_13(self, capsys):
        # the DP state cap is the only guard on n: 12/3 stays far below it
        rc, out, err = run(
            capsys, "count", "--pattern", "12/3", "--n-from", "14", "--n-to", "20", "--no-cache"
        )
        assert rc == 0 and err == ""
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        walk = _walk_sequence(parse("12/3"), 20)
        assert rows == [["12/3", str(n), str(1 + math.comb(n, 2))] for n in range(14, 21)]
        assert [int(r[2]) for r in rows] == walk[14:]

    def test_singletons_count_past_n_13(self, capsys):
        rc, out, _ = run(
            capsys, "count", "--pattern", "1/2/3", "--n-from", "1", "--n-to", "20", "--no-cache"
        )
        assert rc == 0
        counts = [int(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert counts == [singleton_count(3, n) for n in range(1, 21)]

    def test_enum_ceiling_flag_is_gone(self, capsys):
        rc, out, err = run(
            capsys, "count", "--pattern", "12/3", "--n-from", "1", "--n-to", "5",
            "--no-cache", "--enum-ceiling", "20",
        )
        assert rc == 1 and out == "" and "unrecognized arguments: --enum-ceiling 20" in err

    def test_oracle_ceiling(self, capsys):
        # the scans no longer offer the oracle: argparse refuses the flag
        rc, out, err = run(
            capsys, "count", "--pattern", "123", "--n-from", "1", "--n-to", "11",
            "--no-cache", "--oracle",
        )
        assert rc == 1 and out == "" and "unrecognized arguments: --oracle\n" in err

    def test_oracle_ceiling_capped_at_12(self, capsys):
        rc, out, err = run(
            capsys, "count", "--pattern", "123", "--n-from", "1", "--n-to", "5",
            "--no-cache", "--oracle", "--oracle-ceiling", "13",
        )
        assert rc == 1 and out == "" and "unrecognized arguments: --oracle --oracle-ceiling 13" in err

    @pytest.mark.parametrize(("pattern", "exceeds"), [("123", 10**50), ("1", -1)], ids=["123", "1"])
    def test_one_block_pattern_not_ceilinged(self, capsys, pattern, exceeds):
        # a closed form serves one-block patterns at any depth
        rc, out, _ = run(
            capsys, "count", "--pattern", pattern, "--n-from", "99", "--n-to", "100", "--no-cache"
        )
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2 and int(rows[1].split(",")[2]) > exceeds

    def test_state_cap_writes_the_exact_rows_to_out(self, capsys, monkeypatch, tmp_path):
        # 12/34 outgrows a cap of 10 states in layer 7: --out gets the rows
        # for n = 1..6 exactly as an uncut scan prints them, stdout nothing
        rc, expected, _ = run(capsys, "count", "--pattern", "12/34", "--n-from", "1", "--n-to", "6", "--no-cache")
        assert rc == 0
        monkeypatch.setattr(enumeration, "_DP_MAX_STATES", 10)
        path = tmp_path / "F"
        rc, out, err = run(
            capsys, "count", "--pattern", "12/34", "--n-from", "1", "--n-to", "9", "--no-cache",
            "--out", str(path),
        )
        assert (rc, out) == (3, "")
        assert err == "ceiling: DP state cap 10 exceeded by 12/34 at layer m=7 (n=9)\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_parse_error_exit_code(self, capsys):
        rc, _, err = run(capsys, "count", "--pattern", "1x", "--n-from", "1", "--n-to", "2")
        assert rc == 1 and "malformed" in err


class TestCache:
    def test_cache_file_written_and_reused(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "counts.jsonl"
        rc, first, _ = run(
            capsys, "count", "--pattern", "123", "--n-from", "1", "--n-to", "6",
            "--cache", str(cache),
        )
        assert rc == 0 and cache.exists()
        assert len(cache.read_text().splitlines()) == 6

        calls = []
        real = cli.count_sequence

        def spy(tau, n_max):
            calls.append(n_max)
            return real(tau, n_max)

        monkeypatch.setattr(cli, "count_sequence", spy)
        rc, second, _ = run(
            capsys, "count", "--pattern", "123", "--n-from", "1", "--n-to", "6",
            "--cache", str(cache),
        )
        assert rc == 0
        assert calls == []  # every value served from the cache
        assert first == second

    def test_enumerated_pattern_cached_and_counted_once(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "counts.jsonl"
        calls = []
        real = cli.count_sequence

        def spy(tau, n_max):
            calls.append(n_max)
            return real(tau, n_max)

        monkeypatch.setattr(cli, "count_sequence", spy)
        args = ("count", "--pattern", "1/23", "--n-from", "1", "--cache", str(cache))
        rc, _, _ = run(capsys, *args, "--n-to", "4")
        assert rc == 0 and calls == [4]  # one sequence for the whole n range
        rc, first, _ = run(capsys, *args, "--n-to", "4")
        assert rc == 0 and calls == [4]  # every value served from the cache
        rc, second, _ = run(capsys, *args, "--n-to", "6")
        assert rc == 0 and calls == [4, 6]  # only the misses trigger a count
        assert second.startswith(first)

    def test_torn_final_line_skipped_and_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "counts.jsonl"
        run(capsys, "count", "--pattern", "1/23", "--n-from", "1", "--n-to", "5", "--cache", str(cache))
        _, expected, _ = run(
            capsys, "count", "--pattern", "1/23", "--n-from", "1", "--n-to", "5", "--no-cache"
        )
        text = cache.read_text()
        cache.write_text(text[: text.rindex('"count"') + 12])  # cut the last append short
        rc, out, err = run(
            capsys, "count", "--pattern", "1/23", "--n-from", "1", "--n-to", "5", "--cache", str(cache)
        )
        assert rc == 0 and out == expected
        assert "warning" in err and str(cache) in err and "line 5" in err
        lines = cache.read_text().splitlines()
        assert len(lines) == 5 and json.loads(lines[-1]) == {"tau": "1/23", "n": 5, "count": "11"}
        rc, again, err = run(
            capsys, "count", "--pattern", "1/23", "--n-from", "1", "--n-to", "5", "--cache", str(cache)
        )
        assert rc == 0 and again == expected and err == ""

    def test_malformed_inner_line_names_the_file(self, capsys, tmp_path):
        cache = tmp_path / "counts.jsonl"
        cache.write_text('not json\n{"tau": "12", "n": 3, "count": "1"}\n')
        rc, _, err = run(
            capsys, "count", "--pattern", "12", "--n-from", "1", "--n-to", "3", "--cache", str(cache)
        )
        assert rc == 1 and str(cache) in err and "line 1" in err

    @pytest.mark.parametrize("where", ["inner", "last"])
    def test_conflicting_count_names_both(self, capsys, tmp_path, where):
        # a later complete line giving a key read before another count is an error, wherever it stands
        lines = ['{"tau": "12/34", "n": 6, "count": "122"}', '{"tau": "12/34", "n": 6, "count": "999"}']
        if where == "inner":
            lines.append('{"tau": "12/34", "n": 5, "count": "41"}')
        cache = tmp_path / "counts.jsonl"
        cache.write_text("\n".join(lines) + "\n")
        rc, out, err = run(
            capsys, "count", "--pattern", "12/34", "--n-from", "6", "--n-to", "6", "--cache", str(cache)
        )
        assert rc == 1 and out == ""
        assert err == (
            f"error: cache file {cache}, line 2: tau '12/34', n 6 has count 999,"
            " but an earlier line has 122\n"
        )

    def test_identical_repeat_is_served(self, capsys, tmp_path):
        # two appenders racing on one (tau, n) write the same line twice
        cache = tmp_path / "counts.jsonl"
        cache.write_text('{"tau": "12/34", "n": 6, "count": "122"}\n' * 2)
        rc, out, err = run(
            capsys, "count", "--pattern", "12/34", "--n-from", "6", "--n-to", "6", "--cache", str(cache)
        )
        assert rc == 0 and err == ""
        assert out.splitlines()[1].split(",")[:3] == ["12/34", "6", "122"]
        assert cache.read_text().count("\n") == 2

    @pytest.mark.parametrize(
        ("line", "n", "count"),
        [('{"tau": "12/34", "n": 6.7, "count": "999"}', 6, 122), ('{"tau": "12/34", "n": 7, "count": 5.5}', 7, 367)],
        ids=["n-float", "count-float"],
    )
    def test_a_line_add_never_writes_is_recounted(self, capsys, tmp_path, line, n, count):
        # int() would serve 999 at n = 6 and 5 at n = 7
        cache = tmp_path / "counts.jsonl"
        cache.write_text(line + "\n")
        rc, out, err = run(
            capsys, "count", "--pattern", "12/34", "--n-from", "1", "--n-to", "7", "--cache", str(cache)
        )
        assert rc == 0 and "warning" in err and "torn last line 1" in err
        assert out.splitlines()[n].split(",")[:3] == ["12/34", str(n), str(count)]

    def test_env_var_default_path(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
        rc, _, _ = run(capsys, "count", "--pattern", "12", "--n-from", "1", "--n-to", "4")
        assert rc == 0 and cache.exists()

    def test_no_cache_wins_over_env(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
        rc, _, _ = run(
            capsys, "count", "--pattern", "12", "--n-from", "1", "--n-to", "4", "--no-cache"
        )
        assert rc == 0 and not cache.exists()

    def test_disabled_cache_recomputes_identically(self, capsys, tmp_path):
        cache = tmp_path / "counts.jsonl"
        rc, cached_out, _ = run(
            capsys, "count", "--pattern", "1/23", "--n-from", "1", "--n-to", "7",
            "--cache", str(cache),
        )
        rc, fresh_out, _ = run(
            capsys, "count", "--pattern", "1/23", "--n-from", "1", "--n-to", "7", "--no-cache"
        )
        assert cached_out == fresh_out


class TestCheck:
    def test_contains_with_witness(self, capsys):
        rc, out, _ = run(capsys, "check", "124/35", "1/23")
        assert rc == 0 and out.strip() == "contains: witness [1, 3, 5]"

    def test_avoids(self, capsys):
        rc, out, _ = run(capsys, "check", "123", "1/2")
        assert rc == 0 and out.strip() == "avoids"

    def test_derived_avoidance(self, capsys):
        rc, out, _ = run(capsys, "check", "13/24", "12/34")
        assert out.strip() == "avoids"

    def test_json_witness(self, capsys):
        rc, out, _ = run(capsys, "check", "124/35", "1/23", "--format", "json")
        doc = json.loads(out)
        assert doc["contains"] is True and doc["witness"] == [1, 3, 5]

    def test_parse_error(self, capsys):
        rc, _, err = run(capsys, "check", "12//3", "1")
        assert rc == 1 and "empty block" in err

    def test_pattern_past_the_recursion_limit_is_a_ceiling(self, capsys):
        # the search recurses once per pattern block
        host = "/".join(map(str, range(1, 1201)))
        pattern = "/".join(map(str, range(1, 1101)))
        rc, out, err = run(capsys, "check", host, pattern)
        assert rc == 3 and out == ""
        assert err == "ceiling: containment search recursion limit exceeded by 1100 pattern blocks\n"


class TestConjectures:
    def test_all_k3_verdicts(self, capsys):
        rc, out, err = run(
            capsys, "conjectures", "--all-k", "3", "--n-from", "1", "--n-to", "8", "--no-cache"
        )
        assert rc == 0
        assert "conjecture 1: pass" in err
        assert "conjecture 5 tau=123: consistent" in err
        assert "tau=1/2/3: degenerate" in err
        rows = out.strip().splitlines()
        assert rows[0].startswith("tau,n,count")
        assert len(rows) == 1 + 5 * 8

    def test_json_document(self, capsys):
        rc, out, _ = run(
            capsys, "conjectures", "--pattern", "123", "--n-from", "2", "--n-to", "8",
            "--no-cache", "--format", "json",
        )
        doc = json.loads(out)
        ids = {v["conjecture"] for v in doc["verdicts"]}
        assert ids == {"5", "6", "2-4"}
        five = next(v for v in doc["verdicts"] if v["conjecture"] == "5")
        assert five["status"] == "consistent"
        assert doc["rows"][0]["tau"] == "123"

    def test_k_ceiling(self, capsys, monkeypatch):
        # no flag caps k: the family's own size does, past cli._FAMILY_MAX members
        rc, _, err = run(
            capsys, "conjectures", "--all-k", "6", "--n-from", "1", "--n-to", "6", "--no-cache"
        )
        assert rc == 0 and "conjecture 1: pass (A_n(123456) >= A_n(tau) for all 202 other patterns of [6]" in err
        # both families have at least 2^(K-1) - 1 members, so a K past the cap
        # by that bound alone is refused before a member of K elements is built
        def unbuilt(k):
            raise AssertionError(f"a member of size {k} was built")
            yield

        monkeypatch.setattr(cli, "all_partitions", unbuilt)
        monkeypatch.setattr(cli, "compositions", unbuilt)
        for command in ("conjectures", "bounds"):
            for k in ("15", "1000000000"):
                rc, out, err = run(capsys, command, "--all-k", k, "--n-from", "1", "--n-to", "6", "--no-cache")
                assert (rc, out) == (3, "") and f"--all-k {k}: the family has more than 10,000 members" in err
        monkeypatch.undo()
        # [4] has 15 patterns, and the layered shapes of size 2..5 number 26
        for command, k, size in (("conjectures", "4", 15), ("bounds", "5", 26)):
            argv = (command, "--all-k", k, "--n-from", "1", "--n-to", "6", "--no-cache")
            for cap in (10, size - 1):
                monkeypatch.setattr(cli, "_FAMILY_MAX", cap)
                rc, out, err = run(capsys, *argv)
                assert (rc, out) == (3, "") and f"--all-k {k}: the family has more than {cap} members" in err
            monkeypatch.setattr(cli, "_FAMILY_MAX", size)
            assert run(capsys, *argv)[0] == 0

    def test_one_block_pattern_scans_past_enum_ceiling(self, capsys):
        # served by the closed recursion, so n = 500 is fine and the margin
        # bound 0 < 0.5 - F_n < 1/ln n shows as a consistent trend
        rc, out, err = run(
            capsys, "conjectures", "--pattern", "123", "--n-from", "20", "--n-to", "500",
            "--no-cache", "--format", "json",
        )
        assert rc == 0
        doc = json.loads(out)
        five = next(v for v in doc["verdicts"] if v["conjecture"] == "5")
        assert five["status"] == "consistent"
        for row in five["rows"]:
            assert 0 < row["gap"] < 1 / math.log(row["n"])

    def test_k_ceiling_below_1_is_invalid_under_all_k(self, capsys):
        # the flag is gone: the family's size is the only cap on --all-k
        rc, out, err = run(
            capsys, "conjectures", "--all-k", "1", "--k-ceiling", "0", "--n-from", "1", "--n-to", "3", "--no-cache"
        )
        assert (rc, out, err) == (1, "", "error: unrecognized arguments: --k-ceiling 0\n")

    def test_no_usable_row_reports_degenerate(self, capsys):
        # n < 2 gives no F_n, so there is no trend to call consistent
        rc, out, err = run(capsys, "conjectures", "--pattern", "12", "--n-from", "0", "--n-to", "1", "--no-cache")
        assert rc == 0 and len(out.strip().splitlines()) == 1 + 2
        why = "pm=1: no row has n >= 2 and a positive count"
        assert err == (
            f"conjecture 5 tau=12: degenerate ({why}, so no F_n to compare with 1-1/pm)\n"
            f"conjecture 6 tau=12: degenerate ({why}, so no margin to bound)\n"
        )

    @pytest.mark.parametrize(("pattern", "observed"), [("1", ""), ("1/2", "; observed F stays 0")])
    def test_pm_0_observes_only_usable_rows(self, capsys, pattern, observed):
        # the counts of 1 are 0 for n >= 1, so it has no F_n to observe
        rc, _, err = run(capsys, "conjectures", "--pattern", pattern, "--n-from", "1", "--n-to", "4", "--no-cache")
        assert rc == 0 and err == (
            f"conjecture 5 tau={pattern}: degenerate (pm=0: target 1-1/pm undefined; "
            f"growth is at most exponential so F tends to 0{observed})\n"
            f"conjecture 6 tau={pattern}: degenerate (pm=0: no finite target to compare against)\n"
        )

    def test_requires_pattern_selection(self, capsys):
        rc, _, err = run(capsys, "conjectures", "--n-from", "1", "--n-to", "4", "--no-cache")
        assert rc == 1

    def test_all_k4_counts_each_reversal_orbit_once(self, capsys, monkeypatch):
        counted = []
        real = cli.count_sequence

        def spy(tau, n_max):
            counted.append(str(tau))
            return real(tau, n_max)

        monkeypatch.setattr(cli, "count_sequence", spy)
        rc, out, _ = run(capsys, "conjectures", "--all-k", "4", "--n-from", "1", "--n-to", "9", "--no-cache")
        assert rc == 0
        # 15 patterns: the block 1234 in closed form, 6 multi-block patterns
        # that are their own reverse, and 4 orbits of two, each counted once
        assert counted == [
            "1234", "123/4", "124/3", "12/34", "12/3/4", "13/24", "13/2/4",
            "14/23", "1/23/4", "14/2/3", "1/2/3/4",
        ]
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 15 * 9
        for tau in all_partitions(4):
            walk = _walk_sequence(tau, 9)
            assert [r[2] for r in rows if r[0] == str(tau)] == [str(a) for a in walk[1:]], str(tau)

    def test_all_k4_counts_to_n_20(self, capsys):
        rc, out, err = run(capsys, "conjectures", "--all-k", "4", "--n-from", "1", "--n-to", "20", "--no-cache")
        assert rc == 0 and "conjecture 1: pass" in err
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 15 * 20
        assert [int(r[2]) for r in rows if r[0] == "1/2/3/4"] == [singleton_count(4, n) for n in range(1, 21)]
        assert [int(r[2]) for r in rows if r[0] == "1234"] == block_recursion(4, 20)[1:]

    def test_repeated_pattern_scanned_once(self, capsys):
        # 21/3 is 12/3 in canonical form; the first-seen order is kept
        rc, out, err = run(
            capsys, "conjectures", "--pattern", "123", "--pattern", "1/2", "--pattern", "123",
            "--pattern", "12/3", "--pattern", "21/3", "--n-from", "2", "--n-to", "3", "--no-cache",
        )
        assert rc == 0
        taus = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert taus == ["123", "123", "1/2", "1/2", "12/3", "12/3"]
        assert err.count("conjecture 5 tau=123:") == 1
        assert err.count("conjecture 5 tau=12/3:") == 1

    def test_conjecture_one_counterexample_fails_and_exits_0(self, capsys, monkeypatch):
        # 13/2, its own reverse, is made to outnumber the block 123 at n = 4
        real = cli.count_sequence

        def inflated(tau, n_max):
            seq = real(tau, n_max)
            if str(tau) == "13/2":
                seq[4] = 100
            return seq

        monkeypatch.setattr(cli, "count_sequence", inflated)
        rc, out, err = run(
            capsys, "conjectures", "--all-k", "3", "--n-from", "1", "--n-to", "5",
            "--no-cache", "--format", "json",
        )
        assert rc == 0  # a trend or conjecture verdict never changes the exit status
        assert "conjecture 1: fail (A_n(block) < A_n(13/2) at n=4)\n" in err
        [one] = [v for v in json.loads(out)["verdicts"] if v["conjecture"] == "1"]
        assert one["status"] == "fail"
        assert one["counterexample"] == {"tau": "13/2", "n": 4, "count": "100", "block_count": "10"}

    def test_state_cap_prints_the_exact_rows_and_no_verdict(self, capsys, monkeypatch):
        # 12/34 outgrows a cap of 10 states in layer 7; 123 takes the closed
        # form, and 1/2 comes after the refusal
        monkeypatch.setattr(enumeration, "_DP_MAX_STATES", 10)
        refusal = "ceiling: DP state cap 10 exceeded by 12/34 at layer m=7 (n=9)\n"
        args = ["conjectures", "--pattern", "123", "--pattern", "12/34", "--pattern", "1/2",
                "--n-from", "1", "--n-to", "9", "--no-cache"]
        rc, out, err = run(capsys, *args)
        assert rc == 3 and err == refusal
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        assert [r for r in rows if r[0] != "123"] == [
            ["12/34", str(n), count] for n, count in zip(range(1, 7), ["1", "2", "5", "14", "41", "122"])
        ]
        assert [r[1] for r in rows if r[0] == "123"] == [str(n) for n in range(1, 10)]
        rc, out, err = run(capsys, *args, "--format", "json")
        doc = json.loads(out)
        assert rc == 3 and err == refusal and doc["verdicts"] == [] and len(doc["rows"]) == 9 + 6
        # with no exact row in the range, nothing is printed
        rc, out, err = run(capsys, "conjectures", "--pattern", "12/34", "--n-from", "7", "--n-to", "9", "--no-cache")
        assert (rc, out, err) == (3, "", refusal)


class TestBounds:
    def test_sandwich_report(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--shape", "3", "--shape", "2,2", "--n-from", "1",
            "--n-to", "8", "--no-cache",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,k,r,n,count,f_ratio,ln_count,lower_bound,upper_bound,within"
        assert all(line.endswith("True") for line in lines[1:])

    def test_all_k_mode(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--all-k", "3", "--n-from", "2", "--n-to", "6", "--no-cache"
        )
        assert rc == 0
        taus = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
        assert taus == {"12", "123", "1/23", "12/3"}

    def test_no_shape_source_refused(self, capsys):
        rc, out, err = run(capsys, "bounds", "--n-from", "1", "--n-to", "4", "--no-cache")
        assert (rc, out, err) == (1, "", "error: supply --shape or --all-k\n")

    def test_every_audited_count_is_positive(self, capsys):
        # every audited shape has r < k, so the all-singleton partition avoids it
        rc, out, _ = run(
            capsys, "bounds", "--all-k", "5", "--n-from", "1", "--n-to", "12",
            "--format", "json", "--no-cache",
        )
        rows = json.loads(out)
        assert rc == 0 and len(rows) == 26 * 12
        assert all(int(r["count"]) > 0 and r["ln_count"] is not None for r in rows)

    def test_repeated_shape_scanned_once(self, capsys):
        # " 2, 2" parses to the shape 2,2; the first-seen order is kept
        rc, out, _ = run(
            capsys, "bounds", "--shape", "2,2", "--shape", "1,2", "--shape", " 2, 2",
            "--shape", "2,2", "--n-from", "4", "--n-to", "5", "--no-cache",
        )
        assert rc == 0
        rows = [line.split(",")[:4] for line in out.strip().splitlines()[1:]]
        assert rows == [
            ["12/34", "4", "2", "4"], ["12/34", "4", "2", "5"],
            ["1/23", "3", "2", "4"], ["1/23", "3", "2", "5"],
        ]

    def test_n_to_zero_refused_before_the_scan(self, capsys):
        rc, out, err = run(
            capsys, "bounds", "--shape", "2,2", "--n-from", "0", "--n-to", "0", "--no-cache"
        )
        assert rc == 1 and out == "" and err == "error: --n-to must be >= 1: bounds audits n >= 1\n"

    def test_n_from_zero_audits_from_one(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--shape", "2,2", "--n-from", "0", "--n-to", "2", "--no-cache"
        )
        assert rc == 0
        assert [line.split(",")[3] for line in out.strip().splitlines()[1:]] == ["1", "2"]

    def test_lower_bound_is_the_log_of_the_uniform_count(self, capsys):
        # ln (n/t)!^(t-1) for t = k - r sections where t divides n, 0.0 at t = 1, and null otherwise
        rc, out, _ = run(
            capsys, "bounds", "--all-k", "5", "--n-from", "1", "--n-to", "12", "--format", "json", "--no-cache"
        )
        assert rc == 0
        rows = json.loads(out)
        assert {row["k"] - row["r"] for row in rows} == {1, 2, 3, 4}
        for row in rows:
            n, t = row["n"], row["k"] - row["r"]
            assert row["lower_bound"] == (math.log(uniform_count(n, t)) if n % t == 0 else None), row

    def test_malformed_shape(self, capsys):
        rc, _, err = run(
            capsys, "bounds", "--shape", "2;2", "--n-from", "1", "--n-to", "4", "--no-cache"
        )
        assert rc == 1 and "malformed shape" in err

    def test_all_singleton_shape_rejected(self, capsys):
        rc, _, err = run(
            capsys, "bounds", "--shape", "1,1", "--n-from", "1", "--n-to", "4", "--no-cache"
        )
        assert rc == 1 and "k must exceed r" in err

    @pytest.mark.parametrize(
        ("command", "k", "least"), [("bounds", "1", 2), ("bounds", "-2", 2), ("conjectures", "0", 1)]
    )
    def test_all_k_below_the_least_family(self, capsys, command, k, least):
        rc, out, err = run(
            capsys, command, "--all-k", k, "--n-from", "1", "--n-to", "4", "--no-cache"
        )
        assert rc == 1 and out == "" and err == f"error: --all-k must be >= {least}\n"

    def test_state_cap_prints_the_exact_rows(self, capsys, monkeypatch):
        # 12/34, the shape 2,2, outgrows a cap of 10 states in layer 7
        monkeypatch.setattr(enumeration, "_DP_MAX_STATES", 10)
        rc, out, err = run(
            capsys, "bounds", "--shape", "3", "--shape", "2,2", "--shape", "1,2",
            "--n-from", "1", "--n-to", "9", "--no-cache",
        )
        assert rc == 3 and err == "ceiling: DP state cap 10 exceeded by 12/34 at layer m=7 (n=9)\n"
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[:5] for r in rows if r[0] != "123"] == [
            ["12/34", "4", "2", str(n), count] for n, count in zip(range(1, 7), ["1", "2", "5", "14", "41", "122"])
        ]
        assert len(rows) == 9 + 6 and all(r[-1] == "True" for r in rows)

    def test_violation_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "count_sequence", lambda tau, n_max: [10**9] * (n_max + 1)
        )
        rc, out, err = run(
            capsys, "bounds", "--shape", "1,2", "--n-from", "2", "--n-to", "2", "--no-cache"
        )
        assert rc == 2 and "bound violation" in err


class TestDacpCommand:
    @pytest.mark.parametrize(
        ("argv", "answers"),
        [(["to", "134/25"], ["12345"]), (["from", '{"n": 4, "edges": []}'], ["1234", "1/2/3/4"])],
        ids=["to", "from"],
    )
    def test_roundtrip_mismatch_reported_once(self, capsys, monkeypatch, argv, answers):
        # the converter's answer on the roundtrip call is wrong
        partitions = iter(map(cli.parse, answers))
        monkeypatch.setattr(cli, "from_dacp", lambda graph: next(partitions))
        rc, _, err = run(capsys, "dacp", *argv, "--roundtrip")
        assert rc == 2 and err == "assertion failure: roundtrip mismatch\n"

    def test_to_graph(self, capsys):
        rc, out, _ = run(capsys, "dacp", "to", "134/25", "--roundtrip")
        assert rc == 0
        doc = json.loads(out)
        assert doc["n"] == 5
        assert [2, 1] in doc["edges"] and len(doc["edges"]) == 6

    def test_from_graph_inline(self, capsys):
        rc, out, _ = run(capsys, "dacp", "from", '{"n": 4, "edges": []}', "--roundtrip")
        assert rc == 0 and out.strip() == "1234"

    def test_from_graph_file(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(
            '{"n": 5, "edges": [[2,1],[3,2],[4,2],[5,1],[5,3],[5,4]]}', encoding="utf-8"
        )
        rc, out, _ = run(capsys, "dacp", "from", f"@{path}")
        assert rc == 0 and out.strip() == "134/25"

    def test_two_cycle_named(self, capsys):
        rc, _, err = run(capsys, "dacp", "from", '{"n": 2, "edges": [[1,2],[2,1]]}')
        assert rc == 1 and "directed cycle" in err

    def test_invalid_json(self, capsys):
        rc, _, err = run(capsys, "dacp", "from", "{nope")
        assert rc == 1 and "invalid graph JSON" in err


class TestPermeabilityCommand:
    def test_text_output_with_oracle(self, capsys):
        rc, out, _ = run(capsys, "permeability", "13/24", "--oracle")
        assert rc == 0
        assert "pm = 1" in out and "oracle = 1" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "permeability", "12/345", "--format", "json")
        doc = json.loads(out)
        assert doc["pm"] == 3 and doc["cuts"] == [1, 3, 4]

    def test_json_with_oracle(self, capsys):
        rc, out, _ = run(capsys, "permeability", "12/345", "--oracle", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["oracle"] == doc["pm"] == 3


class TestUniformCommand:
    def test_count_and_members(self, capsys):
        rc, out, _ = run(capsys, "uniform", "--n", "4", "--sections", "2", "--list")
        assert rc == 0
        assert out.splitlines() == ["count = 2", "13/24", "14/23"]

    def test_limit(self, capsys):
        rc, out, _ = run(capsys, "uniform", "--n", "8", "--sections", "2", "--list", "3")
        assert len(out.splitlines()) == 4

    def test_negative_limit_named(self, capsys):
        rc, out, err = run(capsys, "uniform", "--n", "4", "--sections", "2", "--list", "-1")
        assert rc == 1 and out == "" and err == "error: --list must be >= 0\n"

    @pytest.mark.parametrize("flags", [(), ("--list", "0")], ids=["no-list", "list-0"])
    def test_count_alone(self, capsys, flags):
        rc, out, _ = run(capsys, "uniform", "--n", "8", "--sections", "2", *flags)
        assert rc == 0 and out == "count = 24\n"

    def test_limit_flag_is_gone(self, capsys):
        rc, out, err = run(capsys, "uniform", "--n", "8", "--sections", "2", "--limit", "3")
        assert rc == 1 and out == "" and "unrecognized arguments: --limit 3" in err

    def test_indivisible(self, capsys):
        rc, _, err = run(capsys, "uniform", "--n", "5", "--sections", "2")
        assert rc == 1

    def test_negative_n_named(self, capsys):
        rc, out, err = run(capsys, "uniform", "--n", "-2", "--sections", "1")
        assert rc == 1 and out == "" and err == "error: n must be nonnegative\n"

    def test_unknown_command_is_invalid_input(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1


@pytest.mark.parametrize(
    "command",
    [["count", "--pattern", "12/34"], ["conjectures", "--pattern", "12/34"], ["bounds", "--shape", "2,2"]],
    ids=["count", "conjectures", "bounds"],
)
@pytest.mark.parametrize(
    ("flags", "code", "message"),
    [
        (["--n-from", "5", "--n-to", "2"], 1, "n range is empty or negative"),
        (["--n-from", "-1"], 1, "n range is empty or negative"),
        # every scan counts by count_sequence: the oracle flags are gone
        (["--oracle-ceiling", "13"], 1, "unrecognized arguments: --oracle-ceiling 13"),
        (["--workers", "0"], 1, f"1 and {os.cpu_count() or 1}"),
        (["--oracle", "--n-to", "11"], 1, "unrecognized arguments: --oracle\n"),
        (["--oracle-ceiling", "-3"], 1, "unrecognized arguments: --oracle-ceiling -3"),
        (["--oracle", "--oracle-ceiling", "-1"], 1, "unrecognized arguments: --oracle --oracle-ceiling -1"),
        (["--k-ceiling", "0"], 1, "unrecognized arguments: --k-ceiling 0"),
    ],
    ids=[
        "n-reversed", "n-negative", "oracle-ceiling-cap", "workers", "oracle-ceiling",
        "oracle-ceiling-negative", "oracle-ceiling-negative-under-oracle", "k-ceiling-below-1",
    ],
)
def test_scan_flags_checked(capsys, command, flags, code, message):
    rc, out, err = run(
        capsys, *command, "--n-from", "1", "--n-to", "4", "--no-cache", *flags
    )
    assert rc == code and out == "" and message in err


@pytest.mark.parametrize(
    ("command", "first", "second"),
    [
        (["bounds", "--shape", "2,2", "--all-k", "1"], "--all-k", "--shape"),
        (["bounds", "--all-k", "3", "--shape", "2,2"], "--shape", "--all-k"),
        (["conjectures", "--all-k", "3", "--pattern", "12"], "--pattern", "--all-k"),
        (["conjectures", "--pattern", "12", "--all-k", "3"], "--all-k", "--pattern"),
    ],
    ids=["bounds-shape-first", "bounds-all-k-first", "conjectures-all-k-first", "conjectures-pattern-first"],
)
def test_conflicting_family_flags_exit_1(capsys, command, first, second):
    rc, out, err = run(capsys, *command, "--n-from", "1", "--n-to", "5", "--no-cache")
    assert rc == 1 and out == ""
    assert f"argument {first}: not allowed with argument {second}" in err


@pytest.mark.parametrize(
    ("argv", "bad"),
    [
        (["dacp", "from", "@{tmp}/missing.json"], "{tmp}/missing.json"),
        (["count", "--pattern", "12/3", "--n-from", "1", "--n-to", "3", "--no-cache",
          "--out", "{tmp}/nodir/out.csv"], "{tmp}/nodir/out.csv"),
        (["count", "--pattern", "12/3", "--n-from", "1", "--n-to", "3",
          "--cache", "{tmp}"], "{tmp}"),
    ],
    ids=["missing-input", "out-dir-missing", "cache-is-directory"],
)
def test_file_error_exits_1_naming_the_path(capsys, tmp_path, argv, bad):
    rc, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and bad.format(tmp=tmp_path) in err


def _child_env() -> dict[str, str]:
    # a child imports the partpat under test, whether pytest found it through
    # PYTHONPATH or through its pythonpath setting
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("module", ["concurrent.futures.process", "dataclasses", "inspect", "heapq"])
def test_cli_import_leaves_the_process_pool_unloaded(module):
    # start-up loads no process pool (counting runs in one process and
    # --workers has no effect), nor the dataclass machinery and the inspect
    # module it loads, nor heapq, which no module needs
    code = f"import sys, partpat.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_child_env()
    )
    assert out.stdout.strip() == "False"


def test_counts_past_the_int_text_limit(tmp_path):
    # A_3000(123) has more than the 4,300 digits that Python converts between
    # int and text by default; Decimal reads the printed count past that limit.
    # The second and third runs write the row to the cache and read it back.
    argv = ["count", "--pattern", "123", "--n-from", "3000", "--n-to", "3000", "--format", "json"]
    cache = ["--cache", str(tmp_path / "counts.jsonl")]
    for extra in (["--no-cache"], cache, cache):
        proc = subprocess.run(
            [sys.executable, "-m", "partpat.cli", *argv, *extra],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert Decimal(json.loads(proc.stdout)[0]["count"]) == block_recursion(3, 3000)[3000]


@pytest.mark.parametrize(
    "launcher",
    [["-m", "partpat.cli"], ["-c", "import sys; from partpat.cli import main; sys.exit(main())"]],
    ids=["module", "entry-point"],
)
def test_closed_stdout_exits_quietly(launcher):
    # the reader is gone before the run starts, so writing the listing meets
    # a broken pipe, as under `partpat uniform ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *launcher, "uniform", "--n", "12", "--sections", "2", "--list"],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == b""
