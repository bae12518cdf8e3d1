"""Smoke test of scripts/bench_layers.py at its smallest size."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


def test_bench_layers_writes_its_report(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "BENCH_layers.json"
    assert bench.main(["--repeat", "1", "--walk-n", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["metrics"]) == {
        "parse.us", "rgs.us", "find_occurrence.us.p50", "find_occurrence.us.p99",
        "contains.us.p50", "contains.us.p99", "witness.us.p50",
        "walk.ns_per_node", "dacp_contains.us", "dacp_roundtrip.us",
    }
    # the witness's cost is a difference of two times, so it may read below 0
    assert all(value > 0 for name, value in report["metrics"].items() if name != "witness.us.p50")
    counts = report["counts"]
    # 12..40 elements at two block-count levels, against the 72 patterns of [3..5]
    assert counts["hosts"] == 58 and counts["queries"] == 58 * 72
    assert 0 < counts["query_hits"] < counts["queries"]
    # a pattern of 3 or more elements keeps every partition of [m], m < 3
    assert counts["walk_nodes"] > 72 * (1 + 1 + 2)
    assert counts["dacp_checks"] == 20 * 20 and 0 < counts["dacp_hits"] < 400
    dp = report["dp"]
    k4 = dp["k4_n9"]
    # 14 multi-block patterns of [4] in 10 reversal orbits
    assert len(k4["patterns"]) == 14 and 0 < k4["scan_ms"] < k4["ms"]
    assert all(row["ms"] > 0 and row["peak_states"] > 0 for row in k4["patterns"].values())
    assert k4["patterns"]["1/2/3/4"]["peak_states"] < k4["patterns"]["14/23"]["peak_states"]
    assert dp["123/45_n11"]["ms"] > 0 and dp["123/45_n11"]["peak_states"] > 0
    # 52 partitions of [5], less the one-block pattern
    assert dp["k5_n12"]["patterns"] == 51
    assert dp["k5_n12"]["s"] > 0 and dp["k5_n12"]["peak_states"] > 1000
    split = dp["14/23_n20"]
    assert set(split) == {"advance_ms", "settle_ms", "settle_share"}
    assert split["advance_ms"] > 0 and split["settle_ms"] > 0
    assert 0 < split["settle_share"] < 1
    large = report["large"]
    assert set(large) == {"14/25/36", "15/2/3/4"}
    assert all(set(rows) == {"200", "400", "800"} for rows in large.values())
    assert all(row["ms"] > 0 for rows in large.values() for row in rows.values())
    # a noncrossing host never contains a crossing pattern
    assert not any(row["contains"] for row in large["14/25/36"].values())
    out = capsys.readouterr().out
    assert "find_occurrence.us.p50" in out and "dp.k4_n9.scan_ms" in out
    assert "contains.us.p50" in out and "contains.us.p99" in out
    assert "rgs.us" in out and "witness.us.p50" in out
    assert "dp.14/23_n20.settle_share" in out and "large.15/2/3/4.n800.ms" in out
