"""Per-layer timings of partpat's parser, its two containment searches and
its counting DP.

    PYTHONPATH=src python3 scripts/bench_layers.py [--repeat 7] [--walk-n 8]
        [--out BENCH_layers.json]

Everything runs in this one process, on inputs drawn from a fixed seed. Each
call is timed alone, --repeat times, and keeps its fastest time: on a
shared machine a short call finds a quiet moment far more often than a
whole round does.

- ``parse.us``: mean microseconds per ``parse`` of a host's text. The hosts
  have 12..40 elements, one for each size and each of two block-count
  levels.
- ``find_occurrence.us.p50`` and ``.p99``: every host against every
  pattern of [3..5], over the queries' fastest times.
- ``contains.us.p50`` and ``.p99``: the same queries through ``contains``,
  the same search with no witness built, so the witness costs the
  difference.
- ``walk.ns_per_node``: nanoseconds per kept node of the pruned walk
  ``_walk_sequence``, one call per pattern of [3..5], up to n = --walk-n.
- ``dacp_contains.us``: mean microseconds per graph containment check, every
  pattern of [3..4] in every host of 5..8 elements at five block-count
  levels. The backtracking search is exponential in the host, so its
  hosts are small.
- ``dacp_roundtrip.us``: mean microseconds per ``from_dacp(to_dacp(h))``
  over the parsed hosts of 12..40 elements.

The ``dp`` section times ``count_sequence`` in-process, each call's fastest
of --repeat, and gives the peak states of a layer of the DP it runs:

- ``k4_n9``: each of the 14 multi-block patterns of [4] to n = 9, their
  total ``ms``, and ``scan_ms``, the total over one pattern per reversal
  orbit, which is what ``conjectures --all-k 4`` counts;
- ``123/45_n11``: the one pattern to n = 11;
- ``k5_n12``: the 51 multi-block patterns of [5] to n = 12, their number
  as ``patterns``, and in seconds one run each of ``_dp_sequence``, the DP
  layers ``count_sequence`` sums, timed while the largest peak among them
  is read off the same layers.
- ``14/23_n20``: one more DP run, of 14/23 to n = 20, made after all the
  plain timed runs, with its two stages ``_advance`` and ``_settle``
  wrapped by timers: ``advance_ms``, ``settle_ms``, and ``settle_share``,
  the part of that run's wall time spent in ``_settle``.

The ``large`` section times ``contains`` on seeded noncrossing hosts of
200, 400 and 800 elements, each query's fastest of --repeat, against
``14/25/36``, which crosses and so is never contained, and ``15/2/3/4``:
per pattern and host size, ``ms`` and the answer ``contains``. These are
the searches whose openings the bound blocks cut short.

The counts (queries, hits, nodes, checks) depend only on --walk-n, so two
builds timed with the same flags did the same work. The
report goes to --out as JSON and, in short, to stdout. The script uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from functools import partial
from unittest import mock

from partpat import (
    SetPartition,
    all_partitions,
    contains,
    count_sequence,
    dacp_contains,
    enumeration,
    find_occurrence,
    format_partition,
    from_dacp,
    parse,
    reverse,
    to_dacp,
)
from partpat.enumeration import _dp_layers, _dp_sequence, _walk_sequence

clock = time.perf_counter_ns
SEED = 1
LARGE_N = (200, 400, 800)
LARGE_PATTERNS = ("14/25/36", "15/2/3/4")


def random_host(rng: random.Random, n: int, bins: int) -> str:
    """The text of a partition of [n]: each element falls into one of
    ``bins`` bins at random, and empty bins vanish."""
    blocks: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        blocks.setdefault(rng.randrange(bins), []).append(e)
    return format_partition(SetPartition.from_blocks(blocks.values()))


def hosts(rng: random.Random, n_lo: int, n_hi: int, levels: int) -> list[str]:
    """One host text for every size n_lo..n_hi and block-count level."""
    return [
        random_host(rng, n, max(1, round(n * (i + 0.5) / levels)))
        for n in range(n_lo, n_hi + 1)
        for i in range(levels)
    ]


def noncrossing_host(rng: random.Random, n: int) -> SetPartition:
    """A noncrossing partition of [n]: element e joins an open block,
    closing the blocks opened after it, or closes some of the latest open
    blocks and opens its own. A closed block takes no later element."""
    blocks: list[list[int]] = []
    open_blocks: list[int] = []
    for e in range(1, n + 1):
        i = rng.randrange(len(open_blocks) + 1)
        if i < len(open_blocks) and rng.random() < 0.5:
            blocks[open_blocks[i]].append(e)
            del open_blocks[i + 1:]
        else:
            del open_blocks[i:]
            open_blocks.append(len(blocks))
            blocks.append([e])
    return SetPartition.from_blocks(blocks)


def fastest(calls: list, repeat: int) -> list[int]:
    """Each call's fastest time, in ns, over ``repeat`` rounds of all of them."""
    best = [math.inf] * len(calls)
    for _ in range(repeat):
        for i, call in enumerate(calls):
            start = clock()
            call()
            best[i] = min(best[i], clock() - start)
    return best


def roundtrip(h: SetPartition) -> SetPartition:
    return from_dacp(to_dacp(h))


def percentile(ordered: list[int], q: float) -> int:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_states(tau: SetPartition, n: int) -> int:
    """The most states in a layer of the DP that ``count_sequence`` runs."""
    return max(states for _, states, _ in _dp_sequence(tau, n))


def stage_split(tau: SetPartition, n: int) -> dict:
    """Time in each stage of one run of the DP of tau to n, and the settle
    stage's share of the run's wall time."""
    spent = {"_advance": 0, "_settle": 0}

    def timed(name: str):
        stage = getattr(enumeration, name)

        def run(*args):
            start = clock()
            out = stage(*args)
            spent[name] += clock() - start
            return out

        return mock.patch.object(enumeration, name, run)

    with timed("_advance"), timed("_settle"):
        start = clock()
        for _ in _dp_layers(tau, n):
            pass
        wall = clock() - start
    return {
        "advance_ms": spent["_advance"] / 1e6,
        "settle_ms": spent["_settle"] / 1e6,
        "settle_share": spent["_settle"] / wall,
    }


def measure_dp(repeat: int) -> dict:
    k4 = [p for p in all_partitions(4) if len(p.blocks) > 1]
    k4_ns = fastest([partial(count_sequence, p, 9) for p in k4], repeat)
    scan: dict[str, int] = {}  # a scan counts the first pattern of each reversal orbit
    for p, ns in zip(k4, k4_ns):
        scan.setdefault(min(str(p), str(reverse(p))), ns)
    deep = parse("123/45")
    k5 = [p for p in all_partitions(5) if len(p.blocks) > 1]
    start = clock()  # one DP run per pattern, timed and read for its peak at once
    k5_peak = max(peak_states(p, 12) for p in k5)
    k5_ns = clock() - start
    return {
        "k4_n9": {
            "patterns": {
                str(p): {"ms": ns / 1e6, "peak_states": peak_states(p, 9)} for p, ns in zip(k4, k4_ns)
            },
            "ms": sum(k4_ns) / 1e6,
            "scan_ms": sum(scan.values()) / 1e6,
        },
        "123/45_n11": {
            "ms": fastest([partial(count_sequence, deep, 11)], repeat)[0] / 1e6,
            "peak_states": peak_states(deep, 11),
        },
        "k5_n12": {"patterns": len(k5), "s": k5_ns / 1e9, "peak_states": k5_peak},
        "14/23_n20": stage_split(parse("14/23"), 20),  # after every plain timed run
    }


def measure_large(repeat: int) -> dict:
    rng = random.Random(SEED)
    large_hosts = [noncrossing_host(rng, n) for n in LARGE_N]
    report = {}
    for text in LARGE_PATTERNS:
        tau = parse(text)
        ns = fastest([partial(contains, h, tau) for h in large_hosts], repeat)
        report[text] = {
            str(h.n): {"ms": t / 1e6, "contains": contains(h, tau)} for h, t in zip(large_hosts, ns)
        }
    return report


def measure(repeat: int, walk_n: int) -> dict:
    rng = random.Random(SEED)
    texts = hosts(rng, 12, 40, 2)
    patterns = [p for k in (3, 4, 5) for p in all_partitions(k)]
    host_values = [parse(t) for t in texts]
    pairs = [(h, p) for h in host_values for p in patterns]
    checks = [
        (to_dacp(parse(h)), to_dacp(p))
        for h in hosts(rng, 5, 8, 5)
        for p in (*all_partitions(3), *all_partitions(4))
    ]

    parse_ns = fastest([partial(parse, t) for t in texts], repeat)
    query_ns = sorted(fastest([partial(find_occurrence, h, p) for h, p in pairs], repeat))
    contains_ns = sorted(fastest([partial(contains, h, p) for h, p in pairs], repeat))
    walk_ns = fastest([partial(_walk_sequence, p, walk_n) for p in patterns], repeat)
    dacp_ns = fastest([partial(dacp_contains, g, p) for g, p in checks], repeat)
    trip_ns = fastest([partial(roundtrip, h) for h in host_values], repeat)
    nodes = sum(sum(_walk_sequence(p, walk_n)) for p in patterns)

    return {
        "metrics": {
            "parse.us": sum(parse_ns) / len(texts) / 1e3,
            "find_occurrence.us.p50": percentile(query_ns, 0.50) / 1e3,
            "find_occurrence.us.p99": percentile(query_ns, 0.99) / 1e3,
            "contains.us.p50": percentile(contains_ns, 0.50) / 1e3,
            "contains.us.p99": percentile(contains_ns, 0.99) / 1e3,
            "walk.ns_per_node": sum(walk_ns) / nodes,
            "dacp_contains.us": sum(dacp_ns) / len(checks) / 1e3,
            "dacp_roundtrip.us": sum(trip_ns) / len(host_values) / 1e3,
        },
        "counts": {
            "hosts": len(texts),
            "queries": len(pairs),
            "query_hits": sum(find_occurrence(h, p) is not None for h, p in pairs),
            "walk_nodes": nodes,
            "dacp_checks": len(checks),
            "dacp_hits": sum(dacp_contains(g, p) for g, p in checks),
        },
        "dp": measure_dp(repeat),
        "large": measure_large(repeat),
        "config": {
            "seed": SEED,
            "repeat": repeat,
            "walk_n": walk_n,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="rounds; each call keeps its fastest")
    parser.add_argument("--walk-n", type=int, default=8)
    parser.add_argument("--out", default="BENCH_layers.json")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.walk_n < 1:
        parser.error("--repeat and --walk-n must be positive")
    report = measure(args.repeat, args.walk_n)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, value in report["metrics"].items():
        print(f"{name:24} {value:10.3f}")
    dp = report["dp"]
    print(f"{'dp.k4_n9.ms':24} {dp['k4_n9']['ms']:10.3f}")
    print(f"{'dp.k4_n9.scan_ms':24} {dp['k4_n9']['scan_ms']:10.3f}")
    print(f"{'dp.123/45_n11.ms':24} {dp['123/45_n11']['ms']:10.3f}")
    print(f"{'dp.k5_n12.s':24} {dp['k5_n12']['s']:10.3f}")
    for name, value in dp["14/23_n20"].items():
        print(f"{'dp.14/23_n20.' + name:24} {value:10.3f}")
    for text, rows in report["large"].items():
        for n, row in rows.items():
            print(f"{f'large.{text}.n{n}.ms':24} {row['ms']:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
