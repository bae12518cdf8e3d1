"""Regenerate reference.json: avoider counts from partpat's unpruned oracle.

Run from the repository root (takes several minutes on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py

The oracle tests every one of the Bell(n) partitions of [n] with the
witness matcher, so it shares no pruning with the counter the benchmark
times. The table is then checked against the closed forms and the
reversal symmetry in reference.py before it is written.
"""

from __future__ import annotations

import json
import sys

import reference
from partpat import all_partitions, count_avoiders_oracle, format_partition, parse

# (patterns, largest n): every pattern of [4] through the sweep's n = 11,
# and the deep cell's pattern through n = 12.
TABLE = [
    ([format_partition(p) for p in all_partitions(4)], 11),
    (["123/45"], 12),
]


def main() -> int:
    counts: dict[str, list[int]] = {}
    for patterns, n_max in TABLE:
        for tau in patterns:
            counts[tau] = [
                count_avoiders_oracle(parse(tau), n, ceiling=n_max).count
                for n in range(n_max + 1)
            ]
            print(tau, counts[tau][-1], file=sys.stderr, flush=True)
    problems = reference.Reference(counts).validate()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    rows = ",\n".join(f"  {json.dumps(tau)}: {json.dumps(row)}" for tau, row in counts.items())
    text = f'{{"method": "partpat.count_avoiders_oracle",\n "counts": {{\n{rows}\n }}\n}}\n'
    reference.REFERENCE_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
