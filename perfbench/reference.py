"""Independent reference for every output the benchmark checks.

Nothing here imports partpat: the checks must not share code with the
program they judge. The committed ``reference.json`` holds oracle-derived
avoider counts; the closed forms and the reversal symmetry below are
separate derivations that every loaded table is checked against.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from itertools import product
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def blocks_of(text: str) -> list[list[int]]:
    """Blocks of a partition in slash notation (digit or comma form)."""
    if text == "":
        return []
    comma = "," in text or "0" in text
    return [
        [int(x) for x in (token.split(",") if comma else token)]
        for token in text.split("/")
    ]


def canonical(blocks) -> str:
    """Slash notation of ``blocks`` with each block sorted and blocks ordered
    by least element; comma form exactly when n >= 10."""
    ordered = sorted(sorted(b) for b in blocks if b)
    n = sum(len(b) for b in ordered)
    sep = "," if n >= 10 else ""
    return "/".join(sep.join(map(str, b)) for b in ordered)


def reverse(text: str) -> str:
    """The pattern under e -> k + 1 - e; A_n(tau) = A_n(reverse(tau))."""
    blocks = blocks_of(text)
    k = sum(len(b) for b in blocks)
    return canonical([[k + 1 - e for e in b] for b in blocks])


def standardize(host: list[list[int]], elements) -> str:
    """Restriction of ``host`` to ``elements``, relabelled onto 1..len."""
    rank = {e: i for i, e in enumerate(sorted(elements), start=1)}
    return canonical([[rank[e] for e in b if e in rank] for b in host])


def contains(host: list[list[int]], pattern: list[list[int]]) -> bool:
    """Containment by a different search than partpat's matcher.

    partpat backtracks over the image of every pattern element. Here only
    the host block of each pattern block is chosen, in order of first
    appearance; once a block is bound, taking its least element above the
    previous image is optimal by an exchange argument, so element choices
    need no backtracking.
    """
    k = sum(len(b) for b in pattern)
    n = sum(len(b) for b in host)
    if k > n:
        return False
    label = {e: i for i, b in enumerate(sorted(pattern)) for e in b}
    seq = [label[j] for j in range(1, k + 1)]
    size = [len(b) for b in sorted(pattern)]
    hosts = [sorted(b) for b in host]
    bound = [-1] * len(size)
    used = [False] * len(hosts)

    def step(j: int, last: int) -> bool:
        if j == k:
            return True
        b = seq[j]
        if bound[b] >= 0:
            blk = hosts[bound[b]]
            i = bisect_right(blk, last)
            return i < len(blk) and step(j + 1, blk[i])
        for h, blk in enumerate(hosts):
            if used[h]:
                continue
            i = bisect_right(blk, last)
            if len(blk) - i < size[b]:
                continue
            bound[b], used[h] = h, True
            if step(j + 1, blk[i]):
                return True
            bound[b], used[h] = -1, False
        return False

    return step(0, 0)


# ------------------------------------------------------------ closed forms


def catalan(n: int) -> int:
    """Noncrossing partitions of [n], the avoiders of 13/24 (Kreweras 1972)."""
    return math.comb(2 * n, n) // (n + 1)


def bounded_blocks(n: int, s: int) -> int:
    """Partitions of [n] with every block of size <= s, summed over block-size
    multiplicities: n! / prod(i!^m_i m_i!). The one-block pattern of [s + 1]
    is avoided exactly by these."""
    total = 0
    for mult in product(*(range(n // i + 1) for i in range(1, s + 1))):
        if sum(i * m for i, m in enumerate(mult, start=1)) != n:
            continue
        denom = 1
        for i, m in enumerate(mult, start=1):
            denom *= math.factorial(i) ** m * math.factorial(m)
        total += math.factorial(n) // denom
    return total


def stirling2(n: int, j: int) -> int:
    """S(n, j) by inclusion-exclusion over surjections."""
    return sum((-1) ** i * math.comb(j, i) * (j - i) ** n for i in range(j + 1)) // math.factorial(j)


def closed_form(tau: str, n: int) -> int | None:
    """A_n(tau) from a closed form, or None when tau has none here."""
    blocks = blocks_of(tau)
    k = sum(len(b) for b in blocks)
    if tau == "13/24":
        return catalan(n)
    if len(blocks) == 1 and k >= 2:
        return bounded_blocks(n, k - 1)
    if k >= 2 and len(blocks) == k:
        return 1 if n == 0 else sum(stirling2(n, j) for j in range(1, k))
    return None


def bell(n: int) -> int:
    return sum(stirling2(n, j) for j in range(n + 1))


# ------------------------------------------------------------ the table


class Reference:
    """Exact counts A_n(tau), indexed ``counts[tau][n]`` from n = 0."""

    def __init__(self, counts: dict[str, list[int]]) -> None:
        self.counts = counts

    def count(self, tau: str, n: int) -> int | None:
        row = self.counts.get(tau)
        return row[n] if row is not None and n < len(row) else None

    def nodes(self, tau: str, n: int) -> int:
        """Avoiding RGS prefixes a pruned walk to depth n visits: sum of A_m, 1 <= m <= n."""
        return sum(self.counts[tau][1 : n + 1])

    def validate(self) -> list[str]:
        """Disagreements between the table and the closed forms and reversal."""
        problems = []
        for tau, row in self.counts.items():
            for n, value in enumerate(row):
                expected = closed_form(tau, n)
                if expected is not None and expected != value:
                    problems.append(f"{tau} n={n}: table {value} != closed form {expected}")
                if value > bell(n):
                    problems.append(f"{tau} n={n}: {value} exceeds Bell({n})")
                mirror = self.count(reverse(tau), n)
                if mirror is not None and mirror != value:
                    problems.append(f"{tau} n={n}: {value} != A_n(reverse) {mirror}")
        return problems


def load(path: Path = REFERENCE_FILE) -> Reference:
    doc = json.loads(path.read_text(encoding="utf-8"))
    ref = Reference({tau: [int(v) for v in row] for tau, row in doc["counts"].items()})
    problems = ref.validate()
    if problems:
        raise ValueError(f"{path.name} is inconsistent: " + "; ".join(problems[:5]))
    return ref
