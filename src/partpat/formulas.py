"""Closed-form and recursive exact counts, plus log-space bound evaluators.

Counting stays in exact integer arithmetic; only the bound evaluators use
floating point, and comparisons against them should allow a small slack
(1e-9 is used throughout the test suite) to absorb rounding.
"""

from __future__ import annotations

import math

__all__ = [
    "bell",
    "block_recursion",
    "log_upper_bound_block",
    "log_upper_bound_layered",
    "singleton_count",
    "stirling2",
]

def bell(n: int) -> int:
    """Bell number via the triangle recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling2(n: int, j: int) -> int:
    """Partitions of [n] into exactly j nonempty blocks,
    S(n, j) = j S(n-1, j) + S(n-1, j-1)."""
    if n < 0 or j < 0:
        raise ValueError("arguments must be nonnegative")
    if j > n:
        return 0
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        nxt = [0] * (min(m, j) + 1)
        for i in range(1, len(nxt)):
            above = row[i] if i < len(row) else 0
            nxt[i] = i * above + row[i - 1]
        row = nxt
    return row[j] if j < len(row) else 0


def block_recursion(k: int, n_max: int) -> list[int]:
    """f(0..n_max) where f(n) counts partitions of [n] with all blocks of
    size at most k - 1, the avoiders of the one-block pattern of [k], via
    f(0) = 1 and f(n+1) = sum_{i=0}^{k-2} C(n, i) f(n-i).

    For k = 1 the sum is empty, so f is 1, 0, 0, ... For k = 3 it is
    1, 1, 2, 4, 10, 26, ... (partitions into singletons and pairs).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = [1]
    for n in range(n_max):
        f.append(sum(math.comb(n, i) * f[n - i] for i in range(min(k - 1, n + 1))))
    return f


def singleton_count(k: int, n: int) -> int:
    """Partitions of [n] avoiding the all-singleton pattern of [k]: exactly
    those with at most k - 1 blocks, so sum_{j=0..k-1} S(n, j)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = sum(stirling2(n, j) for j in range(k))
    if total > (k - 1) ** n:
        raise RuntimeError(
            f"internal error: singleton_count({k}, {n}) = {total} exceeds (k-1)^n"
        )
    return total


def log_upper_bound_block(k: int, n: int) -> float:
    """ln of k^n * n^(n (1 - 1/(k-1))), the ceiling for the one-block pattern.

    At k = 2, where only the all-singleton partition avoids, the exponent
    is 0 and the bound is n ln 2.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * math.log(k) + n * (1.0 - 1.0 / (k - 1)) * math.log(n)


def log_upper_bound_layered(k: int, r: int, n: int) -> float:
    """ln of ((k+1)/2)^(2n) * n^(n (1 - 1/(k-r))), the layered-pattern ceiling."""
    if r < 1 or k <= r:
        raise ValueError("need k > r >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 * n * math.log((k + 1) / 2.0) + n * (1.0 - 1.0 / (k - r)) * math.log(n)
