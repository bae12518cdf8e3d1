"""How fast the host runs Python, from a fixed task timed in every pass.

On a shared virtual machine the same code runs at a speed that drifts by
20-40 % over minutes, on top of faster swings that run.py's fastest-time
rules remove, and each virtual CPU drifts on its own. So every witness
pass and probe (witness_pass.py) times one call of ``task`` before every
EVERY-th query, in the same process and moments as its queries, and
run.py scales the run's times to the speed at which ``task`` takes
REFERENCE_NS.

``task`` shares no code with partpat, so no change to the program moves
it; it does the same kind of interpreter-bound work (small lists, dicts,
integer arithmetic and calls) in about as long as a typical query.
"""

from __future__ import annotations

import statistics
import time

# task_ns of a quiet run on the host the baseline was measured on (a
# 2-vCPU Intel Xeon virtual machine, Python 3.11); busier runs read
# 25-40 us there.
REFERENCE_NS = 21_000
EVERY = 20


def task(n: int = 4) -> int:
    """Walk every set partition of [n] as a restricted growth string and
    sum a checksum of its block sizes."""
    total = 0
    rgs = [0] * n
    top = [0] * n
    while True:
        sizes: dict[int, int] = {}
        for b in rgs:
            sizes[b] = sizes.get(b, 0) + 1
        total += sum(s * s for s in sizes.values()) + len(sizes)
        i = n - 1
        while i > 0 and rgs[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return total
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            top[j] = top[i]


def timed_task() -> int:
    """One call of ``task``, in nanoseconds."""
    t0 = time.perf_counter_ns()
    task()
    return time.perf_counter_ns() - t0


def task_ns(rounds: list[list[int]]) -> float:
    """The host's speed over a run, from the task times of each pass: the
    median over call positions of each position's fastest time. That is
    the statistic run.py reports for queries (the median over queries of
    each query's fastest call), so both feel the host's load alike."""
    return statistics.median(min(position) for position in zip(*rounds))
