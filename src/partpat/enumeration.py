"""Exact enumeration of pattern-avoiding set partitions.

``count_sequence(tau, n_max)`` returns the whole sequence A_0..A_n_max of
avoider counts, and ``count_avoiders(tau, n)`` is its entry n. It counts
by one of two exact methods:

- Closed form. The partitions avoiding the one-block pattern of [k],
  k >= 2, are those whose blocks hold at most k - 1 elements, which
  ``formulas.block_recursion`` counts at any depth; only the empty
  partition avoids the pattern 1.
- A forward transfer DP, for every other pattern. Every partition of [m]
  is an extension of one of [m - 1] by element m, and the avoiders of [n]
  extending an avoiding prefix depend only on the set of partial
  occurrences of tau it holds, each reduced to a signature: how much of
  tau is matched and which host blocks the pattern blocks met so far
  occupy. The DP carries one count per distinct set of signatures (merged
  and relabelled so that prefixes with the same future share a state)
  from layer to layer.

The DP is fast, but its memory grows with the number of states, so a
layer that outgrows a fixed cap (see ``count_sequence``) raises
``CeilingError`` instead of counting in unbounded memory.

A pruned walk of the restricted-growth-string tree, ``_walk_sequence``,
counts the same sequence independently, and the tests check the DP
against it. Element i either joins an existing block or opens a new one,
so every partition of [n] is generated exactly once and the prefix of
depth m is the restriction to [m]. A prefix whose restriction already
contains the pattern is pruned. Because an occurrence created by
appending element m must use m as its largest image, each node runs one
anchored matcher call instead of a full containment search.
``enumerate_avoiders`` lists the avoiders by the same pruned walk.

Counts are exact Python integers throughout; no tally ever rounds.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from collections import defaultdict
from itertools import permutations, product
from pathlib import Path
from typing import Callable, Iterator

from .core import SetPartition, _Value, format_partition, sba
from .formulas import block_recursion

__all__ = [
    "CeilingError",
    "CountCache",
    "CountRecord",
    "DEFAULT_ORACLE_CEILING",
    "all_partitions",
    "closed_form",
    "count_avoiders",
    "count_avoiders_oracle",
    "count_sequence",
    "enumerate_avoiders",
    "f_ratio",
    "uniform_avoids",
    "uniform_count",
    "uniform_partitions",
]

DEFAULT_ORACLE_CEILING = 10

# count_sequence refuses a pattern once a layer of its transfer DP holds
# more than _DP_MAX_STATES states. Two layers are live at once; at this cap
# 15/234 at n = 16 is refused in layer 13 at a peak RSS of about 700 MB,
# while every multi-block pattern of [5] and [6] stays under 14,000 states
# up to the default enumeration ceiling n = 13.
_DP_MAX_STATES = 200_000


class CeilingError(RuntimeError):
    """A configured resource ceiling would be exceeded."""


class CountRecord(_Value):
    """Exact avoider count: tau is the canonical pattern string."""

    __slots__ = _fields = ("tau", "n", "count")

    def __init__(self, tau: str, n: int, count: int) -> None:
        self._assign(tau, n, count)


def _anchored_checker(pattern: SetPartition) -> Callable[[list[list[int]], int], bool]:
    """Compile ``pattern`` into check(blocks, anchor_idx).

    The call answers: does the prefix partition held in ``blocks`` contain
    the pattern via an occurrence whose largest image is the element just
    appended to blocks[anchor_idx]? Pattern elements are matched downward
    from k, so the anchor pins the image of k and the search fills the rest
    below it. This is ``find_occurrence``'s exchange lemma mirrored: an
    element whose pattern block is already bound takes the largest element
    of its host block below the image of the element above it, with no
    choice, so the search branches only where a pattern block opens, once
    per unused host block, on that block's largest element below it.
    """
    k = pattern.n
    pat_block = pattern.rgs
    n_pat_blocks = len(pattern.blocks)
    pat_sizes = [0] * n_pat_blocks
    need_below = []
    for b in pat_block:
        need_below.append(pat_sizes[b])
        pat_sizes[b] += 1
    top_block = pat_block[k - 1]
    top_need = need_below[k - 1]

    def check(blocks: list[list[int]], anchor_idx: int) -> bool:
        anchor_blk = blocks[anchor_idx]
        if len(anchor_blk) <= top_need:
            return False
        if k == 1:
            return True
        binding = [-1] * n_pat_blocks
        used = [False] * len(blocks)
        binding[top_block] = anchor_idx
        used[anchor_idx] = True

        def descend(j: int, bound: int) -> bool:
            # image of pattern element j must be < bound and >= j
            while j:
                b = pat_block[j - 1]
                hb = binding[b]
                if hb < 0:
                    break
                blk = blocks[hb]
                idx = bisect_left(blk, bound) - 1
                if idx < need_below[j - 1] or blk[idx] < j:
                    return False
                bound = blk[idx]
                j -= 1
            else:
                return True
            nb = need_below[j - 1]
            for hbi, blk in enumerate(blocks):
                if used[hbi] or len(blk) <= nb:
                    continue
                idx = bisect_left(blk, bound) - 1
                if idx < nb or blk[idx] < j:
                    continue
                binding[b] = hbi
                used[hbi] = True
                if descend(j - 1, blk[idx]):
                    return True
                used[hbi] = False
            binding[b] = -1
            return False

        found = descend(k - 1, anchor_blk[-1])
        del descend  # it refers to itself through its cell: break the cycle
        return found

    return check


def _walk(
    check: Callable[[list[list[int]], int], bool],
    n: int,
    blocks: list[list[int]],
    start: int,
    tally: list[int],
) -> None:
    """Add to tally[m], for start <= m <= n, the avoiders of [m] that extend
    the avoiding prefix partition of [start - 1] held in ``blocks``."""
    children = 0
    for bi in range(len(blocks)):
        blocks[bi].append(start)
        if not check(blocks, bi):
            children += 1
            if start < n:
                _walk(check, n, blocks, start + 1, tally)
        blocks[bi].pop()
    blocks.append([start])
    if not check(blocks, len(blocks) - 1):
        children += 1
        if start < n:
            _walk(check, n, blocks, start + 1, tally)
    blocks.pop()
    tally[start] += children


def _walk_sequence(tau: SetPartition, n_max: int) -> list[int]:
    """A_0..A_n_max from one pruned walk of the RGS tree, tallied by depth.

    It shares no state logic with the transfer DP, so the tests use it as
    the independent reference for ``count_sequence``.
    """
    tally = [1] + [0] * n_max
    if n_max:
        _walk(_anchored_checker(tau), n_max, [], 1, tally)
    return tally


# A signature records one partial occurrence of the pattern in an avoiding
# prefix: (j, hosts, excluded). tau[1..j] is matched; ``hosts`` names the
# host block of each pattern block met so far that recurs after j (in
# pattern-block order), and ``excluded`` the host blocks of the met blocks
# that do not recur. A pattern block still unmet must land in a host block
# outside both. The avoiders of [n] extending a prefix depend only on its
# signature set and on how many blocks it has that no signature names.
_NONE: frozenset[int] = frozenset()
_ROOT = (0, (), _NONE)


def _transfer_tables(tau: SetPartition):
    """Per-j step rules of the signature automaton for ``tau``.

    steps[j] = (opens_new, pos, recurs, free_after) describes matching
    pattern element j + 1: whether its block is unmet so far, its position
    among the recurring hosts (after the match when it opens), whether it
    recurs later, and how many pattern blocks are still unmet after it.
    free[j] counts the unmet pattern blocks after j elements.
    """
    k = tau.n
    pat = tau.rgs
    met = [set(pat[:j]) for j in range(k + 1)]
    free = [len(tau.blocks) - len(m) for m in met]
    recurring = [sorted(b for b in met[j] if b in pat[j:]) for j in range(k + 1)]
    steps = []
    for j, b in enumerate(pat):
        opens_new = b not in met[j]
        recurs = b in pat[j + 1:]
        pos = recurring[j + 1 if opens_new else j].index(b) if recurs or not opens_new else 0
        steps.append((opens_new, pos, recurs, free[j + 1]))
    return steps, free


def _has_disjoint(sets: list[frozenset[int]], need: int, taken: frozenset[int] = _NONE, start: int = 0) -> bool:
    """Do ``need`` pairwise disjoint members of sets[start:] avoid ``taken``?"""
    if need == 0:
        return True
    return any(
        not (s & taken) and _has_disjoint(sets, need - 1, taken | s, i + 1)
        for i, s in enumerate(sets[start:], start)
    )


def _merge_exclusions(excls: list[frozenset[int]], free: int) -> list[frozenset[int]]:
    """Exclusion sets of signatures sharing (j, hosts), reduced to a set with
    the same completions: only the inclusion-minimal ones; their
    intersection when one unmet pattern block remains (it needs a host
    outside at least one of them); none when more than ``free`` of them are
    pairwise disjoint, since ``free`` new hosts can meet at most ``free``."""
    excls.sort(key=len)
    if not excls[0]:
        return [_NONE]
    minimal: list[frozenset[int]] = []
    for e in excls:
        if not any(m <= e for m in minimal):
            minimal.append(e)
    if free == 1:
        return [frozenset.intersection(*minimal)]
    if len(minimal) > free and _has_disjoint(minimal, free + 1):
        return [_NONE]
    return minimal


def _dp_layers(tau: SetPartition, n_max: int, max_states: float = math.inf) -> Iterator[int]:
    """Forward transfer DP over signature-set states: yields A_m for
    m = 1..n_max, and raises ``CeilingError`` once a layer holds more than
    ``max_states`` states.

    A state is (unnamed live blocks, named blocks, signature set), with the
    named blocks relabelled 0..r-1 by their roles. Besides merging
    exclusion sets, a state drops the signatures needing more elements than
    the n_max - m still to come, and dead blocks: a block that would
    complete an occurrence takes no further element, so it and the
    signatures waiting on it are forgotten. When the last pattern element
    opens a block, a signature at j = k - 1 confines every later element to
    its excluded blocks and the rest die.
    """
    steps, free = _transfer_tables(tau)
    k = tau.n
    last_opens, last_pos = steps[k - 1][0], steps[k - 1][1]

    def advance(sigs: frozenset, b: int) -> set | None:
        """Signatures after the next element joins block b; None when that
        completes an occurrence."""
        out = set(sigs)
        for j, hosts, excl in (_ROOT, *sigs):
            opens_new, pos, recurs, free_after = steps[j]
            if opens_new:
                if b in hosts or b in excl:
                    continue
                if recurs:
                    hosts = hosts[:pos] + (b,) + hosts[pos:]
                else:
                    excl = excl | {b}
            elif hosts[pos] != b:
                continue
            elif not recurs:
                hosts = hosts[:pos] + hosts[pos + 1 :]
                excl = excl | {b}
            if j + 1 == k:
                return None
            out.add((j + 1, hosts, excl if free_after else _NONE))
        return out

    def reduce(sigs) -> list:
        groups: dict[tuple, list[frozenset[int]]] = {}
        for j, hosts, excl in sigs:
            groups.setdefault((j, hosts), []).append(excl)
        return [
            (j, hosts, excl)
            for (j, hosts), excls in groups.items()
            for excl in (_merge_exclusions(excls, free[j]) if len(excls) > 1 else excls)
        ]

    def settle(raw: set, horizon: int) -> tuple[int, int, bool, frozenset]:
        """(named blocks, named blocks that died, confined, canonical sigs)."""
        sigs = reduce(s for s in raw if s[0] + horizon >= k)
        named = {h for _, hosts, excl in sigs for h in (*hosts, *excl)}
        last = [s for s in sigs if s[0] == k - 1]
        confined = bool(last) and last_opens
        if confined:
            dead = named - last[0][2]
        else:
            dead = {hosts[last_pos] for _, hosts, _ in last}
        if dead:
            sigs = reduce(
                (j, hosts, excl - dead) for j, hosts, excl in sigs if dead.isdisjoint(hosts)
            )
        roles: dict[int, list[tuple[int, int]]] = {}
        for j, hosts, excl in sigs:
            for i, h in enumerate(hosts):
                roles.setdefault(h, []).append((j, i))
            for h in excl:
                roles.setdefault(h, []).append((j, -1))
        order = sorted(roles, key=lambda h: (sorted(roles[h]), h))
        label = {h: i for i, h in enumerate(order)}
        canon = []
        for j, hosts, excl in sigs:
            sig = (j, tuple(label[h] for h in hosts), frozenset(label[h] for h in excl))
            # every state holding a signature shares one copy: a fifth of the memory
            canon.append(interned.setdefault(sig, sig))
        return len(order), len(dead), confined, frozenset(canon)

    interned: dict[tuple, tuple] = {}
    layer: dict[tuple[int, int, frozenset], int] = {(0, 0, _NONE): 1}
    for m in range(1, n_max + 1):
        horizon = n_max - m
        nxt: dict[tuple[int, int, frozenset], int] = defaultdict(int)
        for (unnamed, named, sigs), mult in layer.items():
            live = unnamed + named
            for b in range(named):
                raw = advance(sigs, b)
                if raw is not None:
                    r, dead, confined, canon = settle(raw, horizon)
                    nxt[0 if confined else live - dead - r, r, canon] += mult
            # an unnamed existing block and a new block give the same signatures
            raw = advance(sigs, named)
            if raw is not None:
                r, dead, confined, canon = settle(raw, horizon)
                if confined:
                    nxt[0, r, canon] += mult * (unnamed + 1)
                else:
                    if unnamed:
                        nxt[live - dead - r, r, canon] += mult * unnamed
                    nxt[live + 1 - dead - r, r, canon] += mult
            if len(nxt) > max_states:
                raise CeilingError(
                    f"DP state cap {max_states} exceeded by {format_partition(tau)}"
                    f" at layer m={m} (n={n_max})"
                )
        layer = nxt
        yield sum(layer.values())


def _validate_args(tau: SetPartition, n: int) -> None:
    if tau.n < 1:
        raise ValueError("pattern must be nonempty")
    if n < 0:
        raise ValueError("n must be nonnegative")


def closed_form(tau: SetPartition) -> bool:
    """True when ``count_sequence`` counts tau in closed form, at any depth:
    tau is a one-block pattern. Every other pattern is enumerated."""
    return len(tau.blocks) == 1


def count_sequence(tau: SetPartition, n_max: int) -> list[int]:
    """Exact avoider counts [A_0, A_1, ..., A_n_max] of tau.

    A one-block pattern of [k] is counted in closed form: by the block
    recursion for k >= 2, and for k = 1 as 1, 0, 0, ..., since every
    nonempty partition contains the pattern 1. Any other pattern is counted
    by the transfer DP. A pattern that does not compress enough to count in
    bounded memory, one whose DP layer outgrows ``_DP_MAX_STATES`` (200,000)
    states, raises ``CeilingError`` naming the pattern, the layer and the cap.
    """
    _validate_args(tau, n_max)
    if closed_form(tau):
        if tau.n == 1:
            return [1] + [0] * n_max
        return block_recursion(tau.n, max(n_max, 1))[: n_max + 1]
    return [1, *_dp_layers(tau, n_max, _DP_MAX_STATES)]


def count_avoiders(tau: SetPartition, n: int) -> CountRecord:
    """Exact number of partitions of [n] avoiding tau: entry n of
    ``count_sequence(tau, n)``."""
    return CountRecord(format_partition(tau), n, count_sequence(tau, n)[n])


def _rgs(
    n: int, check: Callable[[list[list[int]], int], bool] | None, blocks: list[list[int]], i: int
) -> Iterator[SetPartition]:
    """Partitions of [n] extending the prefix partition of [i - 1] held in
    ``blocks``, in lexicographic restricted-growth-string order.

    A prefix is pruned, with everything below it, when ``check(blocks, bi)``
    holds for the block bi that its newest element joined; a None check
    prunes nothing.
    """
    if i > n:
        yield SetPartition(n, blocks)
        return
    for bi in range(len(blocks)):
        blocks[bi].append(i)
        if check is None or not check(blocks, bi):
            yield from _rgs(n, check, blocks, i + 1)
        blocks[bi].pop()
    blocks.append([i])
    if check is None or not check(blocks, len(blocks) - 1):
        yield from _rgs(n, check, blocks, i + 1)
    blocks.pop()


def enumerate_avoiders(tau: SetPartition, n: int) -> Iterator[SetPartition]:
    """Yield every avoider of tau among partitions of [n], each exactly once,
    in lexicographic restricted-growth-string order."""
    _validate_args(tau, n)
    yield from _rgs(n, _anchored_checker(tau), [], 1)


def all_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n] in lexicographic restricted-growth-string order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _rgs(n, None, [], 1)


def count_avoiders_oracle(
    tau: SetPartition, n: int, *, ceiling: int = DEFAULT_ORACLE_CEILING
) -> CountRecord:
    """Independent counter: enumerate all Bell(n) partitions, test each with
    ``contains``, no pruning. Used to cross-validate ``count_avoiders``."""
    from .containment import contains

    _validate_args(tau, n)
    if n > ceiling:
        raise CeilingError(f"oracle limited to n <= {ceiling} (requested n={n})")
    total = sum(1 for p in all_partitions(n) if not contains(p, tau))
    return CountRecord(format_partition(tau), n, total)


def f_ratio(record: CountRecord) -> float:
    """ln(count) / (n ln n), the normalized log-growth exponent; needs n >= 2.

    ``math.log`` evaluates exact integers of any magnitude directly, so the
    relative error stays at float precision even when the count overflows
    a double.
    """
    if record.n < 2:
        raise ValueError("f_ratio requires n >= 2")
    if record.count <= 0:
        raise RuntimeError(
            f"internal error: avoider count {record.count} for tau={record.tau}, "
            f"n={record.n} should be positive"
        )
    return math.log(record.count) / (record.n * math.log(record.n))


def uniform_partitions(n: int, t: int) -> Iterator[SetPartition]:
    """All partitions of [n] into n/t blocks of size t in which each of the t
    consecutive sections of length n/t holds exactly one element per block.

    Section 0 fixes the block labels (block i owns element i), and each
    later section contributes one free matching, so there are exactly
    (n/t)!^(t-1) uniform partitions; see ``uniform_count``.
    """
    if t < 1:
        raise ValueError("section count must be >= 1")
    if n % t:
        raise ValueError(f"section count {t} does not divide n={n}")
    b = n // t
    for matchings in product(permutations(range(1, b + 1)), repeat=t - 1):
        blocks = [
            [i] + [j * b + m[i - 1] for j, m in enumerate(matchings, start=1)]
            for i in range(1, b + 1)
        ]
        yield SetPartition(n, blocks)


def uniform_count(n: int, t: int) -> int:
    """Exact number of uniform partitions of [n] with t sections: (n/t)!^(t-1)."""
    if t < 1:
        raise ValueError("section count must be >= 1")
    if n % t:
        raise ValueError(f"section count {t} does not divide n={n}")
    return math.factorial(n // t) ** (t - 1)


def uniform_avoids(tau: SetPartition, t: int) -> bool:
    """True iff sba(tau) >= t, in which case every uniform partition with t
    sections avoids tau.

    Within one section all elements lie in distinct blocks, so consecutive
    images of an occurrence can share a block only across a section
    boundary; t sections offer at most t - 1 boundaries. The condition is
    sufficient, not claimed necessary.
    """
    if t < 1:
        raise ValueError("section count must be >= 1")
    return sba(tau) >= t


class CountCache:
    """Append-only JSON-lines store of count records, keyed by (tau, n).

    Each line is {"tau": str, "n": int, "count": str}; counts are written
    as decimal strings to keep unbounded magnitude intact. A torn tail (a
    last line that is unterminated or does not parse, as an append cut
    short leaves it) is skipped with a warning on stderr and cut off before
    the next append, so its count is recomputed; a bad line anywhere else
    is an error naming the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._table: dict[tuple[str, int], int] = {}
        self._cut: int | None = None
        self._dir_made = self.path.exists()
        if not self._dir_made:
            return
        lines = self.path.read_bytes().split(b"\n")
        last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
        offset = 0
        for i, line in enumerate(lines):
            start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                key, count = (obj["tau"], int(obj["n"])), int(obj["count"])
                if i == len(lines) - 1:
                    raise ValueError("no line terminator")
            except (ValueError, KeyError, TypeError) as exc:
                if i < last:
                    raise ValueError(f"cache file {self.path}, line {i + 1}: {exc}") from None
                print(
                    f"warning: cache file {self.path}: skipped torn last line {i + 1} ({exc});"
                    " its count will be recomputed",
                    file=sys.stderr,
                )
                self._cut = start
                continue
            self._table[key] = count

    def __len__(self) -> int:
        return len(self._table)

    def get(self, tau: str, n: int) -> int | None:
        return self._table.get((tau, n))

    def add(self, record: CountRecord) -> None:
        key = (record.tau, record.n)
        if key in self._table:
            return
        self._table[key] = record.count
        if self._cut is not None:
            with self.path.open("r+b") as fh:
                fh.truncate(self._cut)
            self._cut = None
        if not self._dir_made:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._dir_made = True
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"tau": record.tau, "n": record.n, "count": str(record.count)})
                + "\n"
            )
