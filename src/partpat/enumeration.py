"""Exact enumeration of pattern-avoiding set partitions.

``count_sequence(tau, n_max)`` returns the whole sequence A_0..A_n_max of
avoider counts, and ``count_avoiders(tau, n)`` is its entry n. It counts
by one of two exact methods:

- Closed form. The partitions avoiding the one-block pattern of [k] are
  those whose blocks hold at most k - 1 elements, which
  ``formulas.block_recursion`` counts at any depth, down to k = 1, where
  only the empty partition avoids.
- A forward transfer DP, for every other pattern. Every partition of [m]
  is an extension of one of [m - 1] by element m, and the avoiders of [n]
  extending an avoiding prefix depend only on the set of partial
  occurrences of tau it holds, each reduced to a signature: how much of
  tau is matched and which host blocks the pattern blocks met so far
  occupy. The DP carries one count per distinct set of signatures from
  layer to layer, in two stages per step: ``_advance`` puts element m in a
  block, and ``_settle`` cuts dead signatures, runs one exclusion merge and
  relabels, so that prefixes with the same future share a state.

A pattern and its reverse share one sequence, and ``count_sequence`` runs
the cheaper of their two DPs. The DP is fast, but its memory grows with the
number of states, so a layer that outgrows a fixed cap raises
``CeilingError``, carrying the exact counts below it, instead of counting
in unbounded memory.

One walker, ``_prefixes``, visits the restricted-growth-string tree.
Element i either joins an existing block or opens a new one, so every
partition of [n] is generated exactly once, in lexicographic order, and
the node of depth m is its restriction to [m]. Walking for a pattern, it
prunes a node whose partition already contains the pattern. An occurrence
created by appending element m must use m as the image of the pattern's
last element, so each node runs containment's own search, ``_extend``, on
the walker's lists with that element's pattern block bound to the block
that m joined; a node makes no function object.
Tallied by depth, the pruned walk (``_walk_sequence``) counts the same
sequence independently of the DP, and the tests check the DP against it;
``enumerate_avoiders`` lists the avoiders of [n] it reaches. Unpruned,
the walk yields ``all_partitions`` and feeds the oracle
``count_avoiders_oracle``, which runs the full containment search on each
partition of [n] in the walker's own lists.

Counts are exact Python integers throughout; no tally ever rounds.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice, permutations, product
from pathlib import Path
from typing import Iterator

from .containment import _extend, _least_image
from .core import CeilingError, SetPartition, _Value, format_partition, permeability, reverse
from .formulas import block_recursion

__all__ = [
    "CountCache",
    "CountRecord",
    "DEFAULT_ORACLE_CEILING",
    "all_partitions",
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
# more than _DP_MAX_STATES states; nothing else bounds n. Two layers are
# live at once; at this cap 15/234 at n = 16 is refused in layer 13 at a
# peak RSS of about 710 MB, while no multi-block pattern of [4] holds more
# than 379 states in a layer up to n = 30, nor one of [5] more than 94,849
# up to n = 15.
_DP_MAX_STATES = 200_000

# count_sequence runs the DPs of a pattern and of its reverse this deep, then
# goes on with the one that has met fewer signatures, which ranks their full
# cost better than states do: at layer 7, 134/25 holds fewer states than its
# reverse, whose DP is yet the cheaper one.
_PROBE_DEPTH = 4


class CountRecord(_Value):
    """Exact avoider count: tau is the canonical pattern string."""

    __slots__ = _fields = ("tau", "n", "count")

    def __init__(self, tau: str, n: int, count: int) -> None:
        self._assign(tau, n, count)

    def __repr__(self) -> str:
        with _long_int_text():  # an exact count can run past the int/text digit limit
            return super().__repr__()


def _prefixes(n: int, tau: SetPartition | None) -> Iterator[tuple[int, list[list[int]], list[int]]]:
    """Every kept node of the restricted-growth-string tree of [n], in
    lexicographic order, as (m, blocks, block_of), the root m = 0 included.

    ``blocks`` holds the node's partition of [m] with its blocks in order of
    least element, and block_of[e - 1] is the index of the block holding e
    for 1 <= e <= m, 0-based as a ``SetPartition``'s ``rgs``, so
    ``containment._extend`` reads it unchanged; entries past m - 1 are
    stale. Both are the walker's own lists, changed in place as it
    moves on, so a caller copies what it keeps. A node is pruned, with
    everything below it, when its partition contains the pattern tau
    through an occurrence whose largest image is its newest element m; a
    None tau prunes nothing. The parent node avoids tau, so an occurrence
    in the child uses m, as the image of tau's element k: the node binds
    k's pattern block to the block that m joined and runs
    ``containment._extend`` on the walker's lists.

    >>> [tuple(block_of) for m, _, block_of in _prefixes(3, None) if m == 3]
    [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    """
    if tau is not None:
        k, pat_block, pat_blocks = tau.n, tau.rgs, tau.blocks
        top_block = pat_block[-1]
        top_size = len(pat_blocks[top_block])
        image = [0] * k  # _extend's witness, which the walk never reads
    blocks: list[list[int]] = []
    block_of = [0] * n
    m = bi = 0  # the node is the partition of [m]; element m + 1 tries block bi next
    yield m, blocks, block_of
    while True:
        if m < n and bi <= len(blocks):
            m += 1
            if bi == len(blocks):
                blocks.append([])
            blk = blocks[bi]
            blk.append(m)
            block_of[m - 1] = bi
            pruned = False
            if tau is not None and len(blk) >= top_size:
                binding = [-1] * len(pat_blocks)
                binding[top_block] = bi
                used = [False] * len(blocks)
                used[bi] = True
                pruned = _extend(0, 1, m, k, pat_block, pat_blocks, blocks, block_of, binding, used, image)
            if not pruned:
                yield m, blocks, block_of
                bi = 0
                continue
        elif not m:
            return
        # take element m back out and move it on to the next block
        bi = block_of[m - 1]
        blk = blocks[bi]
        blk.pop()
        if not blk:
            blocks.pop()
        m -= 1
        bi += 1


def _walk_sequence(tau: SetPartition, n_max: int) -> list[int]:
    """A_0..A_n_max from one pruned walk of the RGS tree, tallied by depth.

    It shares no state logic with the transfer DP, so the tests use it as
    the independent reference for ``count_sequence``.
    """
    tally = [0] * (n_max + 1)
    for m, _, _ in _prefixes(n_max, tau):
        tally[m] += 1
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


def _transfer_tables(tau: SetPartition) -> list[tuple[bool, int, bool, int]]:
    """Per-j step rules of the signature automaton for ``tau``.

    steps[j] = (opens_new, pos, recurs, free_after) describes matching
    pattern element j + 1: whether its block is unmet so far, its position
    among the recurring hosts (after the match when it opens), whether it
    recurs later, and how many pattern blocks are still unmet after it, so
    steps[j - 1] holds the unmet count of a signature at j.
    """
    pat = tau.rgs
    met = [set(pat[:j]) for j in range(tau.n + 1)]
    recurring = [sorted(b for b in met[j] if b in pat[j:]) for j in range(tau.n + 1)]
    steps = []
    for j, b in enumerate(pat):
        opens_new = b not in met[j]
        recurs = b in pat[j + 1:]
        pos = recurring[j + 1 if opens_new else j].index(b) if recurs or not opens_new else 0
        steps.append((opens_new, pos, recurs, len(tau.blocks) - len(met[j + 1])))
    return steps


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


def _advance(steps: list[tuple], sigs: frozenset, b: int) -> set | None:
    """The signatures of a state after the next element joins its block b;
    None when that completes an occurrence."""
    k = len(steps)
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


def _settle(steps: list[tuple], raw: set, horizon: int, interned: dict) -> tuple:
    """(named blocks, named blocks that died, confined, canonical signatures)
    of the state that ``_advance`` left as ``raw``, with ``horizon``
    elements still to come; each canonical signature is its copy in
    ``interned``, which every state holding it shares: a fifth of the memory.

    A signature needing more elements than are to come is cut, and so are
    dead blocks: a block that would complete an occurrence, or, when the
    last pattern element opens a block, every block outside the
    intersection of the exclusions at j = k - 1, which confine each later
    element. Then one merge by ``_merge_exclusions`` per (j, hosts).
    """
    top = len(steps) - 1
    last_opens, last_pos = steps[top][:2]
    # every signature has j >= 1, so a horizon of k - 1 keeps them all
    sigs = raw if horizon >= top else [s for s in raw if s[0] + horizon > top]
    last = [s for s in sigs if s[0] == top]
    confined = bool(last) and last_opens
    if confined:  # a signature at j = k - 1 has no hosts
        dead = {h for _, hosts, excl in sigs for h in (*hosts, *excl)}
        dead -= frozenset.intersection(*[excl for _, _, excl in last])
    else:
        dead = {hosts[last_pos] for _, hosts, _ in last}
    groups: dict[tuple, list[frozenset[int]]] = {}
    for j, hosts, excl in sigs:
        if dead.isdisjoint(hosts):
            groups.setdefault((j, hosts), []).append(excl - dead if dead else excl)
    roles: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    sigs = []
    for (j, hosts), excls in groups.items():
        for excl in _merge_exclusions(excls, steps[j - 1][3]) if len(excls) > 1 else excls:
            sigs.append((j, hosts, excl))
            for i, h in enumerate(hosts):
                roles[h].append((j, i))
            for h in excl:
                roles[h].append((j, -1))
    for held in roles.values():
        held.sort()
    order = sorted(roles, key=lambda h: (roles[h], h))
    r = len(order)
    if order == list(range(r)):
        return r, len(dead), confined, frozenset([interned.setdefault(s, s) for s in sigs])
    relabel = dict(zip(order, range(r))).__getitem__
    canon = []
    for j, hosts, excl in sigs:
        sig = (j, tuple(map(relabel, hosts)), frozenset(map(relabel, excl)) if excl else _NONE)
        canon.append(interned.setdefault(sig, sig))
    return r, len(dead), confined, frozenset(canon)


def _dp_layers(tau: SetPartition, n_max: int, max_states: float = math.inf) -> Iterator[tuple]:
    """Forward transfer DP over signature-set states: yields (A_m, states in
    layer m, distinct signatures met by layer m) for m = 1..n_max, and
    ends, without yielding it, at the first layer of over ``max_states`` states.

    A state is (unnamed live blocks, named blocks, signature set), with the
    named blocks relabelled 0..r-1 by their roles. Each transition runs two
    stages: ``_advance`` adds the next element to one block, and
    ``_settle`` cuts what can no longer matter, merges exclusion sets once
    and relabels. A transition is remembered while the horizon cuts no
    signature, as a signature set recurs across those layers.
    """
    steps = _transfer_tables(tau)
    top = tau.n - 1
    moves: dict[tuple[frozenset, int], tuple | None] = {}
    interned: dict[tuple, tuple] = {}
    layer: dict[tuple[int, int, frozenset], int] = {(0, 0, _NONE): 1}
    for m in range(1, n_max + 1):
        horizon = n_max - m
        if horizon == top - 1:
            moves.clear()
        nxt: dict[tuple[int, int, frozenset], int] = defaultdict(int)
        for (unnamed, named, sigs), mult in layer.items():
            live = unnamed + named
            for b in range(named + 1):
                if (sigs, b) in moves:
                    moved = moves[sigs, b]
                else:
                    raw = _advance(steps, sigs, b)
                    moved = None if raw is None else _settle(steps, raw, horizon, interned)
                    if horizon >= top:
                        moves[sigs, b] = moved
                if moved is None:
                    continue
                r, dead, confined, canon = moved
                # b = named stands for each unnamed block, which stays live, and a new block
                for grown, ways in ((0, 1),) if b < named else ((0, unnamed), (1, 1)):
                    if ways:
                        nxt[0 if confined else live + grown - dead - r, r, canon] += mult * ways
            if len(nxt) > max_states:
                return
        layer = nxt
        yield sum(layer.values()), len(layer), len(interned)


def _dp_sequence(tau: SetPartition, n_max: int) -> Iterator[tuple]:
    """``_dp_layers`` of tau or of its reverse, whichever has met fewer
    signatures by layer _PROBE_DEPTH; a tie keeps tau. The probe's layers
    are kept, not recounted. At ``_DP_MAX_STATES`` neither stops inside
    the probe: a layer m <= 4 holds at most Bell(4) = 15 states."""
    dps = [_dp_layers(t, n_max, _DP_MAX_STATES) for t in dict.fromkeys((tau, reverse(tau)))]
    heads = [list(islice(dp, _PROBE_DEPTH)) for dp in dps]
    best = min(range(len(dps)), key=lambda i: heads[i][-1][2] if heads[i] else 0)
    yield from heads[best]
    yield from dps[best]


def _validate_args(tau: SetPartition, n: int) -> None:
    if tau.n < 1:
        raise ValueError("pattern must be nonempty")
    if n < 0:
        raise ValueError("n must be nonnegative")


def count_sequence(tau: SetPartition, n_max: int) -> list[int]:
    """Exact avoider counts [A_0, A_1, ..., A_n_max] of tau.

    A one-block pattern of [k] is counted in closed form, by the block
    recursion; for k = 1 that gives 1, 0, 0, ..., since every nonempty
    partition contains the pattern 1. Any other pattern is counted
    by the transfer DP of tau or of its reverse, which share one sequence
    but whose DPs can differ tenfold in size: both run 4 layers, and the one
    that has met fewer distinct signatures goes on. No n_max is refused up
    front: a pattern whose DP layer outgrows ``_DP_MAX_STATES`` (200,000)
    states raises ``CeilingError`` naming the pattern, the layer and the
    cap, with the exact counts below, after the DP has spent the time and
    memory of the layers before it.
    """
    _validate_args(tau, n_max)
    if len(tau.blocks) == 1:
        return block_recursion(tau.n, n_max)
    counts = [1, *(count for count, _, _ in _dp_sequence(tau, n_max))]
    if len(counts) <= n_max:  # the DP refused layer len(counts); name tau, whichever direction ran
        at = f"at layer m={len(counts)} (n={n_max})"
        raise CeilingError(f"DP state cap {_DP_MAX_STATES} exceeded by {format_partition(tau)} {at}", counts)
    return counts


def count_avoiders(tau: SetPartition, n: int) -> CountRecord:
    """Exact number of partitions of [n] avoiding tau: entry n of
    ``count_sequence(tau, n)``."""
    return CountRecord(format_partition(tau), n, count_sequence(tau, n)[n])


def enumerate_avoiders(tau: SetPartition, n: int) -> Iterator[SetPartition]:
    """Yield every avoider of tau among partitions of [n], each exactly once,
    in lexicographic restricted-growth-string order."""
    _validate_args(tau, n)
    for m, blocks, _ in _prefixes(n, tau):
        if m == n:
            yield SetPartition(n, blocks)


def all_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n] in lexicographic restricted-growth-string order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for m, blocks, _ in _prefixes(n, None):
        if m == n:
            yield SetPartition(n, blocks)


def count_avoiders_oracle(
    tau: SetPartition, n: int, *, ceiling: int = DEFAULT_ORACLE_CEILING
) -> CountRecord:
    """Independent counter: walk all Bell(n) partitions with no pruning and
    test each with ``contains``'s full search, run on the walker's own
    lists, so no ``SetPartition`` is built. Used to cross-validate
    ``count_avoiders``."""
    _validate_args(tau, n)
    if n > ceiling:
        raise CeilingError(f"oracle limited to n <= {ceiling} (requested n={n})")
    total = sum(
        1
        for m, blocks, block_of in _prefixes(n, None)
        if m == n and _least_image(n, blocks, block_of, tau) is None
    )
    return CountRecord(format_partition(tau), n, total)


def f_ratio(record: CountRecord) -> float | None:
    """F_n = ln(count) / (n ln n), the normalized log-growth exponent, or
    None where it is undefined: for n < 2, or for a zero count, which only
    the pattern 1 has, at every n >= 1. A negative count raises ValueError.

    ``math.log`` evaluates exact integers of any magnitude directly, so the
    relative error stays at float precision even when the count overflows
    a double.
    """
    if record.count < 0:
        raise ValueError(f"negative avoider count {record.count} for tau={record.tau}, n={record.n}")
    if record.n < 2 or record.count == 0:
        return None
    return math.log(record.count) / (record.n * math.log(record.n))


def uniform_partitions(n: int, t: int) -> Iterator[SetPartition]:
    """All partitions of [n] into n/t blocks of size t in which each of the t
    consecutive sections of length n/t holds exactly one element per block.

    Section 0 fixes the block labels (block i owns element i), and each
    later section contributes one free matching, so there are exactly
    (n/t)!^(t-1) uniform partitions; see ``uniform_count``.
    """
    b = _section_length(n, t)
    for matchings in product(permutations(range(1, b + 1)), repeat=t - 1):
        blocks = [
            [i] + [j * b + m[i - 1] for j, m in enumerate(matchings, start=1)]
            for i in range(1, b + 1)
        ]
        yield SetPartition(n, blocks)


def uniform_count(n: int, t: int) -> int:
    """Exact number of uniform partitions of [n] with t sections: (n/t)!^(t-1)."""
    return math.factorial(_section_length(n, t)) ** (t - 1)


def _section_length(n: int, t: int) -> int:
    """n/t, the length of each of the t sections of [n], after checking n and t."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if t < 1:
        raise ValueError("section count must be >= 1")
    if n % t:
        raise ValueError(f"section count {t} does not divide n={n}")
    return n // t


def uniform_avoids(tau: SetPartition, t: int) -> bool:
    """True iff pm(tau) >= t, in which case every uniform partition with t
    sections avoids tau.

    Within one section all elements lie in distinct blocks, so the images
    of an occurrence that fall in one section lie in distinct blocks of
    tau. The t sections cut an occurrence into at most t intervals, each
    with at most one element per block: t - 1 cuts, so pm(tau) <= t - 1.
    The condition is sufficient, not claimed necessary.
    """
    if t < 1:
        raise ValueError("section count must be >= 1")
    return permeability(tau)[0] >= t


@contextmanager
def _long_int_text() -> Iterator[None]:
    """Lift Python's int/text digit limit inside the block, then restore it:
    exact counts run past it, and the limit is the process's to set. The
    limit is process-wide, so other threads see the lift while it holds."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python with no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class CountCache:
    """Append-only JSON-lines store of count records, keyed by (tau, n).

    Each line is {"tau": str, "n": int, "count": str}; counts are written
    as decimal strings, of any length, to keep unbounded magnitude intact.
    A line is read only as ``add`` writes it: a str tau, an int n (not a
    bool) and a count of ASCII decimal digits. A torn tail (a last line that is
    unterminated, does not parse or holds anything else, as an append cut
    short leaves it) is skipped with a warning on stderr and cut off before
    the next append, so its count is recomputed; a bad line anywhere else
    is an error naming the file and the line. So is a complete line that
    gives a key already read another count, wherever it stands; an
    identical repeat, as two racing appenders can write, is served.
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
        with _long_int_text():
            for i, line in enumerate(lines):
                start, offset = offset, offset + len(line) + 1
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    tau, n, count = obj["tau"], obj["n"], obj["count"]
                    # int() would truncate a count of 5.5 to 5, and a list tau is unhashable
                    if not isinstance(tau, str):
                        raise ValueError(f"tau {tau!r} is not a string")
                    if type(n) is not int:  # isinstance would let a bool through
                        raise ValueError(f"n {n!r} is not an integer")
                    if not (isinstance(count, str) and count.isascii() and count.isdigit()):
                        raise ValueError(f"count {count!r} is not a string of decimal digits")
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
                value = int(count)
                prior = self._table.setdefault((tau, n), value)
                if prior != value:
                    raise ValueError(
                        f"cache file {self.path}, line {i + 1}: tau {tau!r}, n {n} has count {count},"
                        f" but an earlier line has {prior}"
                    )

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
        with _long_int_text():
            count = str(record.count)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"tau": record.tau, "n": record.n, "count": count}) + "\n")
