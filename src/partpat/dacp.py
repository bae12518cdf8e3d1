"""Set partitions as directed acyclic complete partite graphs.

A partition of [n] maps to the digraph on vertices 1..n with an edge
a -> b exactly when a > b and the two elements lie in different blocks.
The image is acyclic, and the complement of its underlying undirected
graph is a disjoint union of cliques, one per block. The reverse
direction recovers the unique partition from any isomorphic copy of such
a graph: blocks are the complement components and element labels come
from a linear extension of the edge order (all extensions give the same
partition).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable

from .core import SetPartition, _Value

__all__ = [
    "Dacp",
    "DacpError",
    "dacp_contains",
    "dacp_from_obj",
    "dacp_to_obj",
    "from_dacp",
    "to_dacp",
    "validate_dacp",
]


class DacpError(ValueError):
    """The graph violates an invariant; the message names which one."""


class Dacp(_Value):
    """Digraph container with 1-based vertices; labels matter only up to
    isomorphism for the operations below. May hold an invalid graph until
    ``validate_dacp`` has accepted it."""

    __slots__ = _fields = ("n", "edges")
    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        self._assign(n, frozenset((int(a), int(b)) for a, b in edges))


def to_dacp(p: SetPartition) -> Dacp:
    """Edge a -> b for every cross-block pair with a > b.

    >>> sorted(to_dacp(SetPartition.from_blocks([(1, 3, 4), (2, 5)])).edges)
    [(2, 1), (3, 2), (4, 2), (5, 1), (5, 3), (5, 4)]
    """
    bo = p.block_of
    edges = frozenset(
        (a, b) for a in range(2, p.n + 1) for b in range(1, a) if bo[a] != bo[b]
    )
    return Dacp(p.n, edges)


def _complement_components(n: int, adjacent: dict[int, set[int]]) -> list[list[int]]:
    """Connected components of the non-adjacency graph on 1..n, each sorted."""
    unseen = set(range(1, n + 1))
    components: list[list[int]] = []
    while unseen:
        start = min(unseen)
        unseen.remove(start)
        comp = [start]
        frontier = [start]
        while frontier:
            v = frontier.pop()
            linked = [u for u in unseen if u not in adjacent[v]]
            for u in linked:
                unseen.remove(u)
                comp.append(u)
                frontier.append(u)
        components.append(sorted(comp))
    return components


def validate_dacp(g: Dacp) -> list[list[int]]:
    """Check every invariant, raising DacpError naming the first violation.

    Returns the components of the complement graph, each sorted: the
    blocks, in the graph's own labels.
    """
    if g.n < 0:
        raise DacpError("negative vertex count")
    for a, b in g.edges:
        if not (1 <= a <= g.n and 1 <= b <= g.n):
            raise DacpError(f"vertex out of range in edge ({a}, {b})")
        if a == b:
            raise DacpError(f"self-loop at vertex {a}")
    if _has_cycle(g):
        raise DacpError("directed cycle")
    adjacent: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    components = _complement_components(g.n, adjacent)
    for comp in components:
        for i, u in enumerate(comp):
            for v in comp[i + 1 :]:
                if v in adjacent[u]:
                    raise DacpError(
                        "complement is not a disjoint union of cliques "
                        f"(vertices {u} and {v})"
                    )
    return components


def _has_cycle(g: Dacp) -> bool:
    out: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    indeg = {v: 0 for v in range(1, g.n + 1)}
    for a, b in g.edges:
        if not (1 <= a <= g.n and 1 <= b <= g.n) or a == b:
            return True
        out[a].append(b)
        indeg[b] += 1
    ready = [v for v in indeg if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return removed != g.n


def from_dacp(g: Dacp) -> SetPartition:
    """The unique partition whose image is isomorphic to g.

    Vertices are ranked by a linear extension of the edge order (an edge
    a -> b places b strictly below a); complement components become the
    blocks. A final isomorphism check guards the remaining failure mode of
    inconsistent edges between equivalence classes, which cannot occur in
    a graph that passed ``validate_dacp`` but is reported distinctly if a
    caller bypasses validation.
    """
    components = validate_dacp(g)
    if g.n == 0:
        return SetPartition(0, ())
    pointing_at: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    outdeg = {v: 0 for v in range(1, g.n + 1)}
    for a, b in g.edges:
        pointing_at[b].append(a)
        outdeg[a] += 1
    heap = [v for v in outdeg if outdeg[v] == 0]
    heapq.heapify(heap)
    rank: dict[int, int] = {}
    while heap:
        v = heapq.heappop(heap)
        rank[v] = len(rank) + 1
        for a in pointing_at[v]:
            outdeg[a] -= 1
            if outdeg[a] == 0:
                heapq.heappush(heap, a)
    partition = SetPartition(g.n, [[rank[v] for v in comp] for comp in components])
    image = {(rank[a], rank[b]) for a, b in g.edges}
    if image != to_dacp(partition).edges:
        raise DacpError("inconsistent edges between equivalence classes")
    return partition


def dacp_contains(host: Dacp, pattern: Dacp) -> bool:
    """True iff some induced subgraph of host is isomorphic to pattern.

    Straight backtracking over injective vertex assignments, checking the
    full edge relation (direction or non-adjacency) against every placed
    vertex. Works up to isomorphism and is deliberately independent of the
    partition-side matcher so the two can cross-check each other.
    """
    k, n = pattern.n, host.n
    if k > n:
        return False
    if k == 0:
        return True
    hcode = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b in host.edges:
        hcode[a][b] = 1
        hcode[b][a] = -1
    pcode = [[0] * (k + 1) for _ in range(k + 1)]
    for a, b in pattern.edges:
        pcode[a][b] = 1
        pcode[b][a] = -1
    return _place(1, k, n, hcode, pcode, [0] * (k + 1), [False] * (n + 1))


def _place(
    i: int, k: int, n: int, hcode: list[list[int]], pcode: list[list[int]],
    assigned: list[int], used: list[bool],
) -> bool:
    """Can pattern vertices i..k take unused host vertices, after 1..i - 1
    took assigned[1:i]? code[a][b] is 1 for an edge a -> b, -1 for b -> a
    and 0 for none."""
    if i > k:
        return True
    placed = assigned[1:i]
    want = pcode[i][1:i]
    for v in range(1, n + 1):
        if used[v]:
            continue
        if list(map(hcode[v].__getitem__, placed)) == want:
            used[v] = True
            assigned[i] = v
            if _place(i + 1, k, n, hcode, pcode, assigned, used):
                return True
            used[v] = False
    return False


def dacp_to_obj(g: Dacp) -> dict[str, Any]:
    """JSON-ready form: {"n": n, "edges": [[a, b], ...]} with sorted edges."""
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def dacp_from_obj(obj: Any) -> Dacp:
    """Parse the JSON object form; raises DacpError on malformed input."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise DacpError('graph object must have "n" and "edges" fields')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise DacpError('"n" must be an integer')
    edges = []
    for item in obj["edges"]:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise DacpError(f"malformed edge {item!r}")
        edges.append((item[0], item[1]))
    return Dacp(n, frozenset(edges))
