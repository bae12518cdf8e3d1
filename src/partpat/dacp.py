"""Set partitions as directed acyclic complete partite graphs.

A partition of [n] maps to the digraph on vertices 1..n with an edge
a -> b exactly when a > b and the two elements lie in different blocks.
The image is acyclic, and the complement of its underlying undirected
graph is a disjoint union of cliques, one per block. The reverse
direction recovers the unique partition from any isomorphic copy of such
a graph: blocks are the complement components and element labels come
from a linear extension of the edge order (all extensions give the same
partition), found by the same topological sort that detects a cycle.
Containment is induced-subgraph occurrence, searched on per-vertex
bitsets of each relation, and is answered only for graphs that
``validate_dacp`` accepts.
"""

from __future__ import annotations

from itertools import combinations
from operator import index
from typing import Any, Iterable

from .core import CeilingError, SetPartition, _Value

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
    ``validate_dacp`` has accepted it. The vertex count and the vertices go
    through ``operator.index``, so a non-integer raises TypeError.

    ``masks[v]`` is ``(non-adjacent, in-neighbours, out-neighbours)`` of
    vertex v, each a bitset with bit u set for vertex u. It is built on
    first use and takes no part in equality, hashing, repr or pickling;
    building it runs ``validate_dacp``'s checks and raises its DacpError
    for an invalid graph.
    """

    __slots__ = ("n", "edges", "masks")
    _fields = ("n", "edges")
    n: int
    edges: frozenset[tuple[int, int]]
    masks: list[tuple[int, int, int]]  # built on first use

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        self._assign(index(n), frozenset((index(a), index(b)) for a, b in edges))

    def __getattr__(self, name: str) -> Any:
        # called only while the masks slot is unset, as for SetPartition.block_of
        if name != "masks":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        outs, ins = _scan(self)[2:]
        full = (1 << (self.n + 1)) - 2
        bit = (1).__lshift__  # a neighbour list holds each vertex once, so its bits sum to their union
        value = []
        for v in range(self.n + 1):
            i, o = sum(map(bit, ins[v])), sum(map(bit, outs[v]))
            value.append((full & ~(1 << v | i | o), i, o))
        object.__setattr__(self, name, value)
        return value


def to_dacp(p: SetPartition) -> Dacp:
    """Edge a -> b for every cross-block pair with a > b.

    >>> sorted(to_dacp(SetPartition.from_blocks([(1, 3, 4), (2, 5)])).edges)
    [(2, 1), (3, 2), (4, 2), (5, 1), (5, 3), (5, 4)]
    """
    pairs = frozenset(combinations(range(p.n, 0, -1), 2))  # every (a, b) with a > b
    g = object.__new__(Dacp)  # the pairs hold ints already: skip the constructor's coercion
    g._assign(p.n, pairs.difference(*(combinations(block[::-1], 2) for block in p.blocks)))
    return g


def _scan(g: Dacp) -> tuple[list[list[int]], list[int], list[list[int]], list[list[int]]]:
    """Check every invariant of g, raising DacpError naming the first fault:
    a vertex out of range or a self-loop, in edge order, then a directed
    cycle, then a complement that is not a union of cliques. It is the one
    edge check, run by ``validate_dacp``, ``from_dacp`` and ``Dacp.masks``.

    Returns the complement components, each sorted, in order of least
    vertex (the blocks, in the graph's own labels); ``rank[v]``, the place
    of v in a linear extension of the edge order, lowest first; and
    ``outs[v]`` and ``ins[v]``, the out- and in-neighbours of v.
    """
    n = g.n
    if n < 0:
        raise DacpError("negative vertex count")
    outs: list[list[int]] = [[] for _ in range(n + 1)]
    ins: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in g.edges:
        if not (1 <= a <= n and 1 <= b <= n):
            raise DacpError(f"vertex out of range in edge ({a}, {b})")
        if a == b:
            raise DacpError(f"self-loop at vertex {a}")
        outs[a].append(b)
        ins[b].append(a)
    # Kahn's sort from the sinks up: an edge a -> b places b below a
    outdeg = list(map(len, outs))
    ready = [v for v in range(1, n + 1) if not outdeg[v]]
    rank = [0] * (n + 1)
    ranked = 0
    while ready:
        v = ready.pop()
        ranked += 1
        rank[v] = ranked
        for a in ins[v]:
            outdeg[a] -= 1
            if not outdeg[a]:
                ready.append(a)
    if ranked != n:
        raise DacpError("directed cycle")
    unseen = set(range(1, n + 1))
    components: list[list[int]] = []
    while unseen:
        comp = [min(unseen)]
        unseen.remove(comp[0])
        for v in comp:  # grows as the search reaches new vertices
            linked = unseen.difference(outs[v], ins[v])
            unseen -= linked
            comp += linked
        comp.sort()
        components.append(comp)
    # every cross-component pair is adjacent, so an edge beyond them lies in a component
    if len(g.edges) != (n * n - sum(len(c) ** 2 for c in components)) // 2:
        u, v = next(
            (u, v) for comp in components for u, v in combinations(comp, 2) if u in outs[v] or u in ins[v]
        )
        raise DacpError(f"complement is not a disjoint union of cliques (vertices {u} and {v})")
    return components, rank, outs, ins


def validate_dacp(g: Dacp) -> list[list[int]]:
    """Check every invariant, raising DacpError naming the first violation.

    Returns the components of the complement graph, each sorted: the
    blocks, in the graph's own labels.
    """
    return _scan(g)[0]


def from_dacp(g: Dacp) -> SetPartition:
    """The unique partition whose image is isomorphic to g.

    Vertices are ranked by a linear extension of the edge order (an edge
    a -> b places b strictly below a); complement components become the
    blocks. Once ``validate_dacp``'s checks pass, every edge a -> b is a
    cross-block pair with rank[a] > rank[b], so nothing is checked after
    them: the sort ranks b below a; vertices in different components are
    adjacent, and acyclicity leaves each such pair one edge; and g has as
    many edges as cross-component pairs, so no edge lies inside a block.
    """
    components, rank, _, _ = _scan(g)
    return SetPartition(g.n, [[rank[v] for v in comp] for comp in components])


def dacp_contains(host: Dacp, pattern: Dacp) -> bool:
    """True iff some induced subgraph of host is isomorphic to pattern;
    raises ``validate_dacp``'s DacpError for an invalid pattern, then host.

    Backtracking over injective vertex assignments with forward checking:
    the host candidates for pattern vertex i are the AND of one relation
    mask (non-adjacent, in- or out-neighbour) of each host vertex already
    placed, minus the used vertices. Works up to isomorphism and is
    deliberately independent of the partition-side matcher so the two can
    cross-check each other.
    """
    pm, hm = pattern.masks, host.masks
    k, n = pattern.n, host.n
    if k > n:
        return False
    if k == 0:
        return True
    # wants[i][j] picks the host mask that the image of pattern vertex j
    # must have the candidate for i in: 0 none, 1 for i -> j, 2 for j -> i
    wants = [
        [1 if pm[i][2] >> j & 1 else 2 if pm[i][1] >> j & 1 else 0 for j in range(1, i)]
        for i in range(1, k + 1)
    ]
    try:
        return _place(0, wants, hm, [0] * k, (1 << (n + 1)) - 2)
    except RecursionError:  # _place recurses once per pattern vertex
        raise CeilingError(f"graph containment search recursion limit exceeded by {k} pattern vertices") from None


def _place(
    i: int, wants: list[list[int]], masks: list[tuple[int, int, int]], images: list[int], free: int
) -> bool:
    """Can pattern vertices i + 1.. take host vertices in the bitset free,
    after 1..i took images[:i]?"""
    if i == len(wants):
        return True
    candidates = free
    for j, want in enumerate(wants[i]):
        candidates &= masks[images[j]][want]
    while candidates:
        low = candidates & -candidates
        images[i] = low.bit_length() - 1
        if _place(i + 1, wants, masks, images, free ^ low):
            return True
        candidates ^= low
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
    if not isinstance(obj["edges"], list):
        raise DacpError('"edges" must be a list')
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
