from __future__ import annotations

import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from partpat import (
    CeilingError,
    Dacp,
    DacpError,
    SetPartition,
    contains,
    dacp_contains,
    dacp_from_obj,
    dacp_to_obj,
    from_dacp,
    parse,
    to_dacp,
    validate_dacp,
)

from conftest import partitions_up_to, patterns_of


def relabel(g: Dacp, perm: dict[int, int]) -> Dacp:
    return Dacp(g.n, frozenset((perm[a], perm[b]) for a, b in g.edges))


# graphs with two faults each, and the message of the one named first
TWO_FAULTS = [
    (Dacp(3, {(1, 2), (2, 1), (4, 1)}), "vertex out of range in edge (4, 1)"),
    (Dacp(3, {(3, 1), (2, 2)}), "self-loop at vertex 2"),
    (Dacp(-1, {(1, 1)}), "negative vertex count"),
    # the 2-cycle 1 <-> 2, and 1, 2, 3, 4 one complement component holding the edge 4 -> 3
    (Dacp(4, {(1, 2), (2, 1), (4, 3)}), "directed cycle"),
    # components {1, 4, 6} and {2, 3, 5} fully joined, each holding an edge:
    # the component of least vertex is named, not the least pair
    (
        Dacp(6, {(max(a, b), min(a, b)) for a in (1, 4, 6) for b in (2, 3, 5)} | {(6, 4), (5, 2)}),
        "complement is not a disjoint union of cliques (vertices 4 and 6)",
    ),
]
TWO_FAULT_IDS = ["range-before-cycle", "self-loop-before-clique", "negative-n", "cycle-before-clique", "two-cliques"]


class TestToDacp:
    def test_one_block_has_no_edges(self):
        assert to_dacp(parse("12345")).edges == frozenset()

    def test_singletons_give_transitive_tournament(self):
        g = to_dacp(parse("1/2/3/4"))
        assert g.edges == frozenset((a, b) for a in range(1, 5) for b in range(1, a))

    def test_paper_partition(self):
        g = to_dacp(parse("134/25"))
        assert sorted(g.edges) == [(2, 1), (3, 2), (4, 2), (5, 1), (5, 3), (5, 4)]

    def test_outputs_always_validate(self):
        for p in partitions_up_to(6):
            validate_dacp(to_dacp(p))

    def test_non_adjacency_is_transitive(self):
        for p in partitions_up_to(6):
            g = to_dacp(p)
            linked = {frozenset(e) for e in g.edges}
            for u, v, w in itertools.permutations(range(1, g.n + 1), 3):
                if (
                    frozenset((u, v)) not in linked
                    and frozenset((v, w)) not in linked
                ):
                    assert frozenset((u, w)) not in linked


class TestFromDacp:
    def test_empty_graph(self):
        assert from_dacp(Dacp(4, frozenset())) == parse("1234")
        assert from_dacp(Dacp(0, frozenset())) == parse("")

    def test_transitive_tournament(self):
        edges = frozenset((a, b) for a in range(1, 5) for b in range(1, a))
        assert from_dacp(Dacp(4, edges)) == parse("1/2/3/4")

    def test_paper_graph_and_relabeled_copy(self):
        edges = {(2, 1), (3, 2), (4, 2), (5, 1), (5, 3), (5, 4)}
        assert from_dacp(Dacp(5, frozenset(edges))) == parse("134/25")
        perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
        shuffled = frozenset((perm[a], perm[b]) for a, b in edges)
        assert from_dacp(Dacp(5, shuffled)) == parse("134/25")

    def test_roundtrip_small(self):
        for p in partitions_up_to(6):
            assert from_dacp(to_dacp(p)) == p

    def test_every_loop_free_digraph_on_up_to_4_vertices(self):
        # from_dacp checks nothing after validate_dacp's checks: each graph
        # they accept is isomorphic to the image of the partition it gives
        for n in range(5):
            pairs = list(itertools.permutations(range(1, n + 1), 2))
            for chosen in itertools.product((False, True), repeat=len(pairs)):
                g = Dacp(n, [pair for pair, keep in zip(pairs, chosen) if keep])
                try:
                    validate_dacp(g)
                except DacpError as fault:
                    with pytest.raises(DacpError) as again:
                        from_dacp(g)
                    assert str(again.value) == str(fault)
                    continue
                p = from_dacp(g)
                image = to_dacp(p)
                assert p.n == g.n and len(image.edges) == len(g.edges)
                assert dacp_contains(g, image), sorted(g.edges)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_isomorphism_invariance(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        options = list(partitions_up_to(7))
        p = data.draw(st.sampled_from([q for q in options if q.n == n]))
        perm_values = data.draw(st.permutations(list(range(1, n + 1))))
        perm = {i + 1: v for i, v in enumerate(perm_values)}
        assert from_dacp(relabel(to_dacp(p), perm)) == p


class TestValidation:
    def test_two_cycle_is_directed_cycle(self):
        with pytest.raises(DacpError, match="directed cycle"):
            from_dacp(Dacp(2, frozenset({(1, 2), (2, 1)})))

    def test_longer_cycle(self):
        with pytest.raises(DacpError, match="directed cycle"):
            validate_dacp(Dacp(3, frozenset({(1, 2), (2, 3), (3, 1)})))

    def test_complement_not_cliques(self):
        # path complement: 1-2 and 2-3 non-adjacent but 1-3 adjacent
        with pytest.raises(DacpError, match="not a disjoint union of cliques"):
            validate_dacp(Dacp(3, frozenset({(3, 1)})))

    def test_self_loop(self):
        with pytest.raises(DacpError, match="self-loop"):
            validate_dacp(Dacp(2, frozenset({(1, 1)})))

    def test_vertex_out_of_range(self):
        with pytest.raises(DacpError, match="out of range"):
            validate_dacp(Dacp(2, frozenset({(3, 1)})))

    @pytest.mark.parametrize(("g", "message"), TWO_FAULTS, ids=TWO_FAULT_IDS)
    def test_first_of_two_faults_is_named(self, g, message):
        for check in (validate_dacp, from_dacp):
            with pytest.raises(DacpError) as fault:
                check(g)
            assert str(fault.value) == message

    def test_non_integer_vertex_refused(self):
        with pytest.raises(TypeError):
            Dacp(3, [(2.7, 1)])
        with pytest.raises(TypeError):
            Dacp(3, [("2", 1)])
        assert Dacp(3, [(True, 2)]).edges == {(1, 2)}


class TestDacpContains:
    def test_transported_containment_example(self):
        assert dacp_contains(to_dacp(parse("124/35")), to_dacp(parse("1/23")))

    def test_single_vertex_always_contained(self):
        single = to_dacp(parse("1"))
        for p in partitions_up_to(5):
            if p.n >= 1:
                assert dacp_contains(to_dacp(p), single)

    def test_mirrors_partition_avoidance(self):
        assert not dacp_contains(to_dacp(parse("13/24")), to_dacp(parse("12/34")))

    def test_label_independent(self):
        host = to_dacp(parse("124/35"))
        pattern = to_dacp(parse("1/23"))
        perm = {1: 2, 2: 3, 3: 1}
        assert dacp_contains(host, relabel(pattern, perm))

    def test_relabelled_hosts_agree_with_partition_containment(self):
        # the bitset search sees only the graph, so host labels must not matter
        rng = random.Random(12)
        pats = [(p, to_dacp(p)) for k in range(1, 5) for p in patterns_of(k)]
        for host in partitions_up_to(6):
            labels = list(range(1, host.n + 1))
            rng.shuffle(labels)
            hg = relabel(to_dacp(host), dict(zip(range(1, host.n + 1), labels)))
            for p, pg in pats:
                assert dacp_contains(hg, pg) == contains(host, p), (str(host), labels, str(p))

    @pytest.mark.parametrize("edge", [(0, 1), (3, 1), (-1, 1)], ids=["zero", "past-n", "negative"])
    def test_vertex_out_of_range_refused(self, edge):
        # the masks are built only for a graph that passes validate_dacp's checks
        good = to_dacp(parse("1/2"))
        message = f"vertex out of range in edge ({edge[0]}, {edge[1]})"
        for host, pattern in ((Dacp(2, {edge}), good), (good, Dacp(2, {edge}))):
            with pytest.raises(DacpError) as fault:
                dacp_contains(host, pattern)
            assert str(fault.value) == message

    @pytest.mark.parametrize(
        ("g", "message"),
        TWO_FAULTS
        + [
            (Dacp(1, {(1, 1)}), "self-loop at vertex 1"),
            (Dacp(2, {(1, 2), (2, 1)}), "directed cycle"),
            # oriented, but the complement is the path 1 - 2 - 3
            (Dacp(3, {(3, 1)}), "complement is not a disjoint union of cliques (vertices 1 and 3)"),
        ],
        ids=TWO_FAULT_IDS + ["self-loop", "two-cycle", "path-complement"],
    )
    def test_refuses_what_validate_dacp_refuses(self, g, message):
        # as host and as pattern, beside partners smaller and larger: pairs the
        # k > n and k == 0 shortcuts would answer are refused too; the self-loop
        # against "1" and the two-cycle against "1/2", either way round, once gave True
        for good in map(to_dacp, (parse(""), parse("1"), parse("1/2"), parse("134/25"))):
            for host, pattern in ((g, good), (good, g)):
                with pytest.raises(DacpError) as fault:
                    dacp_contains(host, pattern)
                assert str(fault.value) == message

    def test_pattern_past_the_recursion_limit_is_a_ceiling(self):
        # the search recurses once per pattern vertex; a lowered limit keeps the graphs small
        host = to_dacp(SetPartition(320, [(e,) for e in range(1, 321)]))
        pattern = to_dacp(SetPartition(300, [(e,) for e in range(1, 301)]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            with pytest.raises(CeilingError) as refused:
                dacp_contains(host, pattern)
        finally:
            sys.setrecursionlimit(limit)
        assert str(refused.value) == "graph containment search recursion limit exceeded by 300 pattern vertices"

    def test_equivalence_with_partition_containment(self):
        # moderate sweep; the acceptance suite covers hosts up to n = 7
        pats = [(p, to_dacp(p)) for k in range(1, 4) for p in patterns_of(k)]
        for host in partitions_up_to(5):
            hg = to_dacp(host)
            for p, pg in pats:
                assert dacp_contains(hg, pg) == contains(host, p), (str(host), str(p))


class TestSerialization:
    def test_to_obj_sorted(self):
        obj = dacp_to_obj(to_dacp(parse("134/25")))
        assert obj == {
            "n": 5,
            "edges": [[2, 1], [3, 2], [4, 2], [5, 1], [5, 3], [5, 4]],
        }

    def test_roundtrip(self):
        for p in partitions_up_to(5):
            g = to_dacp(p)
            assert dacp_from_obj(dacp_to_obj(g)) == g

    def test_malformed_objects_rejected(self):
        with pytest.raises(DacpError):
            dacp_from_obj({"edges": []})
        with pytest.raises(DacpError):
            dacp_from_obj({"n": "4", "edges": []})
        with pytest.raises(DacpError):
            dacp_from_obj({"n": 4, "edges": [[1, 2, 3]]})
        with pytest.raises(DacpError):
            dacp_from_obj({"n": 4, "edges": [[1, "2"]]})
        for edges in (None, 5, True):
            with pytest.raises(DacpError, match='^"edges" must be a list$'):
                dacp_from_obj({"n": 2, "edges": edges})
