"""Graphs, complementary edge ideals, decomposition, classification, enumeration."""

import hashlib
import json
import time

import pytest

from clutterkit import (
    Graph,
    REFERENCE_GRAPHS,
    ResourceLimitExceeded,
    classify_graph,
    clutter_of_graph,
    complementary_edge_ideal,
    edge_ideal,
    enumerate_graphs_upto_iso,
    has_packing,
    is_simis,
    make_clutter,
    make_graph,
    minimal_primes,
    minimalize,
    primary_decomposition_cx,
)
from clutterkit import graphs
from clutterkit.graphs import _least_mask, _pair_slots
from oracles import (
    associated_graph,
    brute_least_mask,
    brute_minimalize,
    graphs_isomorphic,
    intersect,
    isolated_vertices,
    nx_count_classes,
    nx_isomorphic,
    reference_classify_graph,
    reference_enumerate_graphs,
    seeded_graph,
    uniformity,
)


def star4():
    return make_graph(4, [(1, 2), (1, 3), (1, 4)])


def paw():
    return make_graph(4, [(1, 2), (2, 3), (1, 3), (1, 4)])


def diamond():
    return make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])


def k4():
    return make_graph(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])


def prime_ideal(n, A):
    return minimalize(
        [tuple(1 if v == w else 0 for v in range(1, n + 1)) for w in sorted(A)], n
    )


# a graph on 2 vertices is refused before any mask is built
SMALL_GRAPH = "^clutter_of_graph requires at least 3 vertices, got 2$"

class TestMakeGraph:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 4)])

    def test_normalizes_orientation(self):
        assert make_graph(3, [(3, 1)]).edges == ((1, 3),)


class TestGraphInvariants:
    """A Graph checks its own rules, so one built directly is checked too."""

    @pytest.mark.parametrize("n, edges", [
        (4, ((2, 1), (2, 1))),
        (3, ((1, 4),)),
        (True, ()),
        (4, ((1, 2), (1, 2))),
        (4, ((1, 3), (1, 2))),
        (4, ([1, 2],)),
        (4, ((1.0, 2),)),
        (4, ((0, 1),)),
        (-1, ()),
    ], ids=["reversed-repeat", "out-of-range", "bool-n", "repeat", "unsorted",
            "list-edge", "float-vertex", "vertex-0", "negative-n"])
    def test_direct_construction_is_checked(self, n, edges):
        with pytest.raises(ValueError):
            Graph(n, edges)

    def test_clutter_of_a_graph_with_a_repeated_edge_is_refused(self):
        with pytest.raises(ValueError):
            clutter_of_graph(Graph(4, ((2, 1), (2, 1))))


class TestComplementaryEdgeIdeal:
    def test_path_on_three(self):
        got = complementary_edge_ideal(make_graph(3, [(1, 2), (2, 3)]))
        assert got.gens == ((0, 0, 1), (1, 0, 0))  # x3 and x1

    def test_star(self):
        got = complementary_edge_ideal(star4())
        assert got.gens == ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))

    def test_paw_matches_prime_intersection(self):
        got = complementary_edge_ideal(paw())
        expected = intersect(
            intersect(prime_ideal(4, {2, 4}), prime_ideal(4, {3, 4})),
            prime_ideal(4, {1, 2, 3}),
        )
        assert got == expected

    def test_edgeless_gives_zero(self):
        assert complementary_edge_ideal(make_graph(5, [])).is_zero

    def test_small_graph_with_edge_rejected(self):
        with pytest.raises(ValueError, match=SMALL_GRAPH):
            complementary_edge_ideal(make_graph(2, [(1, 2)]))


class TestGraphClutterCorrespondence:
    def test_star_clutter(self):
        H = clutter_of_graph(star4())
        assert H.edge_vertex_sets() == ((2, 3), (2, 4), (3, 4))
        assert isolated_vertices(H) == (1,)

    def test_square_cycle_clutter(self):
        C4 = REFERENCE_GRAPHS["C4"]
        H = clutter_of_graph(C4)
        assert set(H.edge_vertex_sets()) == {(3, 4), (1, 4), (1, 2), (2, 3)}
        assert uniformity(H) == 2

    def test_roundtrip_on_four_vertices(self):
        for G in enumerate_graphs_upto_iso(4, require_edge=True):
            assert associated_graph(clutter_of_graph(G)) == G

    def test_edge_ideal_equals_complementary_ideal(self):
        # the one builder against the products off each edge, minimalized by
        # brute force, and against the complements sent through make_clutter
        edgeless = [make_graph(n, []) for n in range(3)]
        for G in edgeless + [G for n in range(3, 7) for G in enumerate_graphs_upto_iso(n)]:
            vertices = range(1, G.n + 1)
            products = [tuple(int(v not in e) for v in vertices) for e in G.edges]
            ideal = complementary_edge_ideal(G)
            assert (ideal.n, ideal.gens) == (G.n, brute_minimalize(products))
            if G.edges:
                complements = [set(vertices) - set(e) for e in G.edges]
                assert clutter_of_graph(G) == make_clutter(G.n, complements)

    def test_rejects_small_or_edgeless(self):
        with pytest.raises(ValueError, match=SMALL_GRAPH):
            clutter_of_graph(make_graph(2, [(1, 2)]))
        with pytest.raises(ValueError, match="^clutter_of_graph requires at least one edge$"):
            clutter_of_graph(make_graph(4, []))

    def test_rejects_wrong_uniformity(self):
        H = make_clutter(4, [(1, 2), (3, 4)])  # 2-uniform, needs 4-2=2: ok
        assert associated_graph(H).edges == ((1, 2), (3, 4))
        bad = make_clutter(4, [(1,), (2, 3)])
        with pytest.raises(ValueError):
            associated_graph(bad)


class TestPrimaryDecomposition:
    def test_star(self):
        got = set(primary_decomposition_cx(star4()))
        assert got == {frozenset({2, 3}), frozenset({2, 4}), frozenset({3, 4})}

    def test_complete_graph(self):
        got = set(primary_decomposition_cx(k4()))
        assert got == {
            frozenset({1, 2, 4}),
            frozenset({1, 3, 4}),
            frozenset({1, 2, 3}),
            frozenset({2, 3, 4}),
        }

    def test_diamond(self):
        got = set(primary_decomposition_cx(diamond()))
        assert got == {
            frozenset({2, 4}),
            frozenset({1, 3, 4}),
            frozenset({1, 2, 3}),
        }

    def test_isolated_vertex_gives_singleton(self):
        got = primary_decomposition_cx(make_graph(3, [(1, 2)]))
        assert got == (frozenset({3}),)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            primary_decomposition_cx(make_graph(4, []))

    def test_matches_min_vertex_covers(self):
        # the same primes in the same (size, lex) order, on all 1,244 classes
        for n in (3, 4, 5, 6, 7):
            for G in enumerate_graphs_upto_iso(n, require_edge=True):
                assert primary_decomposition_cx(G) == minimal_primes(
                    edge_ideal(clutter_of_graph(G))
                ), G

    def test_intersection_recovers_ideal(self):
        # the operation asserts this internally; re-check one case explicitly
        G = diamond()
        check = None
        for A in primary_decomposition_cx(G):
            P = prime_ideal(4, A)
            check = P if check is None else intersect(check, P)
        assert check == complementary_edge_ideal(G)

    def test_seeded_24_vertex_graph(self):
        # the same 357 primes as when the check ran the intersect chain,
        # which the oracle runs again here
        G = seeded_graph(24, 0.5)
        primes = primary_decomposition_cx(G)
        listed = json.dumps([sorted(A) for A in primes]).encode()
        assert len(primes) == 357
        assert hashlib.sha256(listed).hexdigest() == (
            "70911ac860b6f4ec02d0c75c5b8d8d996ef1266925c2b3774f3e8e71c174eccb"
        )
        check = None
        for A in primes:
            P = prime_ideal(24, A)
            check = P if check is None else intersect(check, P)
        assert check == complementary_edge_ideal(G)

    def test_seeded_30_vertex_graph_in_bounded_time(self):
        # about 0.02 s; the intersect chain took over 1 s
        G = seeded_graph(30, 0.5)
        start = time.perf_counter()
        primes = primary_decomposition_cx(G)
        assert time.perf_counter() - start < 0.5
        assert len(primes) == 829

    def test_seeded_60_vertex_graph_in_bounded_time(self):
        # about 0.44 s, against which the bound keeps the 30-vertex test's
        # headroom; the generator search, run at k = 1 over these primes in
        # place of the chain, passes its step cap
        G = seeded_graph(60, 0.5)
        start = time.perf_counter()
        primes = primary_decomposition_cx(G)
        assert time.perf_counter() - start < 11
        listed = json.dumps([sorted(A) for A in primes]).encode()
        assert len(primes) == 5046
        assert hashlib.sha256(listed).hexdigest() == (
            "7ab4164e40c3d49a5ac978e827efb18af01da626fd6070bab6675ac3b6f5b371"
        )

    def test_one_edge_among_many_isolated_vertices_in_bounded_time(self):
        # about 0.1 s, against which the bound keeps the 60-vertex test's
        # headroom: the chain runs on the two touched vertices, and the
        # 99,998 singletons are checked on the one generator (the chain over
        # every vertex took over 4 s, quadratic in the isolated vertices)
        G = make_graph(100_000, [(1, 2)])
        start = time.perf_counter()
        primes = primary_decomposition_cx(G)
        assert time.perf_counter() - start < 2.5
        assert primes == tuple(frozenset([v]) for v in range(3, 100_001))

    def test_dense_40_vertex_graph_refused(self):
        # 7,892 primes: the check passes the chain's step cap in about 0.8 s
        with pytest.raises(
            ResourceLimitExceeded, match="over 7892 minimal primes at k = 1 counted .* cap of 20000000$"
        ):
            primary_decomposition_cx(seeded_graph(40, 0.9))


class TestClassification:
    def test_references_classify_as_themselves(self):
        for label, ref in REFERENCE_GRAPHS.items():
            got = classify_graph(ref)
            assert (got.label, got.isolated_count) == (label, 0)

    def test_path_with_isolated_vertex(self):
        G = make_graph(5, [(1, 2), (2, 3), (3, 4)])
        got = classify_graph(G)
        assert (got.label, got.isolated_count) == ("P4", 1)

    def test_paw_is_other(self):
        assert classify_graph(paw()).label == "OTHER"

    def test_two_disjoint_edges(self):
        assert classify_graph(make_graph(4, [(1, 3), (2, 4)])).label == "2K2"

    def test_edgeless_is_other(self):
        got = classify_graph(make_graph(3, []))
        assert (got.label, got.isolated_count) == ("OTHER", 3)

    def test_relabeled_square_cycle(self):
        G = make_graph(6, [(2, 5), (5, 3), (3, 6), (6, 2)])
        got = classify_graph(G)
        assert (got.label, got.isolated_count) == ("C4", 2)

    def test_long_path_is_other(self):
        got = classify_graph(make_graph(40, [(v, v + 1) for v in range(1, 40)]))
        assert (got.label, got.isolated_count) == ("OTHER", 0)

    def test_matches_reference_on_every_class(self):
        for n in range(1, 8):
            for G in enumerate_graphs_upto_iso(n):
                assert classify_graph(G) == reference_classify_graph(G), G


class TestIsomorphism:
    def test_relabeled_cycle(self):
        C4 = REFERENCE_GRAPHS["C4"]
        relabeled = make_graph(4, [(2, 4), (4, 1), (1, 3), (3, 2)])
        assert graphs_isomorphic(C4, relabeled)

    def test_path_vs_star(self):
        assert not graphs_isomorphic(REFERENCE_GRAPHS["P4"], star4())

    def test_paw_vs_diamond(self):
        assert not graphs_isomorphic(paw(), diamond())

    def test_networkx_agreement(self, rng):
        for _ in range(120):
            n = rng.randint(2, 5)
            def rand_graph():
                edges = []
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        if rng.random() < 0.4:
                            edges.append((a, b))
                return make_graph(n, edges)

            G1, G2 = rand_graph(), rand_graph()
            assert graphs_isomorphic(G1, G2) == nx_isomorphic(G1, G2)

    def test_networkx_agreement_six_to_eight_vertices(self, rng):
        # A relabeled copy, or a copy with one degree-preserving edge swap:
        # same vertex count, edge count and degrees, isomorphic or not.
        for _ in range(100):
            n = rng.randint(6, 8)
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            edges = {p for p in pairs if rng.random() < 0.5}
            other = edges
            for _ in range(20 if rng.random() < 0.5 and len(edges) >= 2 else 0):
                (a, b), (c, d) = rng.sample(sorted(edges), 2)
                new = {tuple(sorted((a, d))), tuple(sorted((b, c)))}
                if len({a, b, c, d}) == 4 and not edges & new:
                    other = (edges - {(a, b), (c, d)}) | new
                    break
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            G1 = make_graph(n, edges)
            G2 = make_graph(n, [(perm[a - 1], perm[b - 1]) for a, b in other])
            assert graphs_isomorphic(G1, G2) == nx_isomorphic(G1, G2)

    def test_cap(self):
        G = make_graph(9, [(1, 2)])
        with pytest.raises(ResourceLimitExceeded):
            graphs_isomorphic(G, G)


class TestEnumeration:
    def test_counts_match_networkx(self):
        for n in (1, 2, 3, 4, 5):
            assert len(enumerate_graphs_upto_iso(n)) == nx_count_classes(n)

    def test_three_vertices_with_edge(self):
        got = enumerate_graphs_upto_iso(3, require_edge=True)
        assert len(got) == 3

    def test_four_vertices_with_edge(self):
        got = enumerate_graphs_upto_iso(4, require_edge=True)
        assert len(got) == 10

    def test_seven_classes_without_isolated_vertices(self):
        # exactly 7 classes on four vertices have an edge and no isolated vertex
        got = [
            G
            for G in enumerate_graphs_upto_iso(4, require_edge=True)
            if not G.isolated_vertices()
        ]
        assert len(got) == 7

    def test_six_vertices_count(self):
        assert len(enumerate_graphs_upto_iso(6, require_edge=True)) == 155

    def test_representatives_are_pairwise_non_isomorphic(self):
        reps = enumerate_graphs_upto_iso(4)
        for i, G1 in enumerate(reps):
            for G2 in reps[i + 1:]:
                assert not graphs_isomorphic(G1, G2)

    def test_deterministic(self):
        assert enumerate_graphs_upto_iso(5) == enumerate_graphs_upto_iso(5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_graphs_upto_iso(8)
        with pytest.raises(ValueError):
            enumerate_graphs_upto_iso(0)


def representatives_sha256(graphs):
    return hashlib.sha256(json.dumps([G.to_json_dict() for G in graphs]).encode()).hexdigest()


class TestEnumerationMatchesReference:
    # sha256 of reference_enumerate_graphs(7, require_edge), which takes
    # about 6 s per call; the CI workflow checks the same hash for True.
    REFERENCE_N7_SHA256 = {
        False: "3dfbf504dccfe8b0280ccbacf9df0a23071d378a620f0761ea8bea4d9e63c739",
        True: "0483b5e308601beff2ab9cfeb70d4b0a94b431f58a69e169758faba81be59afd",
    }

    @pytest.mark.parametrize("require_edge", [False, True])
    def test_equal_lists_up_to_six_vertices(self, require_edge):
        for n in range(1, 7):
            assert enumerate_graphs_upto_iso(n, require_edge) == reference_enumerate_graphs(
                n, require_edge
            )

    @pytest.mark.parametrize("require_edge", [False, True])
    def test_seven_vertices_match_pinned_reference(self, require_edge):
        got = enumerate_graphs_upto_iso(7, require_edge)
        assert len(got) == (1043 if require_edge else 1044)
        assert representatives_sha256(got) == self.REFERENCE_N7_SHA256[require_edge]

    def test_eight_vertices_with_the_cap_raised(self, monkeypatch):
        # 12,346 classes, by edge count as in OEIS A008406; the sha256 was
        # first taken from the edge-count-level enumerator this one replaced
        monkeypatch.setattr(graphs, "ENUMERATION_VERTEX_CAP", 8)
        got = enumerate_graphs_upto_iso(8)
        assert len(got) == 12346
        per_edge_count = [0] * 29
        for G in got:
            per_edge_count[len(G.edges)] += 1
        assert per_edge_count == [
            1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
            1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1,
        ]
        assert representatives_sha256(got) == (
            "c2d5996c57616a1dc8e3f87e0775ea1e8d61d5f5c10ac184b6fb19d5e2b1030e"
        )


class TestLeastMask:
    def test_matches_brute_force_minimum_up_to_five_vertices(self):
        for n in range(1, 6):
            slots = _pair_slots(n)
            for mask in range(1 << len(slots)):
                assert _least_mask(n, mask, slots) == brute_least_mask(n, mask)

    def test_least_parent_of_a_least_mask_is_least_up_to_five_vertices(self):
        # the lemma orderly enumeration rests on: setting the lowest zero bit
        # of a least mask other than the full one gives a least mask
        for n in range(1, 6):
            full = (1 << n * (n - 1) // 2) - 1
            least = {m for m in range(full + 1) if brute_least_mask(n, m) == m}
            for m in least - {full}:
                assert m | (~m & (m + 1)) in least


def simis_equal_for_graph(G, k):
    # two-vertex graphs with an edge are trivially fine (single-edge clutter family)
    if G.n <= 2:
        return True
    return is_simis(complementary_edge_ideal(G), k).equal


class TestIsolatedVertexReduction:
    def test_equality_preserved_small(self):
        for n in (3, 4):
            for G in enumerate_graphs_upto_iso(n):
                isolated = G.isolated_vertices()
                if not isolated:
                    continue
                v = isolated[0]
                survivors = [w for w in range(1, G.n + 1) if w != v]
                relabel = {w: i for i, w in enumerate(survivors, start=1)}
                stripped = make_graph(
                    G.n - 1, [(relabel[a], relabel[b]) for a, b in G.edges]
                )
                for k in (2, 3):
                    assert simis_equal_for_graph(G, k) == simis_equal_for_graph(
                        stripped, k
                    )


class TestEquivalenceSpotChecks:
    def test_classification_matches_simis_and_packing(self):
        for n in (3, 4):
            for G in enumerate_graphs_upto_iso(n, require_edge=True):
                classified = classify_graph(G).label != "OTHER"
                simis2 = is_simis(complementary_edge_ideal(G), 2).equal
                packs = has_packing(clutter_of_graph(G)).packs
                assert classified == simis2 == packs


class TestGraphJson:
    def test_wire_format(self):
        G = make_graph(4, [(1, 2), (2, 3)])
        data = G.to_json_dict()
        assert data == {"n": 4, "edges": [[1, 2], [2, 3]]}
        assert Graph.from_json_dict(data) == G
