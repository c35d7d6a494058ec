"""Clutters: minors, Konig/packing, extensions and incidence matrices."""

import hashlib
import json
import random
import time
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from clutterkit import (
    ResourceLimitExceeded,
    TRIVIAL,
    cover_number,
    edge_ideal,
    has_koenig,
    has_packing,
    incidence_matrix,
    make_clutter,
    matching_number,
    minimal_primes,
    minor,
)
from clutterkit import clutters as clutters_module
from clutterkit import monomials
from clutterkit.clutters import Clutter, IncidenceMatrix
from oracles import (
    all_clutters_with_edges,
    brute_cover_number,
    brute_matching_number,
    brute_minimal_covers,
    brute_minor,
    canonical_form,
    extend,
    isolated_vertices,
    nx_matrix_equivalent,
    random_clutter,
    reference_has_packing,
    uniformity,
)

POOL = Path(__file__).parents[1] / "perfbench" / "pool.json"


def paw_complement():
    # complements of the paw's edges: {3,4},{1,4},{2,4},{2,3}
    return make_clutter(4, [(3, 4), (1, 4), (2, 4), (2, 3)])


def triangle_on_234():
    return make_clutter(4, [(2, 3), (2, 4), (3, 4)])


def pentagon_clutter():
    return make_clutter(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


class TestMakeClutter:
    def test_stores_antichain_as_given(self):
        H = make_clutter(4, [(1, 2), (3, 4)])
        assert H.edge_vertex_sets() == ((1, 2), (3, 4))

    def test_normalizes_to_minimal_edges(self):
        H = make_clutter(3, [(1,), (1, 2)])
        assert H.edge_vertex_sets() == ((1,),)

    def test_triangle_with_isolated_vertex(self):
        H = triangle_on_234()
        assert H.edge_vertex_sets() == ((2, 3), (2, 4), (3, 4))
        assert isolated_vertices(H) == (1,)

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            make_clutter(3, [()])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            make_clutter(3, [(1, 4)])

    def test_deduplicates(self):
        H = make_clutter(3, [(1, 2), (2, 1)])
        assert len(H.edges) == 1


class TestClutterInvariants:
    """A Clutter checks its own rules, so one built directly is checked too."""

    @pytest.mark.parametrize("n, edges", [
        (3, (0,)),
        (2, (3, 1)),
        (2, (4,)),
        (2, (1, 1)),
        (2, (True,)),
        (2, (-1,)),
        (True, ()),
    ], ids=["empty-edge", "unsorted", "vertex-above-n", "repeat", "bool-edge",
            "negative-mask", "bool-n"])
    def test_direct_construction_is_checked(self, n, edges):
        with pytest.raises(ValueError):
            Clutter(n, edges)

    def test_a_huge_vertex_count_is_checked_without_a_huge_mask(self):
        H = make_clutter(10**12, [[1]])
        assert H.edges == (1,)
        with pytest.raises(ResourceLimitExceeded):
            has_packing(H)


class TestEdgeIdeal:
    def test_single_edge(self):
        assert edge_ideal(make_clutter(2, [(1, 2)])).gens == ((1, 1),)

    def test_edgeless_gives_zero(self):
        assert edge_ideal(make_clutter(3, [])).is_zero

    def test_triangle(self):
        got = edge_ideal(triangle_on_234())
        assert got.gens == ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))

    def test_vectors_are_the_bits_of_each_mask(self):
        # the three encodings of a vertex set, and edge_ideal and
        # incidence_matrix, against one shift per bit
        for n in range(1, 9):
            for e in range(1 << n):
                expected = tuple(e >> i & 1 for i in range(n))
                assert list(monomials._positions(e)) == [i for i in range(n) if e >> i & 1]
                assert monomials._bit_vector(e, n) == expected
                assert monomials._support_mask(monomials._bit_vector(e, n)) == e
                if e:
                    H = Clutter(n, (e,))
                    assert edge_ideal(H).gens == (expected,)
                    assert incidence_matrix(H).data == (expected,)


    def test_support_mask_of_long_vectors(self, rng):
        # past 32 entries the mask comes from binary digits; exponents other
        # than 0 and 1 count as set, and 10^6 ones take linear time
        for n in (31, 32, 33, 64, 200):
            for _ in range(20):
                m = tuple(rng.choice((0, 0, 1, 2, 7)) for _ in range(n))
                assert monomials._support_mask(m) == sum(1 << i for i, e in enumerate(m) if e)
        start = time.perf_counter()
        assert monomials._support_mask((1,) * 10**6) == (1 << 10**6) - 1
        assert time.perf_counter() - start < 1.0


class TestMatchingCover:
    def test_two_disjoint_edges(self):
        assert matching_number(make_clutter(4, [(1, 2), (3, 4)])) == 2

    def test_triangle_matching_one(self):
        assert matching_number(triangle_on_234()) == 1

    def test_paw_complement_matching_two(self):
        assert matching_number(paw_complement()) == 2

    def test_triangle_cover(self):
        H = triangle_on_234()
        assert cover_number(H) == 2
        assert set(minimal_primes(edge_ideal(H))) == {
            frozenset({2, 3}),
            frozenset({2, 4}),
            frozenset({3, 4}),
        }

    def test_edgeless_cover_zero(self):
        assert cover_number(make_clutter(3, [])) == 0
        with pytest.raises(ValueError):
            minimal_primes(edge_ideal(make_clutter(3, [])))

    def test_pentagon_cover_three(self):
        assert cover_number(pentagon_clutter()) == 3

    def test_brute_force_agreement(self, rng):
        for _ in range(60):
            H = random_clutter(rng, allow_edgeless=True)
            assert matching_number(H) == brute_matching_number(H)
            assert cover_number(H) == brute_cover_number(H)

    def test_every_clutter_up_to_five_vertices(self):
        for n in range(1, 6):
            for H in [make_clutter(n, []), *all_clutters_with_edges(n)]:
                assert matching_number(H) == brute_matching_number(H)

    @pytest.mark.parametrize("n", (16, 20))
    def test_complete_graphs_answer(self, n):
        # K20 has 190 edges; the free-vertex cut stops every branch once a
        # perfect matching is found
        assert matching_number(make_clutter(n, combinations(range(1, n + 1), 2))) == n // 2

    def test_search_cap_counts_steps(self, monkeypatch):
        # K20 takes 1,375 loop steps; the cap is read at call time, and the
        # message gives the count that crossed it
        K20 = make_clutter(20, combinations(range(1, 21), 2))
        monkeypatch.setattr(monomials, "PACKING_VISIT_CAP", 1375)
        assert matching_number(K20) == 10
        monkeypatch.setattr(monomials, "PACKING_VISIT_CAP", 1374)
        with pytest.raises(ResourceLimitExceeded, match=r"made 1375 steps, above the cap of 1374$"):
            matching_number(K20)

    def test_covers_equal_minimal_primes(self, rng):
        for _ in range(60):
            H = random_clutter(rng)
            assert set(minimal_primes(edge_ideal(H))) == set(brute_minimal_covers(H))

    def test_weak_duality(self, rng):
        for _ in range(120):
            H = random_clutter(rng, allow_edgeless=True)
            assert matching_number(H) <= cover_number(H)


class TestMinimalCoverKernel:
    """minimal_primes and cover_number share one search."""

    def test_every_clutter_up_to_five_vertices(self):
        counts = []
        for n in range(1, 6):
            count = 0
            for H in all_clutters_with_edges(n):
                want = brute_minimal_covers(H)
                assert minimal_primes(edge_ideal(H)) == want
                assert cover_number(H) == len(want[0])
                count += 1
            counts.append(count)
        # Dedekind numbers less the edgeless clutter and the one with an empty edge.
        assert counts == [1, 4, 18, 166, 7579]

    def test_vertex_cap(self):
        path = make_clutter(21, [(v, v + 1) for v in range(1, 21)])
        with pytest.raises(ResourceLimitExceeded):
            cover_number(path)
        with pytest.raises(ResourceLimitExceeded):
            minimal_primes(edge_ideal(path))


class TestCanonicalFormKernel:
    """The matrix canonical form in ``tests/oracles.py``, on which the
    reference structural check and the reference classification rest;
    networkx pins it on every clutter with n <= 5."""

    def test_every_clutter_up_to_five_vertices(self):
        rng = random.Random(20261018)
        first_of_form = {}
        for n in range(1, 6):
            for H in all_clutters_with_edges(n):
                M = incidence_matrix(H)
                form = canonical_form(M)
                first = first_of_form.setdefault(form, M)
                assert first is M or nx_matrix_equivalent(first, M)
                rows = rng.sample(M.data, M.rows)
                cols = rng.sample(range(n), n)
                shuffled = IncidenceMatrix.from_rows(
                    [tuple(row[j] for j in cols) for row in rows], n
                )
                assert canonical_form(shuffled) == form

    def test_zero_rows_or_columns(self):
        assert canonical_form(IncidenceMatrix.from_rows([], 8)) == ()
        assert canonical_form(IncidenceMatrix.from_rows([], 0)) == ()

    def test_column_cap(self):
        M = incidence_matrix(make_clutter(9, [(1, 2)]))
        with pytest.raises(ResourceLimitExceeded, match="9!"):
            canonical_form(M)


class TestDeletionContraction:
    """Single-vertex minors: minor(H, (v,), ()) deletes v, minor(H, (), (v,))
    contracts it."""

    def test_deletion_drops_incident_edges(self):
        H = make_clutter(4, [(1, 2), (3, 4)])
        got = minor(H, (1,), ())
        assert got.n == 3
        assert got.edge_vertex_sets() == ((2, 3),)  # survivors 2,3,4 relabeled

    def test_deletion_of_isolated_vertex(self):
        H = triangle_on_234()
        got = minor(H, (1,), ())
        assert got.n == 3
        assert got.edge_vertex_sets() == ((1, 2), (1, 3), (2, 3))

    def test_deletion_from_paw_complement_gives_triangle(self):
        got = minor(paw_complement(), (1,), ())
        assert got.edge_vertex_sets() == ((1, 2), (1, 3), (2, 3))

    def test_contraction_reminimalizes(self):
        H = make_clutter(4, [(1, 2), (3, 4)])
        got = minor(H, (), (1,))
        assert got.edge_vertex_sets() == ((1,), (2, 3))

    def test_contraction_of_paw_complement(self):
        got = minor(paw_complement(), (), (1,))
        assert got.edge_vertex_sets() == ((1, 2), (3,))

    def test_contraction_emptying_edge_is_trivial(self):
        assert minor(make_clutter(1, [(1,)]), (), (1,)) is TRIVIAL

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            minor(triangle_on_234(), (5,), ())
        with pytest.raises(ValueError):
            minor(triangle_on_234(), (), (0,))


class TestMinor:
    def test_identity_minor(self):
        H = paw_complement()
        assert minor(H, (), ()) == H

    def test_deletion_only(self):
        got = minor(paw_complement(), (1,), ())
        assert got.edge_vertex_sets() == ((1, 2), (1, 3), (2, 3))

    def test_trivial_propagates(self):
        H = make_clutter(3, [(1, 2), (3,)])
        assert minor(H, (), (1, 2)) is TRIVIAL

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            minor(paw_complement(), (1,), (1, 2))

    def test_matches_brute_force_oracle(self):
        count = 0
        for n in range(1, 5):
            for H in [make_clutter(n, []), *all_clutters_with_edges(n)]:
                for labels in product("dck", repeat=n):
                    D = tuple(v for v, x in enumerate(labels, 1) if x == "d")
                    C = tuple(v for v, x in enumerate(labels, 1) if x == "c")
                    assert minor(H, D, C) == brute_minor(H, D, C), (H, D, C)
                    count += 1
        # (1 + 1) * 3 + (1 + 4) * 9 + (1 + 18) * 27 + (1 + 166) * 81
        assert count == 14091

    def test_order_independence(self, rng):
        # every interleaving of single-vertex minors gives the same minor
        def apply_sequence(H, ops):
            labels = list(range(1, H.n + 1))
            current = H
            for kind, v in ops:
                idx = (labels.index(v) + 1,)
                current = (
                    minor(current, idx, ()) if kind == "d" else minor(current, (), idx)
                )
                if current is TRIVIAL:
                    return TRIVIAL
                labels.remove(v)
            return current

        for _ in range(25):
            H = random_clutter(rng, n_max=5)
            verts = list(range(1, H.n + 1))
            rng.shuffle(verts)
            d_count = rng.randint(0, 2)
            c_count = rng.randint(0, 2)
            D = tuple(sorted(verts[:d_count]))
            C = tuple(sorted(verts[d_count:d_count + c_count]))
            expected = minor(H, D, C)
            ops = [("d", v) for v in D] + [("c", v) for v in C]
            for perm in permutations(ops):
                assert apply_sequence(H, list(perm)) == expected


class TestKoenigPacking:
    def test_edgeless_satisfies_koenig(self):
        assert has_koenig(make_clutter(3, []))

    def test_triangle_fails_koenig(self):
        assert not has_koenig(triangle_on_234())

    def test_paw_complement_satisfies_koenig(self):
        assert has_koenig(paw_complement())

    def test_trivial_minor_counts_as_koenig(self):
        assert has_koenig(TRIVIAL)

    def test_two_disjoint_edges_pack(self):
        assert has_packing(make_clutter(4, [(1, 2), (3, 4)])).packs

    def test_paw_complement_fails_with_certificate(self):
        report = has_packing(paw_complement())
        assert not report.packs
        fm = report.failing_minor
        assert (fm.deleted, fm.contracted) == ((1,), ())
        assert (fm.cover_number, fm.matching_number) == (2, 1)

    def test_pentagon_fails_at_identity(self):
        report = has_packing(pentagon_clutter())
        fm = report.failing_minor
        assert (fm.deleted, fm.contracted) == ((), ())
        assert (fm.cover_number, fm.matching_number) == (3, 2)

    def test_packing_implies_koenig(self, rng):
        for _ in range(40):
            H = random_clutter(rng, allow_edgeless=True)
            if has_packing(H).packs:
                assert has_koenig(H)

    def test_vertex_cap(self):
        H = make_clutter(13, [(1, 2), (1, 3), (2, 3)])  # fails at the identity minor
        with pytest.raises(ResourceLimitExceeded):
            has_packing(H)


class TestPackingMatchesReference:
    """The depth-first scan gives the same report, certificate included, as
    the scan that rebuilds every minor from H."""

    def test_scan_order_is_the_sorted_power_set(self):
        # both scans and perfbench's count of scanned minors walk this order
        for n in range(7):
            subsets = list(clutters_module._subsets_lex(tuple(range(1, n + 1))))
            assert len(subsets) == 2 ** n
            assert all(list(D) == sorted(set(D)) for D in subsets)
            assert set().union(*subsets) <= set(range(1, n + 1))
            assert all(D < E for D, E in zip(subsets, subsets[1:]))

    def test_every_clutter_up_to_four_vertices(self):
        for n in range(0, 5):
            for H in [make_clutter(n, []), *all_clutters_with_edges(n)]:
                assert has_packing(H) == reference_has_packing(H), H

    # sha256 over the JSON line of reference_has_packing's report for each
    # clutter of all_clutters_with_edges(5), in that order: the reference
    # takes about twice as long as the scan on these 7,579 clutters.
    N5_REPORTS_SHA256 = "f907ae81a217c556ce8b619deb94a1e7ac520a62f6aada3ae9c8654e53ae957e"

    def test_every_clutter_on_five_vertices(self):
        digest = hashlib.sha256()
        for H in all_clutters_with_edges(5):
            digest.update(json.dumps(has_packing(H).to_json_dict()).encode() + b"\n")
        assert digest.hexdigest() == self.N5_REPORTS_SHA256

    def test_minors_that_compact_alike_are_solved_once(self, monkeypatch):
        # six disjoint edges: 4,095 memo misses on the stripped edges, but
        # only 126 distinct compacted clutters, one per nonempty sequence of
        # at most six pairs and singletons in label order (2 + 4 + ... + 64)
        calls = []
        original = clutters_module.cover_number
        monkeypatch.setattr(clutters_module, "cover_number",
                            lambda H: calls.append(H) or original(H))
        H = make_clutter(12, [(2 * i + 1, 2 * i + 2) for i in range(6)])
        assert has_packing(H).packs
        assert len(calls) <= 126
        assert len(set(calls)) == len(calls)

    def test_benchmark_pool_packing_instances(self):
        instances = json.loads(POOL.read_text())["instances"]
        clutters = [make_clutter(i["n"], i["edges"]) for i in instances if i["kind"] == "packing"]
        assert len(clutters) == 48
        for H in clutters:
            assert has_packing(H) == reference_has_packing(H), H


class TestExtend:
    def test_edgeless_stays_edgeless(self):
        got = extend(make_clutter(3, []), 2)
        assert got.n == 5 and not got.edges

    def test_adds_universal_vertices(self):
        got = extend(make_clutter(4, [(1, 2), (3, 4)]), 1)
        assert got.edge_vertex_sets() == ((1, 2, 5), (3, 4, 5))

    def test_zero_extension_is_identity(self):
        H = paw_complement()
        assert extend(H, 0) is H

    def test_uniformity_shifts(self, rng):
        for _ in range(20):
            H = random_clutter(rng)
            d = uniformity(H)
            r = rng.randint(1, 2)
            if d is None:
                assert uniformity(extend(H, r)) is None
            else:
                assert uniformity(extend(H, r)) == d + r

    def test_packing_preserved_on_triangle(self):
        H = triangle_on_234()
        assert not has_packing(H).packs
        assert not has_packing(extend(H, 2)).packs

    def test_packing_preserved_on_randoms(self, rng):
        for _ in range(25):
            H = random_clutter(rng, n_max=4)
            packs = has_packing(H).packs
            for r in (1, 2):
                assert has_packing(extend(H, r)).packs == packs


class TestIncidenceMatrix:
    def test_two_disjoint_edges(self):
        M = incidence_matrix(make_clutter(4, [(1, 2), (3, 4)]))
        assert M.data == ((1, 1, 0, 0), (0, 0, 1, 1))

    def test_edgeless_zero_by_two(self):
        M = incidence_matrix(make_clutter(2, []))
        assert (M.rows, M.cols, M.data) == (0, 2, ())

    def test_variable_clutter_is_identity(self):
        M = incidence_matrix(make_clutter(3, [(1,), (2,), (3,)]))
        assert M.data == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_json_roundtrip(self):
        from clutterkit import IncidenceMatrix

        M = incidence_matrix(paw_complement())
        assert IncidenceMatrix.from_json_dict(M.to_json_dict()) == M

    def test_rejects_non_binary(self):
        for rows in [(0, 2)], [(0, True)], [(0, 1.0)]:
            with pytest.raises(ValueError):
                IncidenceMatrix.from_rows(rows, 2)
        with pytest.raises(ValueError):
            IncidenceMatrix(True, 2, ((0, 1),))

    @pytest.mark.parametrize("rows, cols", [
        ([(0, 0)], 2),
        ([(1, 1), (0, 0)], 2),
        ([(), ()], 0),
    ])
    def test_rejects_zero_row(self, rows, cols):
        with pytest.raises(ValueError, match="zero row"):
            IncidenceMatrix.from_rows(rows, cols)


class TestClutterJson:
    def test_wire_format(self):
        H = make_clutter(4, [(1, 2), (3, 4)])
        data = H.to_json_dict()
        assert data == {"n": 4, "edges": [[1, 2], [3, 4]]}
        from clutterkit import Clutter

        assert Clutter.from_json_dict(data) == H
