"""Monomial ideal arithmetic: pinned golden values plus brute-force properties."""

import json
from pathlib import Path

import pytest

from clutterkit import monomials
from clutterkit import (
    DimensionMismatch,
    MonomialIdeal,
    ResourceLimitExceeded,
    contains_monomial,
    edge_ideal,
    enumerate_graphs_upto_iso,
    intersect,
    is_simis,
    make_graph,
    complementary_edge_ideal,
    minimal_primes,
    minimalize,
    multiply,
    power,
    prime_power_contains,
    symbolic_power,
)
from oracles import (
    all_clutters_with_edges,
    brute_minimalize,
    iter_monomials,
    random_squarefree_ideal,
    reference_is_simis,
    reference_symbolic_power,
    symbolic_generators_by_scan,
    symbolic_member,
)

DATA = Path(__file__).parent / "data"
POOL = Path(__file__).parents[1] / "perfbench" / "pool.json"


def star_complement_ideal():
    # complements of the star K_{1,3} centered at vertex 1:  x3x4, x2x4, x2x3
    return minimalize([(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)], 4)


def paw_complement_ideal():
    # x3x4, x1x4, x2x4, x2x3
    return minimalize([(0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 1, 1, 0)], 4)


class TestMinimalize:
    def test_absorbs_multiples(self):
        I = minimalize([(1, 1, 0), (1, 1, 1)], 3)
        assert I.gens == ((1, 1, 0),)

    def test_empty_is_zero(self):
        assert minimalize([], 3).is_zero

    def test_unit_absorbs_everything(self):
        I = minimalize([(0, 0), (1, 0)], 2)
        assert I.is_unit
        assert I.gens == ((0, 0),)

    def test_triangle_with_redundant_product(self):
        I = minimalize(
            [(0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)], 4
        )
        assert I.gens == ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            minimalize([(1, 0), (1, 0, 0)], 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(1, -1)], 2)

    def test_idempotent_on_randoms(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            gens = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 6))
            ]
            once = minimalize(gens, n)
            assert minimalize(once.gens, n) == once
            assert once.gens == brute_minimalize(gens)


class TestMultiplyPower:
    def test_principal_times_principal(self):
        I = minimalize([(1, 0)], 2)
        J = minimalize([(0, 1)], 2)
        assert multiply(I, J).gens == ((1, 1),)

    def test_unit_is_identity(self):
        I = star_complement_ideal()
        assert multiply(I, MonomialIdeal.unit(4)) == I

    def test_zero_absorbs(self):
        I = star_complement_ideal()
        assert multiply(I, MonomialIdeal.zero(4)).is_zero

    def test_star_complement_square(self):
        got = power(star_complement_ideal(), 2)
        assert got.gens == (
            (0, 0, 2, 2),
            (0, 1, 1, 2),
            (0, 1, 2, 1),
            (0, 2, 0, 2),
            (0, 2, 1, 1),
            (0, 2, 2, 0),
        )

    def test_principal_cube(self):
        assert power(minimalize([(1, 1)], 2), 3).gens == ((3, 3),)

    def test_power_of_zero(self):
        assert power(MonomialIdeal.zero(3), 4).is_zero

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            power(star_complement_ideal(), 0)

    def test_power_matches_flat_products(self, rng):
        from itertools import combinations_with_replacement

        from clutterkit.monomials import monomial_mul

        for _ in range(30):
            I = random_squarefree_ideal(rng, n_max=4, max_gens=4)
            for k in (2, 3):
                flat = []
                for combo in combinations_with_replacement(I.gens, k):
                    m = combo[0]
                    for other in combo[1:]:
                        m = monomial_mul(m, other)
                    flat.append(m)
                assert power(I, k) == minimalize(flat, I.n)

    def test_commutative_associative(self, rng):
        for _ in range(40):
            n = rng.randint(2, 4)
            A = random_squarefree_ideal(rng, n_exact=n)
            B = random_squarefree_ideal(rng, n_exact=n)
            C = random_squarefree_ideal(rng, n_exact=n)
            assert multiply(A, B) == multiply(B, A)
            assert multiply(multiply(A, B), C) == multiply(A, multiply(B, C))
            assert intersect(A, B) == intersect(B, A)
            assert intersect(intersect(A, B), C) == intersect(A, intersect(B, C))


class TestIntersect:
    def test_three_pair_primes(self):
        p23 = minimalize([(0, 1, 0, 0), (0, 0, 1, 0)], 4)
        p24 = minimalize([(0, 1, 0, 0), (0, 0, 0, 1)], 4)
        p34 = minimalize([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
        got = intersect(intersect(p23, p24), p34)
        assert got == star_complement_ideal()

    def test_idempotent(self):
        I = paw_complement_ideal()
        assert intersect(I, I) == I

    def test_mixed_pair(self):
        p24 = minimalize([(0, 1, 0, 0), (0, 0, 0, 1)], 4)
        p34 = minimalize([(0, 0, 1, 0), (0, 0, 0, 1)], 4)
        assert intersect(p24, p34).gens == ((0, 0, 0, 1), (0, 1, 1, 0))

    def test_unit_and_zero(self):
        I = star_complement_ideal()
        assert intersect(I, MonomialIdeal.unit(4)) == I
        assert intersect(I, MonomialIdeal.zero(4)).is_zero

    def test_membership_scan(self, rng):
        # intersection contains exactly the monomials lying in both ideals
        for _ in range(25):
            n = rng.randint(2, 4)
            I = random_squarefree_ideal(rng, n_exact=n)
            J = random_squarefree_ideal(rng, n_exact=n)
            K = intersect(I, J)
            bound = 2 * max(
                (sum(g) for g in I.gens + J.gens), default=0
            )
            for m in iter_monomials(n, bound):
                assert contains_monomial(K, m) == (
                    contains_monomial(I, m) and contains_monomial(J, m)
                )


class TestMembershipEquality:
    def test_divisor_generator(self):
        I = minimalize([(0, 1, 1, 0)], 4)
        assert contains_monomial(I, (0, 1, 1, 1))

    def test_zero_ideal_contains_nothing(self):
        assert not contains_monomial(MonomialIdeal.zero(2), (0, 0))

    def test_square_misses_low_degree(self):
        I2 = power(star_complement_ideal(), 2)
        assert not contains_monomial(I2, (0, 1, 1, 1))

    def test_equality_after_minimalization(self):
        I = minimalize([(1, 1, 0), (1, 1, 1)], 3)
        J = minimalize([(1, 1, 0)], 3)
        assert I == J

    def test_zero_is_not_unit(self):
        assert MonomialIdeal.zero(2) != MonomialIdeal.unit(2)


class TestMinimalPrimes:
    def test_principal(self):
        got = minimal_primes(minimalize([(1, 1)], 2))
        assert set(got) == {frozenset({1}), frozenset({2})}

    def test_star_complement(self):
        got = minimal_primes(star_complement_ideal())
        assert set(got) == {
            frozenset({2, 3}),
            frozenset({2, 4}),
            frozenset({3, 4}),
        }

    def test_paw_complement(self):
        got = minimal_primes(paw_complement_ideal())
        assert set(got) == {
            frozenset({2, 4}),
            frozenset({3, 4}),
            frozenset({1, 2, 3}),
        }

    def test_rejects_trivial_and_non_squarefree(self):
        with pytest.raises(ValueError):
            minimal_primes(MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            minimal_primes(MonomialIdeal.unit(2))
        with pytest.raises(ValueError):
            minimal_primes(minimalize([(2, 0)], 2))


class TestPrimePowerContains:
    def test_examples(self):
        assert prime_power_contains(frozenset({2, 3}), 2, (0, 1, 1, 1))
        assert not prime_power_contains(frozenset({2, 3}), 3, (0, 1, 1, 1))
        assert prime_power_contains(frozenset({1, 2, 3}), 2, (0, 1, 1, 1))

    def test_errors(self):
        with pytest.raises(ValueError):
            prime_power_contains(frozenset(), 1, (0, 0))
        with pytest.raises(DimensionMismatch):
            prime_power_contains(frozenset({5}), 1, (0, 0))


class TestSymbolicPower:
    def test_principal_squarefree(self):
        I = minimalize([(1, 1)], 2)
        assert symbolic_power(I, 3).gens == ((3, 3),)
        assert symbolic_power(I, 3) == power(I, 3)

    def test_star_complement_degree_two(self):
        got = symbolic_power(star_complement_ideal(), 2)
        assert got.gens == ((0, 0, 2, 2), (0, 1, 1, 1), (0, 2, 0, 2), (0, 2, 2, 0))
        assert contains_monomial(got, (0, 1, 1, 1))

    def test_degree_one_recovers_ideal(self, rng):
        for _ in range(50):
            I = random_squarefree_ideal(rng)
            if I.is_unit:
                continue
            assert symbolic_power(I, 1) == I

    def test_rejects_trivial_input(self):
        with pytest.raises(ValueError):
            symbolic_power(MonomialIdeal.zero(2), 2)
        with pytest.raises(ValueError):
            symbolic_power(MonomialIdeal.unit(2), 2)

    def test_matches_membership_scan(self, rng):
        for _ in range(20):
            I = random_squarefree_ideal(rng, n_max=4, max_gens=4)
            primes = minimal_primes(I)
            for k in (2, 3):
                got = symbolic_power(I, k)
                assert got.gens == symbolic_generators_by_scan(primes, k, I.n)

    def test_matches_intersection_chain_on_small_clutters(self):
        # the deficit rule against the generic intersect chain, on every
        # clutter with n <= 4
        count = 0
        for n in range(1, 5):
            for H in all_clutters_with_edges(n):
                I = edge_ideal(H)
                for k in (2, 3, 4):
                    assert symbolic_power(I, k) == reference_symbolic_power(I, k), (H, k)
                count += 1
        assert count == 189

    def test_matches_intersection_chain_on_n6_graph_ideals(self):
        graphs = enumerate_graphs_upto_iso(6, require_edge=True)
        assert len(graphs) == 155
        for G in graphs:
            I = complementary_edge_ideal(G)
            for k in (2, 3):
                assert symbolic_power(I, k) == reference_symbolic_power(I, k), (G, k)

    def test_weak_containment(self, rng):
        # ordinary powers always sit inside symbolic powers
        for _ in range(30):
            I = random_squarefree_ideal(rng, n_max=6)
            primes = minimal_primes(I)
            for k in (2, 3, 4):
                for g in power(I, k).gens:
                    assert symbolic_member(primes, k, g)

    def test_square_cycle_power_equals_symbolic(self):
        C4 = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        I = complementary_edge_ideal(C4)
        assert power(I, 2) == symbolic_power(I, 2)


class TestIsSimis:
    def test_star_complement_fails_with_witness(self):
        report = is_simis(star_complement_ideal(), 2)
        assert not report.equal
        assert report.witness == (0, 1, 1, 1)

    def test_paw_complement_fails_with_witness(self):
        report = is_simis(paw_complement_ideal(), 2)
        assert not report.equal
        assert report.witness == (0, 1, 1, 1)

    def test_pentagon_edge_ideal_passes_degree_two(self):
        pentagon = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        I = minimalize(
            [
                tuple(1 if v in e else 0 for v in range(1, 6))
                for e in pentagon.edges
            ],
            5,
        )
        assert is_simis(I, 2).equal

    def test_trivial_ideals_pass(self):
        assert is_simis(MonomialIdeal.zero(3), 2).equal
        assert is_simis(MonomialIdeal.unit(3), 2).equal

    def test_principal_high_degree(self):
        assert is_simis(minimalize([(1, 1)], 2), 5).equal
        # one state per degree, on an explicit stack: no recursion depth in k
        assert is_simis(minimalize([(1, 1)], 2), 50_000).equal

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            is_simis(minimalize([(2, 0)], 2), 2)

    def test_candidate_cap(self):
        # complementary ideal of the 5-vertex path: 4 generators, and
        # 4 * C(43, 39) = 493,640 predicted candidates at k = 40
        path = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        with pytest.raises(ResourceLimitExceeded, match="493640 .* cap of 100000"):
            is_simis(complementary_edge_ideal(path), 40)
        # a principal ideal has one candidate per product, so k itself is capped
        with pytest.raises(ResourceLimitExceeded):
            is_simis(minimalize([(1, 1)], 2), 10**9)

    def test_symbolic_chain_cap(self):
        # 60 squarefree cubics on 14 variables: only 3,660 ordinary-side
        # candidates at k = 2, but 156 minimal primes to intersect
        data = json.loads((DATA / "simis_60_cubics_14_vars.json").read_text())
        I = MonomialIdeal.from_json_dict(data)
        with pytest.raises(ResourceLimitExceeded, match="156 minimal primes .* cap of 100000") as got:
            symbolic_power(I, 2)
        # the same predicted count, at the same prime, as the intersect chain
        with pytest.raises(ResourceLimitExceeded) as ref:
            reference_symbolic_power(I, 2)
        assert str(got.value) == str(ref.value)
        with pytest.raises(ResourceLimitExceeded):
            is_simis(I, 2)

    def test_search_cap_counts_state_visits(self, monkeypatch):
        # the C4 complement ideal is equal at k = 2; its search makes more
        # than 5 visits, and the message gives the count that crossed the cap
        I = complementary_edge_ideal(make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
        monkeypatch.setattr(monomials, "SIMIS_SEARCH_CAP", 5)
        with pytest.raises(ResourceLimitExceeded, match=r"made 6 state visits .* cap of 5$"):
            is_simis(I, 2)

    def test_matches_reference_on_every_small_clutter(self):
        for n in range(1, 5):
            for H in all_clutters_with_edges(n):
                I = edge_ideal(H)
                for k in (2, 3, 4):
                    assert is_simis(I, k) == reference_is_simis(I, k), (H, k)

    def test_matches_reference_on_six_vertex_classes(self):
        graphs = enumerate_graphs_upto_iso(6, require_edge=True)
        assert len(graphs) == 155
        for G in graphs:
            I = complementary_edge_ideal(G)
            for k in (2, 3):
                assert is_simis(I, k) == reference_is_simis(I, k), (G, k)

    def test_matches_reference_on_benchmark_pool(self):
        instances = [i for i in json.loads(POOL.read_text())["instances"] if i["kind"] == "simis"]
        assert len(instances) == 14
        for i in instances:
            if i["form"] == "graph":
                I = complementary_edge_ideal(make_graph(i["n"], i["edges"]))
            else:
                I = minimalize(i["gens"], i["n"])
            assert is_simis(I, i["k"]) == reference_is_simis(I, i["k"]), i

    def test_witness_is_lex_first_failure(self, rng):
        for _ in range(30):
            I = random_squarefree_ideal(rng, n_max=4, max_gens=4)
            for k in (2, 3):
                report = is_simis(I, k)
                P = power(I, k)
                S = symbolic_power(I, k)
                misses = [g for g in S.gens if not contains_monomial(P, g)]
                if report.equal:
                    assert not misses
                    assert P == S
                else:
                    assert report.witness == min(misses)


class TestJsonRoundtrip:
    def test_ideal_wire_format(self):
        I = star_complement_ideal()
        data = I.to_json_dict()
        assert data == {
            "n": 4,
            "gens": [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]],
        }
        assert MonomialIdeal.from_json_dict(data) == I

    def test_bad_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal.from_json_dict({"n": 3, "gens": [[1, 0]]})
