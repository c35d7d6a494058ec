"""Monomial ideal arithmetic: pinned golden values plus brute-force properties."""

import dataclasses
import json
import pickle
import re
import time
from pathlib import Path

import pytest

from clutterkit import monomials
from clutterkit import (
    DimensionMismatch,
    IncidenceMatrix,
    MonomialIdeal,
    ResourceLimitExceeded,
    edge_ideal,
    enumerate_graphs_upto_iso,
    is_simis,
    make_graph,
    complementary_edge_ideal,
    minimal_primes,
    minimalize,
    multiply,
    power,
    symbolic_power,
)
from oracles import (
    all_clutters_with_edges,
    brute_minimalize,
    brute_psi,
    contains_monomial,
    intersect,
    iter_monomials,
    prime_power_contains,
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

    @pytest.mark.parametrize("gens, n", [
        ([(1.5, 0)], 2),
        ([(True, False)], 2),
        ([], -1),
        ([], True),
        ([(1, 0), (2.5, 0)], 2),
    ], ids=["float-exponent", "bool-exponents", "negative-n", "bool-n",
            "dominated-float-exponent"])
    def test_ill_typed_input_rejected(self, gens, n):
        with pytest.raises(ValueError):
            minimalize(gens, n)

    def test_wrong_length_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"\(1, 0, 0\) has length 3, expected 2"):
            minimalize([(1, 0, 0)], 2)
        # (1, 0) divides the long vector on the first two places: checked anyway
        with pytest.raises(DimensionMismatch):
            minimalize([(1, 0), (1, 1, 0)], 2)

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


class TestIdealInvariants:
    """A MonomialIdeal checks its own rules, so one built directly is checked too."""

    @pytest.mark.parametrize("n, gens", [
        (2, ((1, 0), (0, 1))),
        (2, ((0, 1), (0, 1))),
        (2, ((True, 0),)),
        (2, ((1.0, 0),)),
        (2, ((-1, 0),)),
        (2, ([0, 1],)),
        (-1, ()),
        (True, ()),
    ], ids=["not-lex-sorted", "repeat", "bool-exponent", "float-exponent",
            "negative-exponent", "list-generator", "negative-n", "bool-n"])
    def test_direct_construction_is_checked(self, n, gens):
        with pytest.raises(ValueError):
            MonomialIdeal(n, gens)

    def test_wrong_length_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal(2, ((1,),))


class TestMultiplyPower:
    def test_principal_times_principal(self):
        I = minimalize([(1, 0)], 2)
        J = minimalize([(0, 1)], 2)
        assert multiply(I, J).gens == ((1, 1),)

    def test_unit_is_identity(self):
        I = star_complement_ideal()
        assert multiply(I, MonomialIdeal.unit(4)) == I

    def test_different_variable_counts_rejected(self):
        with pytest.raises(DimensionMismatch, match="^ideals live in 2 and 3 variables$"):
            multiply(minimalize([(1, 0)], 2), minimalize([(0, 0, 1)], 3))

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
        # the packed deficit-rule chain against the generic intersect chain,
        # on every clutter with n <= 4, at degrees on both sides of each
        # change of the field width w = k.bit_length() + 1 (k = 2, 4, 8)
        count = 0
        for n in range(1, 5):
            for H in all_clutters_with_edges(n):
                I = edge_ideal(H)
                for k in (1, 2, 3, 4, 7, 8):
                    got = symbolic_power(I, k)
                    assert got == reference_symbolic_power(I, k), (H, k)
                    # the premise of the field width: no exponent above k
                    assert max(max(g) for g in got.gens) <= k, (H, k)
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
        # complementary ideal of the 5-vertex path: I^k is never built, so
        # its size does not bound k
        I = complementary_edge_ideal(make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
        assert is_simis(I, 27) == monomials.SimisReport(27, False, (1, 1, 26, 26, 26))
        assert is_simis(I, 40) == monomials.SimisReport(40, False, (1, 1, 39, 39, 39))
        # nor is I^(k) built past its witness, so k = 400 answers too
        assert is_simis(I, 400) == monomials.SimisReport(400, False, (1, 1, 399, 399, 399))
        # while the whole of I^(400) is refused: at the fifth prime, {2, 5},
        # the chain meets 80,601 generators whose candidates are charged 10
        # steps each before one is built, which takes the count past the cap
        with pytest.raises(
            ResourceLimitExceeded,
            match="over 6 minimal primes at k = 400 counted 121681015 steps .* cap of 20000000$",
        ):
            symbolic_power(I, 400)
        # a principal ideal has one generator at every prime, whatever k is:
        # the packed exponent holds k itself, and nothing of size k is built
        principal = minimalize([(1, 1)], 2)
        assert is_simis(principal, 10**9) == monomials.SimisReport(10**9, True)
        assert symbolic_power(principal, 100_001).gens == ((100_001, 100_001),)

    @pytest.mark.parametrize("edges, k, witness", [
        ([(1, 2), (2, 3), (3, 4), (4, 5)], 400, (1, 1, 399, 399, 399)),
        ([(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5)], 45,
         (0, 1, 44, 45, 44, 44)),
    ])
    def test_high_degree_witnesses_check_independently(self, edges, k, witness):
        # the two witnesses whose symbolic powers the chain refuses to build:
        # each lies in P_A^k for every minimal prime A, and k generators of I
        # never pack under it (psi by box enumeration)
        I = complementary_edge_ideal(make_graph(len(witness), edges))
        assert is_simis(I, k) == monomials.SimisReport(k, False, witness)
        assert all(prime_power_contains(A, k, witness) for A in minimal_primes(I))
        assert brute_psi(IncidenceMatrix.from_rows(I.gens, I.n), witness)[0] == k - 1

    def test_symbolic_chain_cap(self):
        # 60 squarefree cubics on 14 variables, 156 minimal primes: the chain
        # answers at k = 2 after 811,726 steps, where the intersect chain
        # would test 105,156 generator pairs, over the reference's own cap
        data = json.loads((DATA / "simis_60_cubics_14_vars.json").read_text())
        I = MonomialIdeal.from_json_dict(data)
        report = is_simis(I, 2)
        assert report == monomials.SimisReport(2, False, (0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1))
        assert report == reference_is_simis(I, 2)
        with pytest.raises(ResourceLimitExceeded, match="156 minimal primes .* cap of 100000$"):
            reference_symbolic_power(I, 2)
        # a 6-vertex graph ideal at k = 45: the third prime, {3, 6}, keeps
        # candidates that each face a long bucket, and the divisibility tests
        # take the count past the cap in about 1 s
        G = make_graph(6, [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5)])
        with pytest.raises(
            ResourceLimitExceeded,
            match="over 10 minimal primes at k = 45 counted 20041943 steps .* cap of 20000000$",
        ):
            symbolic_power(complementary_edge_ideal(G), 45)

    def test_generator_search_cap_counts_its_steps(self, monkeypatch):
        # (x1x2, x1x3) is equal at every k, so is_simis walks all of I^(k),
        # x1^k x2^a x3^(k-a) for a = 0, 1, ...: the search reads and updates
        # prime sums 7 times up to the first generator and 6 more up to each
        # next one, so a cap of 20 lets three through and the count passes it
        # at the node that would give the fourth
        I = minimalize([(1, 1, 0), (1, 0, 1)], 3)
        monkeypatch.setattr(monomials, "SYMBOLIC_STEP_CAP", 20)
        with pytest.raises(
            ResourceLimitExceeded,
            match=r"^the symbolic-generator search over 2 minimal primes at k = 1000 counted "
                  r"23 steps \(reads and updates of a prime's sum\), above the cap of 20$",
        ):
            is_simis(I, 1000)

    def test_search_cap_counts_row_visits(self, monkeypatch):
        # the C4 complement ideal is equal at k = 2, and each of its nine
        # symbolic generators packs after 7 row visits: the searches of one
        # call share the cap, so the second passes 10, and the message gives
        # the count that crossed it
        I = complementary_edge_ideal(make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
        monkeypatch.setattr(monomials, "PACKING_VISIT_CAP", 10)
        with pytest.raises(ResourceLimitExceeded, match=r"made 11 row visits .* cap of 10$"):
            is_simis(I, 2)

    def test_two_generators_sharing_a_variable_at_large_k(self):
        # (x1x2, x1x3) is equal at every k: each of the 1,001 symbolic
        # generators x1^k x2^a x3^(k-a) packs at once, as the first row
        # meets only the last and takes only its cap
        I = minimalize([(1, 1, 0), (1, 0, 1)], 3)
        assert is_simis(I, 1000) == monomials.SimisReport(1000, True)

    @staticmethod
    def check_one_object(I, ks, reference_ks):
        """Ask is_simis of one object at each k in ks, in turn: with what it
        keeps on the object, every report must equal a fresh equal object's,
        and the reference's at each k in reference_ks."""
        shared = [is_simis(I, k) for k in ks]
        fresh = {k: is_simis(MonomialIdeal(I.n, I.gens), k) for k in ks}
        assert shared == [fresh[k] for k in ks]
        for k in reference_ks:
            assert fresh[k] == reference_is_simis(I, k), k

    def test_matches_reference_on_every_small_clutter(self):
        # at n = 5 the reference runs at k = 2, 3 only: at k = 5 it takes 10 s
        for n in range(1, 6):
            if n < 5:
                ks, reference_ks = (2, 3, 5, 1, 2, 4), (1, 2, 3, 4, 5)
            else:
                ks, reference_ks = (2, 3, 5, 1, 2), (2, 3)
            for H in all_clutters_with_edges(n):
                self.check_one_object(edge_ideal(H), ks, reference_ks)

    def test_matches_reference_on_six_vertex_classes(self):
        graphs = enumerate_graphs_upto_iso(6, require_edge=True)
        assert len(graphs) == 155
        for G in graphs:
            self.check_one_object(complementary_edge_ideal(G), (2, 3, 5, 1, 2, 4), (1, 2, 3, 4, 5))

    @pytest.mark.parametrize("edges, k, message", [
        # equal at every k, so all of I^(k) is walked: the C4 complement
        # passes the packing search's cap, the 2K2 complement the
        # generator search's
        ([(1, 2), (2, 3), (3, 4), (1, 4)], 2000,
         "packing search made 2000001 row visits (a count, not a prediction), above the cap "
         "of 2000000"),
        ([(1, 4), (2, 3)], 1000,
         "the symbolic-generator search over 4 minimal primes at k = 1000 counted 20000009 "
         "steps (reads and updates of a prime's sum), above the cap of 20000000"),
    ], ids=["packing-cap", "search-cap"])
    def test_caps_count_per_call_on_one_object(self, edges, k, message):
        # the second call on the object counts from zero again, and a later
        # one at a small k answers as on a fresh object
        I = complementary_edge_ideal(make_graph(4, edges))
        for _ in range(2):
            with pytest.raises(ResourceLimitExceeded, match=f"^{re.escape(message)}$"):
                is_simis(I, k)
        for small in (2, 3):
            assert is_simis(I, small) == is_simis(MonomialIdeal(I.n, I.gens), small)

    def test_nothing_is_kept_before_the_checks_pass(self):
        for I in (MonomialIdeal.zero(3), MonomialIdeal.unit(3)):
            assert is_simis(I, 2) == monomials.SimisReport(2, True)
            for refused in (minimal_primes, lambda I: symbolic_power(I, 2)):
                with pytest.raises(ValueError, match="nonzero proper ideal"):
                    refused(I)
            assert "_prime_parts" not in vars(I)
        I = minimalize([(2, 0), (0, 1)], 2)
        for refused in (lambda I: is_simis(I, 2), minimal_primes, lambda I: symbolic_power(I, 2)):
            with pytest.raises(ValueError, match="squarefree"):
                refused(I)
        assert "_prime_parts" not in vars(I)
        I = star_complement_ideal()
        for refused in (is_simis, symbolic_power):
            with pytest.raises(ValueError, match="k >= 1"):
                refused(I, 0)
        assert "_prime_parts" not in vars(I)
        # a failed build keeps nothing, and the next call fails the same way
        I = minimalize([(1,) * 21], 21)
        for refused in (lambda I: is_simis(I, 2), minimal_primes, lambda I: symbolic_power(I, 2)):
            for _ in range(2):
                with pytest.raises(ResourceLimitExceeded, match="cap of 20 vertices"):
                    refused(I)
        assert "_prime_parts" not in vars(I)

    def test_cover_cap_refuses_before_a_generator_mask_is_built(self):
        # about 0.04 s each; a mask built first costs time quadratic in n
        # (over 5 s for this one generator), so the bound keeps 25x headroom
        I = complementary_edge_ideal(make_graph(1_000_000, [(1, 2)]))
        for refused in (lambda I: is_simis(I, 2), minimal_primes, lambda I: symbolic_power(I, 2)):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitExceeded, match="cap of 20 vertices"):
                refused(I)
            assert time.perf_counter() - start < 1

    def test_one_walk_of_the_minimal_primes_per_object(self, monkeypatch):
        walks = []
        walk = monomials.minimal_cover_masks

        def counted(edge_masks, n):
            walks.append(n)
            return walk(edge_masks, n)

        monkeypatch.setattr(monomials, "minimal_cover_masks", counted)
        I = paw_complement_ideal()
        primes = minimal_primes(I)
        assert symbolic_power(I, 2) == reference_symbolic_power(I, 2)
        assert symbolic_power(I, 3) == reference_symbolic_power(I, 3)
        assert is_simis(I, 2) == monomials.SimisReport(2, False, (0, 1, 1, 1))
        assert minimal_primes(I) == primes
        assert walks == [4]

    def test_kept_parts_leave_the_ideal_a_plain_value(self):
        I = paw_complement_ideal()

        def observed():
            copy = pickle.loads(pickle.dumps(I))
            return (
                I == paw_complement_ideal(), hash(I), repr(I), I.to_json_dict(),
                dataclasses.fields(I), dataclasses.replace(I), pickle.dumps(I),
                copy, sorted(vars(copy)), sorted(vars(dataclasses.replace(I))),
            )

        before = observed()
        assert is_simis(I, 2) == monomials.SimisReport(2, False, (0, 1, 1, 1))
        assert "_prime_parts" in vars(I)
        assert observed() == before
        assert before[-1] == before[-2] == ["gens", "n"]

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


class TestSymbolicGenerators:
    """is_simis walks I^(k) by a search of its own; the chain builds it whole."""

    @staticmethod
    def check(I, ks):
        index, _ = I._prime_parts
        for k in ks:
            stream = list(monomials._symbolic_generators(k, index))
            assert stream == list(monomials._symbolic_power(I, k, index.holds).gens), k

    def test_stream_is_the_chain_on_every_clutter_up_to_five_vertices(self):
        count = 0
        for n in range(1, 6):
            for H in all_clutters_with_edges(n):
                self.check(edge_ideal(H), (1, 2, 3))
                count += 1
        assert count == 7768

    def test_stream_is_the_chain_on_six_vertex_classes(self):
        for G in enumerate_graphs_upto_iso(6, require_edge=True):
            self.check(complementary_edge_ideal(G), (2, 3, 4, 5))


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
