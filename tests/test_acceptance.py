"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line and enforcing its runtime budget."""

import time
from contextlib import contextmanager
from itertools import product

from clutterkit import (
    classify_graph,
    clutter_of_graph,
    complementary_edge_ideal,
    duality_gap_search,
    edge_ideal,
    enumerate_graphs_upto_iso,
    has_packing,
    incidence_matrix,
    is_simis,
    make_clutter,
    make_graph,
    minimal_primes,
    minimalize,
    power,
    symbolic_power,
)
from clutterkit.verify import verify_theorem
from oracles import (
    BASE_MATRICES,
    contains_monomial,
    extend,
    extend_matrix,
    intersect,
    prime_power_contains,
    random_clutter,
    random_squarefree_ideal,
)


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"took {elapsed:.2f}s, budget {budget_seconds:g}s"
            )
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(
        f"[criterion {number}] PASS ({elapsed:.2f}s < {budget_seconds:g}s): {description}"
    )


FOUR_VERTEX_GRAPHS = {
    "2K2": make_graph(4, [(1, 2), (3, 4)]),
    "P4": make_graph(4, [(1, 2), (2, 3), (3, 4)]),
    "K1_3": make_graph(4, [(1, 2), (1, 3), (1, 4)]),
    "C4": make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "diamond": make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
    "paw": make_graph(4, [(1, 2), (2, 3), (1, 3), (1, 4)]),
    "K4": make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
}

SIMIS_FOUR_VERTEX = {
    "2K2": True,
    "P4": True,
    "C4": True,
    "K1_3": False,
    "paw": False,
    "diamond": False,
    "K4": False,
}

# lex-first failing generators (tie-break); at k=2 they equal the literal
# witnesses (x2x3)x4 resp. (x2x4)x3, at k=3 the lex rule picks the
# symmetric representative (x3x4)^2 x2 of the same family
EXPECTED_WITNESSES = {
    ("K1_3", 2): (0, 1, 1, 1),
    ("K1_3", 3): (0, 1, 2, 2),
    ("paw", 2): (0, 1, 1, 1),
    ("paw", 3): (0, 1, 2, 2),
}

# the witness family members quoted for these graphs, (x2x3)^(k-1)x4 and
# (x2x4)^(k-1)x3, as exponent vectors per k
LITERAL_WITNESSES = {
    ("K1_3", 2): (0, 1, 1, 1),
    ("K1_3", 3): (0, 2, 2, 1),
    ("paw", 2): (0, 1, 1, 1),
    ("paw", 3): (0, 2, 1, 2),
}


def test_criterion_1_four_vertex_golden_suite():
    with criterion(1, 1.0, "four-vertex classification with pinned witnesses"):
        for name, G in FOUR_VERTEX_GRAPHS.items():
            I = complementary_edge_ideal(G)
            for k in (2, 3):
                report = is_simis(I, k)
                assert report.equal == SIMIS_FOUR_VERTEX[name], (name, k)
                if (name, k) in EXPECTED_WITNESSES:
                    assert report.witness == EXPECTED_WITNESSES[(name, k)], (name, k)
                    literal = LITERAL_WITNESSES[(name, k)]
                    primes = minimal_primes(I)
                    assert all(prime_power_contains(A, k, literal) for A in primes)
                    assert not contains_monomial(power(I, k), literal)


def test_criterion_2_decomposition_soundness():
    with criterion(2, 30.0, "combinatorial decomposition intersects to the ideal, n <= 6"):
        checked = 0
        for n in (3, 4, 5, 6):
            for G in enumerate_graphs_upto_iso(n, require_edge=True):
                from clutterkit import primary_decomposition_cx

                primes = primary_decomposition_cx(G)
                rebuilt = None
                for A in primes:
                    gens = [
                        tuple(1 if v == w else 0 for v in range(1, n + 1))
                        for w in sorted(A)
                    ]
                    P = minimalize(gens, n)
                    rebuilt = P if rebuilt is None else intersect(rebuilt, P)
                assert rebuilt == complementary_edge_ideal(G), G
                checked += 1
        assert checked == 3 + 10 + 33 + 155


def test_criterion_3_exhaustive_equivalence():
    with criterion(3, 300.0, "per-class agreement of all characterizations, n in 3..6"):
        for n in (3, 4, 5, 6):
            report = verify_theorem(n, k_list=(2, 3), box=2)
            assert report.consistent, n
            for row in report.rows:
                assert row.simis[2] == row.simis[3], row
        assert verify_theorem(4).satisfying == 6
        assert len(verify_theorem(4).rows) == 10
        assert verify_theorem(5).satisfying == 6


def test_criterion_4_packing_preserved_by_universal_vertices(rng):
    with criterion(4, 60.0, "packing invariant under universal-vertex extension"):
        for _ in range(200):
            H = random_clutter(rng, n_max=5, allow_edgeless=True)
            r = rng.choice((1, 2))
            assert has_packing(H).packs == has_packing(extend(H, r)).packs, H


def simis_equal_for_graph(G, k):
    # graphs on <= 2 vertices: the single-edge clutter family, trivially equal
    if G.n <= 2:
        return True
    return is_simis(complementary_edge_ideal(G), k).equal


def test_criterion_5_isolated_vertex_reduction():
    with criterion(5, 60.0, "symbolic-power equality preserved under isolated-vertex removal"):
        checked = 0
        for n in (2, 3, 4, 5):
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
                    ), (G, k)
                checked += 1
        # classes with an isolated vertex on n vertices = all classes on n-1
        assert checked == 1 + 2 + 4 + 11


def test_criterion_6_pentagon_counterexample():
    with criterion(6, 1.0, "five-cycle: symbolic equality at k=2 without packing"):
        pentagon_edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
        I = edge_ideal(make_clutter(5, pentagon_edges))
        assert is_simis(I, 2).equal
        assert not has_packing(make_clutter(5, pentagon_edges)).packs


def test_criterion_7_lp_duality_suite():
    with criterion(7, 120.0, "gap-free references, triangle gap witness, structural agreement"):
        for _, base in BASE_MATRICES:
            for r in (0, 1, 2):
                assert duality_gap_search(extend_matrix(base, r), 2) is None
        triangle = incidence_matrix(
            clutter_of_graph(make_graph(4, [(1, 2), (1, 3), (1, 4)]))
        )
        hit = duality_gap_search(triangle, 1)
        assert hit is not None and hit[1].gap >= 1
        from clutterkit import structural_mfmc_check

        for n in (3, 4, 5, 6):
            for G in enumerate_graphs_upto_iso(n, require_edge=True):
                M = incidence_matrix(clutter_of_graph(G))
                expected = classify_graph(G).label != "OTHER"
                assert structural_mfmc_check(M) == expected, G


def test_criterion_8_symbolic_membership_oracle(rng):
    with criterion(8, 120.0, "symbolic-power membership matches the prime criterion"):
        def monomials_up_to(n, bound):
            for m in product(range(bound + 1), repeat=n):
                if sum(m) <= bound:
                    yield m

        for _ in range(100):
            I = random_squarefree_ideal(rng, n_max=5, max_gens=5)
            if I.is_unit:
                continue
            primes = minimal_primes(I)
            for k in (2, 3):
                S = symbolic_power(I, k)
                for m in monomials_up_to(I.n, 3 * k):
                    expected = all(prime_power_contains(A, k, m) for A in primes)
                    assert contains_monomial(S, m) == expected, (I, k, m)


def test_criterion_9_exhaustive_equivalence_at_seven_vertices():
    with criterion(9, 30.0, "per-class agreement of all characterizations, n = 7"):
        report = verify_theorem(7, k_list=(2, 3), box=2)
        assert report.consistent
        assert len(report.rows) == 1043
        assert (report.satisfying, report.failing) == (6, 1037)
        for row in report.rows:
            assert row.simis[2] == row.simis[3], row
