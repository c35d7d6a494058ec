"""Covering/packing programs, gap scans, and the structural no-gap test."""

import hashlib
import json
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from clutterkit import (
    DimensionMismatch,
    IncidenceMatrix,
    ResourceLimitExceeded,
    clutter_of_graph,
    classify_graph,
    duality_gap_search,
    enumerate_graphs_upto_iso,
    incidence_matrix,
    make_clutter,
    phi,
    psi,
    solve_lp,
    structural_mfmc_check,
)
from oracles import (
    BASE_MATRICES,
    all_clutters_with_edges,
    brute_phi,
    brute_psi,
    extend,
    extend_matrix,
    random_clutter,
    reference_gap_scan,
    reference_phi,
    reference_structural_mfmc_check,
)

DATA = Path(__file__).parent / "data"

# sha256 of the JSON list of [alpha, report] (or null) per n = 7 class, box 2
WITNESS_N7_SHA256 = "b243afc1484e7d9021e6fe04eb7358808dcc1abc7b069cd8d7a848259a122909"

# Seeded random nonzero 0/1 rows (random.Random(1) and (2), one
# random.choice("01") per entry), generated once.
TALL_FIXTURES = ("tall_1200_rows_8_columns.txt", "tall_600_rows_12_columns.txt")


def dense_fixture(name):
    rows = [tuple(map(int, line)) for line in (DATA / name).read_text().split()]
    return IncidenceMatrix.from_rows(rows, len(rows[0]))


def triangle_matrix():
    # incidence matrix of the triangle on {2,3,4} inside 4 vertices
    return IncidenceMatrix.from_rows(
        [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)], 4
    )


def identity3():
    return IncidenceMatrix.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


def graph_matrix(n, edges):
    # (n-2)-uniform clutter matrix of a graph on columns 0..n-1: one row per
    # edge, zero at the edge's two ends
    return IncidenceMatrix.from_rows(
        [tuple(int(j not in edge) for j in range(n)) for edge in edges], n
    )


# (rows, alpha) with repeated rows; in the last two the first row meets two
# later rows and must step down from its cap to 1
REPEATED_ROWS = (
    ([[1], [1]], (5,)),
    ([[1], [1], [1]], (4,)),
    ([[1, 0], [1, 0], [0, 1]], (3, 2)),
    ([[1, 1], [1, 1], [1, 0], [0, 1]], (2, 3)),
    ([[1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 1, 1]], (2, 3, 1)),
    ([[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 1, 1]], (2, 2, 2)),
    ([[1, 1, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], (3, 3, 2)),
)


def base(name):
    return dict(BASE_MATRICES)[name]


class TestExtendMatrix:
    def test_empty_matrix(self):
        got = extend_matrix(IncidenceMatrix.from_rows([], 2), 3)
        assert (got.rows, got.cols) == (0, 5)

    def test_ones_columns_appended(self):
        got = extend_matrix(base("2K2"), 1)
        assert got.data == ((1, 1, 0, 0, 1), (0, 0, 1, 1, 1))

    def test_zero_extension_identity(self):
        M = triangle_matrix()
        assert extend_matrix(M, 0) is M

    def test_commutes_with_clutter_extension(self, rng):
        for _ in range(25):
            H = random_clutter(rng)
            r = rng.randint(0, 2)
            assert incidence_matrix(extend(H, r)) == extend_matrix(
                incidence_matrix(H), r
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            extend_matrix(identity3(), -1)


class TestPhi:
    def test_no_constraints(self):
        value, x = phi(IncidenceMatrix.from_rows([], 3), (5, 5, 5))
        assert (value, x) == (0, (0, 0, 0))

    def test_identity_all_ones(self):
        value, x = phi(identity3(), (1, 1, 1))
        assert value == 3 and x == (1, 1, 1)

    def test_triangle(self):
        value, x = phi(triangle_matrix(), (1, 1, 1, 1))
        assert value == 2
        assert all(
            sum(r * v for r, v in zip(row, x)) >= 1 for row in triangle_matrix().data
        )

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            phi(IncidenceMatrix.from_rows([(0, 0)], 2), (1, 1))

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            phi(identity3(), (1, 1))

    def test_column_cap(self):
        M = IncidenceMatrix.from_rows([(1,) * 21], 21)
        with pytest.raises(ResourceLimitExceeded, match="^covering brute force capped at 20 columns$"):
            phi(M, (1,) * 21)

    @pytest.mark.parametrize("n, box", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1)])
    def test_matches_reference_phi(self, n, box):
        # value and tie-broken vector, at every objective of the box
        for H in all_clutters_with_edges(n):
            M = incidence_matrix(H)
            for alpha in product(range(box + 1), repeat=n):
                assert phi(M, alpha) == reference_phi(M, alpha), (M, alpha)

    def test_binary_restriction_is_lossless(self, rng):
        # brute force over the wider box {0,1,2}^n never beats {0,1}^n
        for _ in range(30):
            H = random_clutter(rng, n_max=4)
            M = incidence_matrix(H)
            alpha = tuple(rng.randint(0, 3) for _ in range(M.cols))
            assert phi(M, alpha)[0] == brute_phi(M, alpha, cap=2)


class TestPsi:
    def test_zero_objective(self):
        value, y = psi(triangle_matrix(), (0, 0, 0, 0))
        assert (value, y) == (0, (0, 0, 0))

    def test_identity_all_ones(self):
        value, y = psi(identity3(), (1, 1, 1))
        assert value == 3 and y == (1, 1, 1)

    def test_triangle(self):
        assert psi(triangle_matrix(), (1, 1, 1, 1))[0] == 1

    def test_feasibility_and_brute_agreement(self, rng):
        cases = []
        for _ in range(30):
            M = incidence_matrix(random_clutter(rng, n_max=4))
            cases.append((M, tuple(rng.randint(0, 2) for _ in range(M.cols))))
        # matrices that are no clutter: with rows repeated, a row may meet
        # just one later row (it then takes only its cap) or several
        for rows, alpha in REPEATED_ROWS:
            cases.append((IncidenceMatrix.from_rows(rows, len(alpha)), alpha))
        for M, alpha in cases:
            value, y = psi(M, alpha)
            assert (value, y) == brute_psi(M, alpha), (M, alpha)
            for j in range(M.cols):
                assert sum(y[i] * M.data[i][j] for i in range(M.rows)) <= alpha[j]

    def test_weak_duality(self, rng):
        for _ in range(40):
            H = random_clutter(rng, n_max=4)
            M = incidence_matrix(H)
            alpha = tuple(rng.randint(0, 3) for _ in range(M.cols))
            report = solve_lp(M, alpha)
            assert report.gap >= 0

    def test_node_cap(self):
        # every pair of 7 columns answers (86,998 row visits); every pair of
        # 9, from the fixture, passes the cap of 2,000,000 row visits and is
        # refused
        pairs7 = [[int(j in p) for j in range(7)] for p in combinations(range(7), 2)]
        assert psi(IncidenceMatrix.from_rows(pairs7, 7), (2,) * 7)[0] == 7
        pairs9 = dense_fixture("all_pairs_of_9_columns.txt")
        with pytest.raises(ResourceLimitExceeded, match="2000004 row visits .* cap of 2000000"):
            psi(pairs9, (2,) * 9)

    def test_large_objective_entry_on_one_row(self):
        # the last row takes only its cap, so one row answers in two row
        # visits however large its objective entry
        M = IncidenceMatrix.from_rows([[1]], 1)
        assert psi(M, (3_000_000,)) == (3_000_000, (3_000_000,))

    def test_large_objective_entry_on_two_equal_rows(self):
        # the first row meets only the last, so it takes only its cap too:
        # four row visits, where stepping it down one by one would pass the cap
        M = IncidenceMatrix.from_rows([[1], [1]], 1)
        assert psi(M, (3_000_000,)) == (3_000_000, (3_000_000, 0))

    @pytest.mark.parametrize("name", TALL_FIXTURES)
    def test_tall_matrix_refused(self, name):
        # a node reads the cap of every row left: counting row visits refuses
        # a tall matrix within the cap's time, and the search keeps no
        # Python stack frame per row
        M = dense_fixture(name)
        with pytest.raises(ResourceLimitExceeded, match="row visits"):
            psi(M, (1,) * M.cols)


class TestMonotonicity:
    def test_phi_psi_nondecreasing_in_alpha(self):
        M = triangle_matrix()
        for alpha in product(range(2), repeat=4):
            for j in range(4):
                bumped = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
                assert phi(M, bumped)[0] >= phi(M, alpha)[0]
                assert psi(M, bumped)[0] >= psi(M, alpha)[0]


class TestDualityGapSearch:
    def test_two_disjoint_edges_clean(self):
        assert duality_gap_search(base("2K2"), 3) is None

    def test_triangle_witness(self):
        hit = duality_gap_search(triangle_matrix(), 1)
        assert hit is not None
        alpha, report = hit
        assert alpha == (0, 1, 1, 1)
        assert (report.phi, report.psi, report.gap) == (2, 1, 1)

    def test_extended_path_clean(self):
        assert duality_gap_search(extend_matrix(base("P4"), 2), 2) is None

    def test_empty_matrix_clean(self):
        assert duality_gap_search(IncidenceMatrix.from_rows([], 2), 2) is None

    def test_box_validation(self):
        with pytest.raises(ValueError):
            duality_gap_search(triangle_matrix(), 0)

    def test_state_cap(self):
        # 201^4 psi values plus 3 * 2^2 row table entries are far above the
        # cap: refused before any work
        with pytest.raises(
            ResourceLimitExceeded,
            match=r"scan over 1632240801 objectives \(1632240813 table entries\) "
            r"exceeds the state cap of 5000000",
        ):
            duality_gap_search(triangle_matrix(), 200)

    def test_state_cap_counts_the_row_table(self):
        # every pair of 18 columns at box 1: 2^18 psi values, but the row
        # table holds 153 * 2^16 entries, so it is refused up front
        pairs = [[int(j in p) for j in range(18)] for p in combinations(range(18), 2)]
        with pytest.raises(ResourceLimitExceeded, match="10289152 table entries"):
            duality_gap_search(IncidenceMatrix.from_rows(pairs, 18), 1)
        # one full row of 12 columns at box 2: 3^12 + 1 entries are admitted
        assert duality_gap_search(IncidenceMatrix.from_rows([(1,) * 12], 12), 2) is None

    def test_witnesses_of_every_seven_vertex_class(self):
        # the lex-first witness (or None) of every (n-2)-uniform class at
        # n = 7, box 2, hashed; the digest was taken from the scan that
        # tested every row against every objective
        hits = []
        for G in enumerate_graphs_upto_iso(7, require_edge=True):
            hit = duality_gap_search(incidence_matrix(clutter_of_graph(G)), 2)
            hits.append(None if hit is None else [list(hit[0]), hit[1].to_json_dict()])
        assert sum(hit is not None for hit in hits) == 1037
        assert hashlib.sha256(json.dumps(hits).encode()).hexdigest() == WITNESS_N7_SHA256

    def test_scan_agrees_with_standalone_solvers(self, rng):
        # re-solve every objective of a small scan along the slow route
        for _ in range(12):
            H = random_clutter(rng, n_max=4)
            M = incidence_matrix(H)
            witnesses = []
            for alpha in product(range(2), repeat=M.cols):
                report = solve_lp(M, alpha)
                if report.gap > 0:
                    witnesses.append((alpha, report.gap))
            hit = duality_gap_search(M, 1)
            if witnesses:
                assert hit is not None
                assert hit[0] == witnesses[0][0]
                assert hit[1].gap == witnesses[0][1]
            else:
                assert hit is None


class TestReferenceGapScan:
    """The one-pass scan returns what the full-table scan returns."""

    @pytest.mark.parametrize("n, box", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1)])
    def test_every_clutter(self, n, box):
        for H in all_clutters_with_edges(n):
            M = incidence_matrix(H)
            assert duality_gap_search(M, box) == reference_gap_scan(M, box)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_uniform_class(self, n):
        # the (n-2)-uniform clutters, one per graph class
        for G in enumerate_graphs_upto_iso(n, require_edge=True):
            M = incidence_matrix(clutter_of_graph(G))
            assert duality_gap_search(M, 2) == reference_gap_scan(M, 2)

    @pytest.mark.parametrize("box", [1, 2])
    def test_sparse_rows(self, box):
        # rows of support 1 or 2 on up to 8 columns: 2^(n-1) or 2^(n-2)
        # row table entries per row, the table's largest share
        rng = Random(24 + box)
        for _ in range(25):
            n = rng.randint(2, 8)
            rows = [
                [int(j in support) for j in range(n)]
                for support in (
                    rng.sample(range(n), rng.randint(1, 2))
                    for _ in range(rng.randint(1, 10))
                )
            ]
            M = IncidenceMatrix.from_rows(rows, n)
            assert duality_gap_search(M, box) == reference_gap_scan(M, box), M


class TestStructuralCheck:
    def test_identity_passes(self):
        assert structural_mfmc_check(identity3())

    def test_triangle_fails(self):
        assert not structural_mfmc_check(triangle_matrix())

    def test_extended_square_cycle_passes(self):
        assert structural_mfmc_check(extend_matrix(base("C4"), 2))

    def test_single_edge_base_passes(self):
        assert structural_mfmc_check(IncidenceMatrix.from_rows([(0, 0, 1)], 3))
        assert structural_mfmc_check(IncidenceMatrix.from_rows([(0, 1, 0, 1)], 4))

    def test_edgeless_on_two_passes(self):
        assert structural_mfmc_check(IncidenceMatrix.from_rows([], 2))
        # the 0 x 2 base extends to wider 0-row matrices, never narrower ones
        for cols, expected in ((0, False), (1, False), (2, True), (3, True)):
            M = IncidenceMatrix.from_rows([], cols)
            assert structural_mfmc_check(M) is expected
            assert reference_structural_mfmc_check(M) is expected

    def test_row_sum_hypothesis_enforced(self):
        bad = IncidenceMatrix.from_rows(
            [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 0)], 4
        )
        with pytest.raises(ValueError):
            structural_mfmc_check(bad)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            structural_mfmc_check(
                IncidenceMatrix.from_rows([(0, 0, 1), (0, 0, 1)], 3)
            )

    def test_column_cap(self):
        # past the 8-column cap of the reference's canonical form: P4 plus 5
        # isolated vertices (9 columns), 2K2 plus 36 (40) and 3K2 plus 34 (40)
        p4 = incidence_matrix(
            make_clutter(9, [tuple(v for v in range(1, 10) if v not in (a, a + 1))
                             for a in range(1, 4)])
        )
        for M, expected in (
            (p4, True),
            (graph_matrix(40, [(0, 1), (2, 3)]), True),
            (graph_matrix(40, [(0, 1), (2, 3), (4, 5)]), False),
        ):
            assert structural_mfmc_check(M) is expected
            with pytest.raises(ResourceLimitExceeded):
                reference_structural_mfmc_check(M)

    def test_no_base_with_the_row_count_answers_without_the_cap(self):
        # 9 columns are over the reference's cap; 5 rows never pass
        M = incidence_matrix(
            make_clutter(9, [tuple(v for v in range(1, 10) if v not in (a, a + 1))
                             for a in range(1, 6)])
        )
        assert M.rows == 5
        assert structural_mfmc_check(M) is False
        with pytest.raises(ResourceLimitExceeded):
            reference_structural_mfmc_check(M)

    def test_boundary_graphs_with_isolated_vertices_fail(self):
        # just past the degree rule: a degree of 3, a triangle with a
        # pendant edge, and 5 or 6 touched columns
        for n, edges in (
            (6, [(0, 1), (0, 2), (0, 3)]),  # the star K1,3
            (6, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # the paw
            (7, [(0, 1), (1, 2), (3, 4)]),  # P3+K2
            (8, [(0, 1), (2, 3), (4, 5)]),  # 3K2
        ):
            M = graph_matrix(n, edges)
            assert structural_mfmc_check(M) is False
            assert reference_structural_mfmc_check(M) is False

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_reference_on_every_labeled_matrix(self, n, rng):
        # every graph on n labeled columns, rows in a shuffled order
        pairs = list(combinations(range(n), 2))
        for chosen in product((False, True), repeat=len(pairs)):
            edges = [pair for pair, keep in zip(pairs, chosen) if keep]
            rng.shuffle(edges)
            M = graph_matrix(n, edges)
            assert structural_mfmc_check(M) == reference_structural_mfmc_check(M), edges

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_reference_on_every_uniform_class(self, n):
        for G in enumerate_graphs_upto_iso(n, require_edge=True):
            M = incidence_matrix(clutter_of_graph(G))
            assert structural_mfmc_check(M) == reference_structural_mfmc_check(M), G

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_ones_columns_keep_the_answer(self, n):
        for G in enumerate_graphs_upto_iso(n, require_edge=True):
            M = incidence_matrix(clutter_of_graph(G))
            expected = structural_mfmc_check(M)
            for r in range(1, 5):
                assert structural_mfmc_check(extend_matrix(M, r)) == expected, (G, r)

    def test_bases_match_their_reference_clutters(self):
        from clutterkit import REFERENCE_GRAPHS

        for label in ("K3", "P3", "2K2", "P4", "C4"):
            M = incidence_matrix(clutter_of_graph(REFERENCE_GRAPHS[label]))
            assert structural_mfmc_check(M)

    def test_agreement_with_classification_small(self):
        for n in (3, 4, 5):
            for G in enumerate_graphs_upto_iso(n, require_edge=True):
                M = incidence_matrix(clutter_of_graph(G))
                expected = classify_graph(G).label != "OTHER"
                assert structural_mfmc_check(M) == expected

    def test_gap_scan_agrees_with_structure(self):
        for n in (3, 4):
            for G in enumerate_graphs_upto_iso(n, require_edge=True):
                M = incidence_matrix(clutter_of_graph(G))
                clean = duality_gap_search(M, 2) is None
                assert clean == structural_mfmc_check(M)
