"""Covering/packing programs, gap scans, and the structural no-gap test."""

from itertools import combinations, product
from pathlib import Path

import pytest

from clutterkit import (
    BASE_MATRICES,
    DimensionMismatch,
    IncidenceMatrix,
    ResourceLimitExceeded,
    clutter_of_graph,
    classify_graph,
    duality_gap_search,
    enumerate_graphs_upto_iso,
    extend,
    extend_matrix,
    incidence_matrix,
    make_clutter,
    phi,
    psi,
    solve_lp,
    structural_mfmc_check,
)
from oracles import (
    all_clutters_with_edges,
    brute_phi,
    brute_psi,
    random_clutter,
    reference_gap_scan,
    reference_structural_mfmc_check,
)

DATA = Path(__file__).parent / "data"

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
        M = IncidenceMatrix.from_rows([(0, 0)], 2)
        with pytest.raises(ValueError):
            phi(M, (1, 1))

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            phi(identity3(), (1, 1))

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
        for _ in range(30):
            H = random_clutter(rng, n_max=4)
            M = incidence_matrix(H)
            alpha = tuple(rng.randint(0, 2) for _ in range(M.cols))
            value, y = psi(M, alpha)
            assert (value, y) == brute_psi(M, alpha)
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
        # every pair of 7 columns answers (87,011 row visits); every pair of
        # 9, from the fixture, passes the cap of 2,000,000 row visits and is
        # refused
        pairs7 = [[int(j in p) for j in range(7)] for p in combinations(range(7), 2)]
        assert psi(IncidenceMatrix.from_rows(pairs7, 7), (2,) * 7)[0] == 7
        pairs9 = dense_fixture("all_pairs_of_9_columns.txt")
        with pytest.raises(ResourceLimitExceeded, match="2000002 row visits .* cap of 2000000"):
            psi(pairs9, (2,) * 9)

    def test_large_objective_entry_on_one_row(self):
        # the last row takes only its cap, so one row answers in two row
        # visits however large its objective entry
        M = IncidenceMatrix.from_rows([[1]], 1)
        assert psi(M, (3_000_000,)) == (3_000_000, (3_000_000,))

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
        # 4 * 201^4 DP entries are far above the cap: refused before any work
        with pytest.raises(ResourceLimitExceeded, match="state cap of 5000000"):
            duality_gap_search(triangle_matrix(), 200)

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
        M = incidence_matrix(
            make_clutter(9, [tuple(v for v in range(1, 10) if v not in (a, a + 1))
                             for a in range(1, 4)])
        )
        with pytest.raises(ResourceLimitExceeded):
            structural_mfmc_check(M)

    def test_no_base_with_the_row_count_answers_without_the_cap(self):
        # 9 columns are over the canonical form's cap, but no base has 5 rows
        M = incidence_matrix(
            make_clutter(9, [tuple(v for v in range(1, 10) if v not in (a, a + 1))
                             for a in range(1, 6)])
        )
        assert M.rows == 5
        assert structural_mfmc_check(M) is False
        with pytest.raises(ResourceLimitExceeded):
            reference_structural_mfmc_check(M)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_reference_on_every_uniform_class(self, n):
        for G in enumerate_graphs_upto_iso(n, require_edge=True):
            M = incidence_matrix(clutter_of_graph(G))
            assert structural_mfmc_check(M) == reference_structural_mfmc_check(M), G

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
