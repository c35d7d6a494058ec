"""Property tests over random inputs drawn by hypothesis."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clutterkit import (
    REFERENCE_GRAPHS,
    TRIVIAL,
    IncidenceMatrix,
    MonomialIdeal,
    classify_graph,
    clutter_of_graph,
    complementary_edge_ideal,
    duality_gap_search,
    has_packing,
    incidence_matrix,
    is_simis,
    make_clutter,
    make_graph,
    minimal_primes,
    minimalize,
    minor,
    phi,
    power,
    psi,
    structural_mfmc_check,
    symbolic_power,
)
from clutterkit.graphs import _least_mask, _pair_slots
from clutterkit.monomials import _symbolic_generators
from oracles import (
    REFERENCE_PAIR_CAP,
    contains_monomial,
    extend,
    random_squarefree_ideal,
    reference_gap_scan,
    reference_has_packing,
    reference_is_simis,
    reference_symbolic_power,
    symbolic_member,
)


@st.composite
def scan_instances(draw):
    """A 0/1 matrix with nonzero rows on at most 5 columns, a box of 1 or 2
    and an objective in that box."""
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(row, max_size=6))
    box = draw(st.integers(1, 2))
    alpha = draw(st.lists(st.integers(0, box), min_size=n, max_size=n))
    return IncidenceMatrix.from_rows(rows, n), box, tuple(alpha)


@st.composite
def squarefree_ideals(draw):
    """A nonzero proper squarefree ideal on at most 6 variables, from 2 to 8
    nonunit 0/1 generators, and a degree k in 2..4."""
    n = draw(st.integers(1, 6))
    gen = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)
    gens = draw(st.lists(gen, min_size=2, max_size=8))
    return minimalize(gens, n), draw(st.integers(2, 4))


@st.composite
def wide_squarefree_ideals(draw):
    """A nonzero proper squarefree ideal on 5 to 9 variables (every one on
    at most 4 is pinned exhaustively), from 2 to 7 nonunit 0/1 generators."""
    n = draw(st.integers(5, 9))
    gen = st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)
    return minimalize(draw(st.lists(gen, min_size=2, max_size=7)), n)


@st.composite
def graph_ideals(draw):
    """The complementary edge ideal of a graph with an edge on 4 to 6
    vertices, the family the theorem covers (most of it fails simis), and a
    degree k of 2 or 3."""
    n = draw(st.integers(4, 6))
    edges = draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 2))), min_size=1))
    return complementary_edge_ideal(make_graph(n, edges)), draw(st.integers(2, 3))


@st.composite
def clutters(draw, min_n=2, max_n=6):
    """A clutter on min_n..max_n vertices from 2 to 8 edges of 2 or 3
    vertices: a mix of clutters that pack and clutters that do not."""
    n = draw(st.integers(min_n, max_n))
    edge = st.frozensets(st.integers(1, n), min_size=2, max_size=3)
    return make_clutter(n, draw(st.lists(edge, min_size=2, max_size=8, unique=True)))


@st.composite
def clutters_with_minor_steps(draw):
    """A clutter and a role for each vertex: kept (0), deleted or contracted
    in a first minor step (1, 2), or in a second one (3, 4)."""
    H = draw(clutters())
    roles = draw(st.lists(st.integers(0, 4), min_size=H.n, max_size=H.n))
    return H, roles


@st.composite
def relabeled_graphs(draw):
    """An edge mask on 6 or 7 vertices and a relabeling of the vertices.

    Masks are uniform, or have at most five edges or non-edges, so that
    graphs with many twins (isolated or universal vertices) come up too.
    """
    n = draw(st.integers(6, 7))
    n_slots = n * (n - 1) // 2
    full = (1 << n_slots) - 1
    sparse = st.sets(st.integers(0, n_slots - 1), max_size=5).map(
        lambda slots: sum(1 << s for s in slots)
    )
    mask = draw(st.one_of(st.integers(0, full), sparse, sparse.map(lambda m: full ^ m)))
    return n, mask, draw(st.permutations(range(n)))


@st.composite
def permuted_uniform_matrices(draw):
    """A graph with an edge on 3 to 24 vertices, the incidence matrix of its
    (n-2)-uniform clutter, and the same matrix with its rows and its columns
    shuffled independently.  Half the graphs are a reference graph plus
    isolated vertices, the ones the structural check accepts."""
    n = draw(st.integers(3, 24))
    if draw(st.booleans()):
        edges = draw(st.sampled_from([G.edges for G in REFERENCE_GRAPHS.values() if G.n <= n]))
    else:
        pairs = list(combinations(range(1, n + 1), 2))
        edges = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=6))
    G = make_graph(n, edges)
    M = incidence_matrix(clutter_of_graph(G))
    rows = draw(st.permutations(M.data))
    cols = draw(st.permutations(range(n)))
    return G, M, IncidenceMatrix.from_rows([[row[c] for c in cols] for row in rows], n)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_instances())
def test_gap_scan_matches_reference_and_phi_bounds_psi(instance):
    M, box, alpha = instance
    hit = duality_gap_search(M, box)
    assert hit == reference_gap_scan(M, box)
    assert phi(M, alpha)[0] >= psi(M, alpha)[0]
    if hit is not None:
        assert phi(M, hit[0])[0] > psi(M, hit[0])[0]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_instances())
def test_psi_is_zero_iff_phi_is_zero(instance):
    # the gap scan passes over every objective that no row fits (psi = 0)
    # on the premise that phi = 0 there too
    M, _, alpha = instance
    assert (psi(M, alpha)[0] == 0) == (phi(M, alpha)[0] == 0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(squarefree_ideals(), graph_ideals()))
def test_symbolic_power_matches_intersection_chain(instance):
    I, k = instance
    assert symbolic_power(I, k) == reference_symbolic_power(I, k)


# degrees on either side of each change of the packed field width
# w = k.bit_length() + 1 (k = 2, 4, 8)
@pytest.mark.parametrize("k", (1, 2, 3, 4, 7, 8))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(wide_squarefree_ideals())
def test_packed_chain_matches_intersection_chain_up_to_nine_variables(k, I):
    # the chain's step cap and the reference's pair cap count different work,
    # so the reference runs under a cap that every drawn ideal stays below
    got = symbolic_power(I, k)
    assert got == reference_symbolic_power(I, k, cap=10 * REFERENCE_PAIR_CAP)
    # the premise of the field width: no exponent above k
    assert max(max(g) for g in got.gens) <= k


# is_simis reads I^(k) from this search and stops at the first generator
# outside I^k, which is the lex-first witness only if the stream is in order
@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(squarefree_ideals(), graph_ideals()))
def test_symbolic_generator_stream_is_lex_increasing_and_matches_intersection_chain(instance):
    I, k = instance
    stream = list(_symbolic_generators(k, I._prime_parts[0]))
    assert all(g < h for g, h in zip(stream, stream[1:]))
    assert stream == list(reference_symbolic_power(I, k).gens)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(squarefree_ideals(), graph_ideals()))
def test_simis_witness_lies_in_symbolic_but_not_ordinary_power(instance):
    I, k = instance
    report = is_simis(I, k)
    if report.witness is None:
        assert report.equal
        return
    assert not report.equal
    assert symbolic_member(minimal_primes(I), k, report.witness)
    for g in power(I, k).gens:
        assert any(e > w for e, w in zip(g, report.witness))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(squarefree_ideals(), graph_ideals()))
def test_simis_matches_the_ordinary_power_reference(instance):
    I, k = instance
    assert is_simis(I, k) == reference_is_simis(I, k)


# is_simis keeps what does not depend on k on the ideal object
@settings(max_examples=80, deadline=None, derandomize=True)
@given(squarefree_ideals(), st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_simis_on_one_object_matches_fresh_objects(instance, ks):
    I, _ = instance
    shared = [is_simis(I, k) for k in ks]
    assert shared == [is_simis(MonomialIdeal(I.n, I.gens), k) for k in ks]


@st.composite
def monomials_against_powers(draw):
    """A random squarefree ideal, a degree k in 1..3 and a monomial with
    exponents at most k."""
    I = random_squarefree_ideal(draw(st.randoms(use_true_random=False)))
    k = draw(st.integers(1, 3))
    g = draw(st.lists(st.integers(0, k), min_size=I.n, max_size=I.n))
    return I, k, tuple(g)


# is_simis asks psi's packing search whether psi_g >= k, so that search is
# pinned here against the ordinary power built by repeated multiplication
@settings(max_examples=150, deadline=None, derandomize=True)
@given(monomials_against_powers())
def test_ordinary_power_membership_is_psi_at_least_k(instance):
    I, k, g = instance
    M = IncidenceMatrix.from_rows(I.gens, I.n)
    assert contains_monomial(power(I, k), g) == (psi(M, g)[0] >= k)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(clutters_with_minor_steps())
def test_minors_commute(instance):
    H, roles = instance
    step = {r: tuple(v for v in range(1, H.n + 1) if roles[v - 1] == r) for r in range(5)}
    one_step = minor(H, step[1] + step[3], step[2] + step[4])
    first = minor(H, step[1], step[2])
    if first is TRIVIAL:
        assert one_step is TRIVIAL
        return
    survivors = [v for v in range(1, H.n + 1) if roles[v - 1] in (0, 3, 4)]
    label = {v: i + 1 for i, v in enumerate(survivors)}
    second = minor(first, [label[v] for v in step[3]], [label[v] for v in step[4]])
    assert second == one_step


@settings(max_examples=80, deadline=None, derandomize=True)
@given(clutters_with_minor_steps())
def test_packing_is_closed_under_minors(instance):
    H, roles = instance
    report = has_packing(H)
    if not report.packs:
        # The failing minor itself fails Konig, at its own identity minor.
        fm = report.failing_minor
        own = has_packing(minor(H, fm.deleted, fm.contracted)).failing_minor
        assert (own.deleted, own.contracted) == ((), ())
        assert (own.cover_number, own.matching_number) == (fm.cover_number, fm.matching_number)
        return
    D = tuple(v for v in range(1, H.n + 1) if roles[v - 1] in (1, 3))
    C = tuple(v for v in range(1, H.n + 1) if roles[v - 1] in (2, 4))
    M = minor(H, D, C)
    assert M is TRIVIAL or has_packing(M).packs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(clutters(max_n=5), st.integers(1, 2))
def test_packing_is_invariant_under_extend(H, r):
    assert has_packing(extend(H, r)).packs == has_packing(H).packs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(clutters(min_n=6, max_n=7))
def test_packing_matches_reference_scan(H):
    assert has_packing(H) == reference_has_packing(H)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabeled_graphs())
def test_least_mask_is_invariant_under_relabeling(instance):
    n, mask, perm = instance
    slots = _pair_slots(n)
    index = {pair: s for s, pair in enumerate(slots)}
    image = 0
    for s, (i, j) in enumerate(slots):
        if mask >> s & 1:
            image |= 1 << index[tuple(sorted((perm[i], perm[j])))]
    least = _least_mask(n, mask, slots)
    assert _least_mask(n, image, slots) == least
    assert least <= mask and least <= image


@settings(max_examples=60, deadline=None, derandomize=True)
@given(permuted_uniform_matrices())
def test_structural_check_is_invariant_under_row_and_column_permutations(instance):
    _, M, shuffled = instance
    assert structural_mfmc_check(shuffled) == structural_mfmc_check(M)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(permuted_uniform_matrices())
def test_structural_check_matches_classification(instance):
    # the theorem, through two routes that share no canonizer
    G, _, shuffled = instance
    assert structural_mfmc_check(shuffled) == (classify_graph(G).label != "OTHER")
