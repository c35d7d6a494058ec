"""Property tests over random inputs drawn by hypothesis."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from clutterkit import (
    REFERENCE_GRAPHS,
    TRIVIAL,
    IncidenceMatrix,
    clutter_of_graph,
    complementary_edge_ideal,
    duality_gap_search,
    extend,
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
from oracles import (
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
    """The incidence matrix of the (n-2)-uniform clutter of a graph with an
    edge on 3 to 7 vertices, and the same matrix with its rows and its
    columns shuffled independently.  Half the graphs are a reference graph
    plus isolated vertices, the ones the structural check accepts."""
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        edges = draw(st.sampled_from([G.edges for G in REFERENCE_GRAPHS.values() if G.n <= n]))
    else:
        pairs = list(combinations(range(1, n + 1), 2))
        edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    M = incidence_matrix(clutter_of_graph(make_graph(n, edges)))
    rows = draw(st.permutations(M.data))
    cols = draw(st.permutations(range(n)))
    return M, IncidenceMatrix.from_rows([[row[c] for c in cols] for row in rows], n)


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
@given(st.one_of(squarefree_ideals(), graph_ideals()))
def test_symbolic_power_matches_intersection_chain(instance):
    I, k = instance
    assert symbolic_power(I, k) == reference_symbolic_power(I, k)


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
    M, shuffled = instance
    assert structural_mfmc_check(shuffled) == structural_mfmc_check(M)
