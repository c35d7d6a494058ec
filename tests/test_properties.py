"""Property tests over random inputs drawn by hypothesis."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from clutterkit import (
    IncidenceMatrix,
    complementary_edge_ideal,
    duality_gap_search,
    is_simis,
    make_graph,
    minimal_primes,
    minimalize,
    phi,
    power,
    psi,
    symbolic_power,
)
from oracles import reference_gap_scan, reference_symbolic_power, symbolic_member


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
