"""Property tests over random inputs drawn by hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from clutterkit import IncidenceMatrix, duality_gap_search, phi, psi
from oracles import reference_gap_scan


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scan_instances())
def test_gap_scan_matches_reference_and_phi_bounds_psi(instance):
    M, box, alpha = instance
    hit = duality_gap_search(M, box)
    assert hit == reference_gap_scan(M, box)
    assert phi(M, alpha)[0] >= psi(M, alpha)[0]
    if hit is not None:
        assert phi(M, hit[0])[0] > psi(M, hit[0])[0]
