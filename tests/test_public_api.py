"""The names ``clutterkit`` exports, under the rule in the README: what the
CLI and ``verify_theorem`` reach, the data types and their constructors,
``minor``, and the names the benchmark's tracer looks up.  Their count
arguments take ints only."""

from types import ModuleType

import pytest

import clutterkit
from clutterkit import (
    duality_gap_search,
    enumerate_graphs_upto_iso,
    incidence_matrix,
    is_simis,
    make_clutter,
    minimalize,
    power,
    symbolic_power,
    verify_theorem,
)

PUBLIC_NAMES = [
    "Clutter",
    "DimensionMismatch",
    "Graph",
    "IncidenceMatrix",
    "Monomial",
    "MonomialIdeal",
    "REFERENCE_GRAPHS",
    "ResourceLimitExceeded",
    "TRIVIAL",
    "classify_graph",
    "clutter_of_graph",
    "complementary_edge_ideal",
    "cover_number",
    "duality_gap_search",
    "edge_ideal",
    "enumerate_graphs_upto_iso",
    "has_koenig",
    "has_packing",
    "incidence_matrix",
    "is_simis",
    "make_clutter",
    "make_graph",
    "matching_number",
    "minimal_primes",
    "minimalize",
    "minor",
    "multiply",
    "phi",
    "power",
    "primary_decomposition_cx",
    "psi",
    "solve_lp",
    "structural_mfmc_check",
    "symbolic_power",
    "verify_theorem",
]


def test_exports_exactly_the_public_names():
    exported = sorted(
        name for name, value in vars(clutterkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert exported == PUBLIC_NAMES


# the complementary edge ideal of the 4-vertex star, and its incidence matrix
STAR_IDEAL = minimalize([(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)], 4)
STAR_MATRIX = incidence_matrix(make_clutter(4, [(3, 4), (2, 4), (2, 3)]))


@pytest.mark.parametrize("call", [
    lambda: is_simis(STAR_IDEAL, 2.0),
    lambda: is_simis(STAR_IDEAL, True),
    lambda: symbolic_power(STAR_IDEAL, 2.0),
    lambda: power(STAR_IDEAL, 2.0),
    lambda: duality_gap_search(STAR_MATRIX, 2.0),
    lambda: duality_gap_search(STAR_MATRIX, True),
    lambda: verify_theorem(4, k_list=(2.5,)),
    lambda: verify_theorem(4, box=1.5),
    lambda: verify_theorem(4, box=0.5),
    lambda: verify_theorem(4.0),
    lambda: enumerate_graphs_upto_iso(4.0),
], ids=[
    "is_simis-float", "is_simis-bool", "symbolic_power-float", "power-float",
    "duality_gap_search-float", "duality_gap_search-bool", "verify_theorem-k_list",
    "verify_theorem-box", "verify_theorem-box-below-one", "verify_theorem-n", "enumerate_graphs_upto_iso-float",
])
def test_count_arguments_refuse_non_ints(call):
    with pytest.raises(ValueError):
        call()
