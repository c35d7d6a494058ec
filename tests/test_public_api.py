"""The names ``clutterkit`` exports, under the rule in the README: what the
CLI and ``verify_theorem`` reach, the data types and their constructors,
``minor``, and the names the benchmark's tracer looks up."""

from types import ModuleType

import clutterkit

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
