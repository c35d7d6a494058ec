"""clutterkit: exact deciders with certificates for edge ideals of clutters.

Symbolic vs ordinary powers of squarefree monomial ideals, Konig and packing
properties of clutters, the graph correspondence for (n-2)-uniform clutters,
and 0/1 covering/packing LP duality.
"""

from .clutters import (
    Clutter,
    IncidenceMatrix,
    TRIVIAL,
    cover_number,
    edge_ideal,
    has_koenig,
    has_packing,
    incidence_matrix,
    make_clutter,
    matching_number,
    minor,
)
from .errors import DimensionMismatch, ResourceLimitExceeded
from .graphs import (
    Graph,
    REFERENCE_GRAPHS,
    classify_graph,
    clutter_of_graph,
    complementary_edge_ideal,
    enumerate_graphs_upto_iso,
    make_graph,
    primary_decomposition_cx,
)
from .lp import (
    duality_gap_search,
    phi,
    psi,
    solve_lp,
    structural_mfmc_check,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    is_simis,
    minimal_primes,
    minimalize,
    multiply,
    power,
    symbolic_power,
)
from .verify import verify_theorem

__version__ = "0.1.0"
