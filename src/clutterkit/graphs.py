"""Simple graphs and their complementary edge ideals.

Covers the correspondence between graphs on n vertices and (n-2)-uniform
clutters (each clutter edge is the complement of a graph edge), the
combinatorial primary decomposition of the complementary edge ideal, the
six-graph classification behind the packing/symbolic-power equivalences,
and small-graph enumeration up to isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .clutters import Clutter, canonical_form, incidence_matrix, make_clutter
from .monomials import MonomialIdeal, PrimeSupport, intersect, minimalize

ENUMERATION_VERTEX_CAP = 7


@dataclass(frozen=True)
class Graph:
    """Simple graph: vertex count plus sorted tuple of edges (a, b), a < b."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a - 1] += 1
            deg[b - 1] += 1
        return tuple(sorted(deg))

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = set()
        for a, b in self.edges:
            touched.add(a)
            touched.add(b)
        return tuple(v for v in range(1, self.n + 1) if v not in touched)

    def complement(self) -> "Graph":
        present = set(self.edges)
        comp = tuple(
            (a, b)
            for a, b in combinations(range(1, self.n + 1), 2)
            if (a, b) not in present
        )
        return Graph(self.n, comp)

    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        present = set(self.edges)
        return tuple(
            (a, b, c)
            for a, b, c in combinations(range(1, self.n + 1), 3)
            if (a, b) in present and (a, c) in present and (b, c) in present
        )

    def strip_isolated(self) -> tuple["Graph", int]:
        """Graph induced on the non-isolated vertices (compact relabeling)."""
        isolated = set(self.isolated_vertices())
        survivors = [v for v in range(1, self.n + 1) if v not in isolated]
        relabel = {old: new for new, old in enumerate(survivors, start=1)}
        edges = tuple(sorted((relabel[a], relabel[b]) for a, b in self.edges))
        return Graph(len(survivors), edges), len(isolated)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        return make_graph(data["n"], data["edges"])


def make_graph(n: int, edges) -> Graph:
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    normalized = set()
    for edge in edges:
        a, b = edge
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"edge vertices must be integers: {edge!r}")
        if a == b:
            raise ValueError(f"loop at vertex {a} is not allowed")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge {(a, b)} out of range 1..{n}")
        normalized.add((min(a, b), max(a, b)))
    return Graph(n, tuple(sorted(normalized)))


REFERENCE_GRAPHS: dict[str, Graph] = {
    "K2": make_graph(2, [(1, 2)]),
    "K3": make_graph(3, [(1, 2), (1, 3), (2, 3)]),
    "P3": make_graph(3, [(1, 2), (2, 3)]),
    "2K2": make_graph(4, [(1, 2), (3, 4)]),
    "P4": make_graph(4, [(1, 2), (2, 3), (3, 4)]),
    "C4": make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
}


@dataclass(frozen=True)
class GraphClass:
    """Classification of a graph as one of the six references plus isolated
    vertices, or OTHER."""

    label: str
    isolated_count: int

    def to_json_dict(self) -> dict:
        return {"label": self.label, "isolated_count": self.isolated_count}


def complementary_edge_ideal(G: Graph) -> MonomialIdeal:
    """Ideal with one generator per edge e: the product of all variables off e.

    An edgeless graph gives the zero ideal.  Graphs on fewer than three
    vertices with an edge are rejected (the complement of the edge would be
    empty, i.e. the unit monomial).
    """
    if G.edges and G.n < 3:
        raise ValueError(
            "complementary edge ideal needs at least 3 vertices when edges exist"
        )
    gens = []
    for a, b in G.edges:
        gens.append(tuple(0 if v in (a, b) else 1 for v in range(1, G.n + 1)))
    return minimalize(gens, G.n)


def clutter_of_graph(G: Graph) -> Clutter:
    """The (n-2)-uniform clutter whose edges are the complements of G's edges."""
    if G.n < 3:
        raise ValueError("clutter_of_graph requires at least 3 vertices")
    if not G.edges:
        raise ValueError("clutter_of_graph requires at least one edge")
    vertex_set = set(range(1, G.n + 1))
    return make_clutter(G.n, [vertex_set - {a, b} for a, b in G.edges])


def associated_graph(H: Clutter) -> Graph:
    """Inverse of clutter_of_graph: each clutter edge complements a graph edge."""
    if H.n < 3:
        raise ValueError("associated_graph requires at least 3 vertices")
    d = H.uniformity()
    if H.edges and d != H.n - 2:
        raise ValueError(
            f"clutter is not ({H.n - 2})-uniform (edge sizes give {d})"
        )
    vertex_set = set(range(1, H.n + 1))
    pairs = [tuple(sorted(vertex_set - set(e))) for e in H.edge_vertex_sets()]
    return make_graph(H.n, pairs)


def primary_decomposition_cx(G: Graph) -> tuple[PrimeSupport, ...]:
    """Minimal primes of the complementary edge ideal, combinatorially.

    Union of singletons at isolated vertices, non-edges of G (edges of the
    complement), and vertex triples inducing triangles; pairs that contain
    an isolated vertex are absorbed by the singleton below them.  The
    intersection of the result is checked against the ideal itself.
    """
    if not G.edges:
        raise ValueError("primary decomposition requires at least one edge")
    isolated = set(G.isolated_vertices())
    parts: list[frozenset[int]] = [frozenset([v]) for v in sorted(isolated)]
    for a, b in G.complement().edges:
        if a in isolated or b in isolated:
            continue
        parts.append(frozenset([a, b]))
    for t in G.triangles():
        parts.append(frozenset(t))
    parts.sort(key=lambda A: (len(A), sorted(A)))

    ideal = complementary_edge_ideal(G)
    check = MonomialIdeal.unit(G.n)
    for A in parts:
        gens = [
            tuple(1 if v == w else 0 for v in range(1, G.n + 1)) for w in sorted(A)
        ]
        check = intersect(check, MonomialIdeal(G.n, tuple(sorted(gens))))
    if check.gens != ideal.gens:
        raise RuntimeError(
            "internal invariant violated: combinatorial decomposition does not "
            "intersect to the complementary edge ideal"
        )
    return tuple(parts)


# --- isomorphism and enumeration ------------------------------------------

def _pair_slots(n: int) -> list[tuple[int, int]]:
    """0-based vertex pairs (i, j), i < j, in lexicographic slot order."""
    return list(combinations(range(n), 2))


def _graph_from_mask(n: int, mask: int, slots: list[tuple[int, int]]) -> Graph:
    edges = tuple(
        sorted((i + 1, j + 1) for s, (i, j) in enumerate(slots) if mask >> s & 1)
    )
    return Graph(n, edges)


def _slot_permutation(slots, slot_index, perm) -> list[int]:
    """Slot map induced by a vertex permutation (perm[i] = image of i)."""
    out = []
    for i, j in slots:
        a, b = perm[i], perm[j]
        out.append(slot_index[(a, b) if a < b else (b, a)])
    return out


def graphs_isomorphic(G1: Graph, G2: Graph) -> bool:
    """Compare canonical forms of the edge-vertex incidence matrices (a simple
    graph is a 2-uniform clutter); capped at 8 vertices."""
    if G1.n != G2.n or len(G1.edges) != len(G2.edges):
        return False
    if G1.degree_sequence() != G2.degree_sequence():
        return False

    def form(G: Graph):
        return canonical_form(incidence_matrix(make_clutter(G.n, G.edges)))

    return form(G1) == form(G2)


def classify_graph(G: Graph) -> GraphClass:
    """Match the isolated-vertex-stripped graph against the six references."""
    stripped, isolated_count = G.strip_isolated()
    if not stripped.edges:
        return GraphClass("OTHER", isolated_count)
    for label, ref in REFERENCE_GRAPHS.items():
        if stripped.n == ref.n and graphs_isomorphic(stripped, ref):
            return GraphClass(label, isolated_count)
    return GraphClass("OTHER", isolated_count)


def _chunked_tables(slot_map: list[int], n_slots: int, chunk_bits: int = 8):
    """Per-chunk lookup tables so a slot permutation applies in a few ORs."""
    tables = []
    for lo in range(0, n_slots, chunk_bits):
        width = min(chunk_bits, n_slots - lo)
        table = [0] * (1 << width)
        for value in range(1 << width):
            out = 0
            v = value
            s = lo
            while v:
                if v & 1:
                    out |= 1 << slot_map[s]
                v >>= 1
                s += 1
            table[value] = out
        tables.append((lo, (1 << width) - 1, table))
    return tables


def enumerate_graphs_upto_iso(n: int, require_edge: bool = False) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    Classes are found by closing edge-bitmask orbits under adjacent vertex
    transpositions (which generate the full symmetric group); the
    representative is the orbit's minimum mask.  Output is sorted by
    (edge count, representative mask).
    """
    if not 1 <= n <= ENUMERATION_VERTEX_CAP:
        raise ValueError(
            f"enumeration supports 1 <= n <= {ENUMERATION_VERTEX_CAP}, got {n}"
        )
    slots = _pair_slots(n)
    slot_index = {p: s for s, p in enumerate(slots)}
    n_slots = len(slots)
    generators = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        slot_map = _slot_permutation(slots, slot_index, perm)
        generators.append(_chunked_tables(slot_map, n_slots))

    total = 1 << n_slots
    seen = bytearray(total)
    reps: list[int] = []
    for start in range(total):
        if seen[start]:
            continue
        best = start
        stack = [start]
        seen[start] = 1
        while stack:
            mask = stack.pop()
            for tables in generators:
                image = 0
                for lo, chunk_mask, table in tables:
                    image |= table[(mask >> lo) & chunk_mask]
                if not seen[image]:
                    seen[image] = 1
                    if image < best:
                        best = image
                    stack.append(image)
        reps.append(best)

    if require_edge:
        reps = [m for m in reps if m]
    reps.sort(key=lambda m: (m.bit_count(), m))
    return [_graph_from_mask(n, m, slots) for m in reps]

