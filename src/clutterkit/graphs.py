"""Simple graphs and their complementary edge ideals.

Covers the correspondence between graphs on n vertices and (n-2)-uniform
clutters (each clutter edge is the complement of a graph edge), the
combinatorial primary decomposition of the complementary edge ideal, the
six-graph classification behind the packing/symbolic-power equivalences,
and small-graph enumeration up to isomorphism.  Enumeration and
classification share one exact canonizer: the least edge bitmask over all
relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .clutters import Clutter, edge_ideal
from .monomials import MonomialIdeal, PrimeSupport, _symbolic_power

ENUMERATION_VERTEX_CAP = 7  # at most 8: _least_mask keeps one byte per vertex


@dataclass(frozen=True)
class Graph:
    """Simple graph: an int n >= 0 plus strictly increasing int pairs (a, b),
    1 <= a < b <= n, as checked on construction."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {self.n!r}")
        previous = (0, 0)
        for edge in self.edges:
            if type(edge) is not tuple or tuple(map(type, edge)) != (int, int):
                raise ValueError(f"edge must be a pair of integers: {edge!r}")
            if not (previous < edge and 1 <= edge[0] < edge[1] <= self.n):
                raise ValueError(f"edge {edge} is not a pair a < b in 1..{self.n} past {previous}")
            previous = edge

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = {v for edge in self.edges for v in edge}
        return tuple(v for v in range(1, self.n + 1) if v not in touched)

    def strip_isolated(self) -> tuple["Graph", int]:
        """Graph induced on the non-isolated vertices (compact relabeling)."""
        survivors = sorted({v for edge in self.edges for v in edge})
        relabel = {old: new for new, old in enumerate(survivors, start=1)}
        edges = tuple(sorted((relabel[a], relabel[b]) for a, b in self.edges))
        return Graph(len(survivors), edges), self.n - len(survivors)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        return make_graph(data["n"], data["edges"])


def make_graph(n: int, edges) -> Graph:
    """Build a graph from vertex pairs in either orientation, without repeats."""
    normalized = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"loop at vertex {a} is not allowed")
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
    """Ideal with one generator per edge e, the product of all variables off
    e: ``edge_ideal(clutter_of_graph(G))``, or the zero ideal without edges."""
    if not G.edges:
        return MonomialIdeal.zero(G.n)
    return edge_ideal(clutter_of_graph(G))


def clutter_of_graph(G: Graph) -> Clutter:
    """The (n-2)-uniform clutter whose edges are the complements of G's edges.

    Refused on fewer than 3 vertices, where every complement is empty.
    """
    if not G.edges:
        raise ValueError("clutter_of_graph requires at least one edge")
    if G.n < 3:
        raise ValueError(f"clutter_of_graph requires at least 3 vertices, got {G.n}")
    full = (1 << G.n) - 1
    return Clutter(G.n, tuple(sorted(full ^ (1 << a - 1) ^ (1 << b - 1) for a, b in G.edges)))


def primary_decomposition_cx(G: Graph) -> tuple[PrimeSupport, ...]:
    """Minimal primes of the complementary edge ideal, combinatorially.

    Union of singletons at isolated vertices and, among the vertices on an
    edge, the non-edges of G (edges of the complement) and the triples
    inducing triangles; a pair that contains an isolated vertex is absorbed
    by the singleton below it.  The intersection of the result is checked
    against the ideal: primes on disjoint variables intersect to their
    product, so the singletons are checked as the support of every generator
    off the touched vertices, and the other primes on the chain that builds
    symbolic powers, run at k = 1 on the touched vertices under its step cap
    (ResourceLimitExceeded past it).
    """
    if not G.edges:
        raise ValueError("primary decomposition requires at least one edge")
    present = set(G.edges)
    touched = sorted({v for edge in G.edges for v in edge})
    parts = [e for e in combinations(touched, 2) if e not in present]
    parts += [t for t in combinations(touched, 3) if present >= set(combinations(t, 2))]
    ideal = complementary_edge_ideal(G)
    isolated = G.isolated_vertices()
    on_touched = tuple(tuple(g[v - 1] for v in touched) for g in ideal.gens)
    if all(sum(g) == len(isolated) + sum(h) and all(g[v - 1] for v in isolated)
           for g, h in zip(ideal.gens, on_touched)):
        core = MonomialIdeal(len(touched), on_touched)
        bit = {v: 1 << i for i, v in enumerate(touched)}
        if _symbolic_power(core, 1, [sum(map(bit.get, A)) for A in parts]).gens == core.gens:
            return tuple(frozenset(A) for A in [(v,) for v in isolated] + parts)
    raise RuntimeError(
        "internal invariant violated: combinatorial decomposition does not "
        "intersect to the complementary edge ideal"
    )


# --- isomorphism and enumeration ------------------------------------------

def _pair_slots(n: int) -> list[tuple[int, int]]:
    """0-based vertex pairs (i, j), i < j, in lexicographic slot order."""
    return list(combinations(range(n), 2))


def _graph_from_mask(n: int, mask: int, slots: list[tuple[int, int]]) -> Graph:
    edges = tuple(
        sorted((i + 1, j + 1) for s, (i, j) in enumerate(slots) if mask >> s & 1)
    )
    return Graph(n, edges)


def _adjacency(n: int, mask: int, slots: list[tuple[int, int]]) -> list[int]:
    """Neighbor set of each vertex of the graph with edge bitmask mask, one
    byte per neighbor: bit 8w of entry v is set iff v and w are adjacent."""
    adj = [0] * n
    for s, (i, j) in enumerate(slots):
        if mask >> s & 1:
            adj[i] |= 1 << 8 * j
            adj[j] |= 1 << 8 * i
    return adj


def _twin_representatives(adj: list[int]) -> list[int]:
    """For each vertex v, the least u with N(u) minus {v} equal to N(v) minus {u}.

    Swapping two such twins is an automorphism that fixes every other
    vertex.  The twin relation is an equivalence, so comparing v with the
    representatives found so far suffices.
    """
    rep = list(range(len(adj)))
    for v in range(len(adj)):
        for u in range(v):
            if rep[u] == u and adj[u] & ~(1 << 8 * v) == adj[v] & ~(1 << 8 * u):
                rep[v] = u
                break
    return rep


def _least_mask(n: int, mask: int, slots: list[tuple[int, int]], barred: bool = False) -> int:
    """Least edge bitmask over all relabelings of the graph with mask (n <= 8).

    Labels are placed from n-1 down to 0.  Placing label t fixes the slots
    (t, n-1), ..., (t, t+1), and every slot (i, j) with i >= t outranks
    every slot with i < t, so only the partial labelings whose known bits
    are least need to be extended.  A state is an int with a byte per
    vertex: bits 0-6 hold the labels placed on its neighbors (label j as
    bit j-1), so the bits label t fixes are the byte of the vertex labeled
    t.  Bit 7 marks a vertex that is labeled or whose previous twin is not,
    so only the least unlabeled vertex of each twin class is tried:
    swapping two twins is an automorphism that fixes the labels placed so
    far, so it maps the labelings that start with one onto those that
    start with the other, mask for mask.

    With barred the mask is its own bar, and the result is below mask iff
    mask is not least: 0 at once if swapping labels t and u < t makes row
    t smaller, else the search stops at the first level whose least bits
    fall below mask's.
    """
    adj = _adjacency(n, mask, slots)
    if barred and any(min(adj[:t]) >> 8 * t + 8 < adj[t] >> 8 * t + 8 for t in range(1, n)):
        return 0
    mark = [128 << 8 * u for u in range(n)]
    step = mark.copy()  # placing u marks u and unmarks its next twin
    code, latest = 0, list(range(n))
    for v, r in enumerate(_twin_representatives(adj)):
        if r != v:
            code += mark[v]
            step[latest[r]] -= mark[v]
            latest[r] = v
    states = [code]
    least = 0
    for t in range(n - 1, -1, -1):
        best = 128
        chosen = []
        for code in states:
            fields = code.to_bytes(n, "little")
            low = min(fields)
            if low > best:
                continue
            if low < best:
                best = low
                chosen = []
            u = fields.find(low)
            while u >= 0:  # the states built at t = 0 are never read
                chosen.append(code + (adj[u] << t >> 1) + step[u])
                u = fields.find(low, u + 1)
        states = chosen
        row = t * (2 * n - t - 1) // 2
        least |= best >> t << row
        if barred and least < mask >> row << row:
            break
    return least


def _canonical_mask(G: Graph) -> int:
    """G's least edge bitmask over all relabelings (see ``_least_mask``)."""
    slots = _pair_slots(G.n)
    mask = sum(1 << slots.index((a - 1, b - 1)) for a, b in G.edges)
    return _least_mask(G.n, mask, slots)


# (vertex count, least edge mask) -> label, for the six references
_REFERENCE_LABELS = {(G.n, _canonical_mask(G)): label for label, G in REFERENCE_GRAPHS.items()}
_REFERENCE_VERTEX_MAX = max(G.n for G in REFERENCE_GRAPHS.values())


def classify_graph(G: Graph) -> GraphClass:
    """Look the isolated-vertex-stripped graph up among the six references;
    one larger than every reference is OTHER without being canonized."""
    stripped, isolated_count = G.strip_isolated()
    label = "OTHER"
    if stripped.n <= _REFERENCE_VERTEX_MAX:
        label = _REFERENCE_LABELS.get((stripped.n, _canonical_mask(stripped)), label)
    return GraphClass(label, isolated_count)


def enumerate_graphs_upto_iso(n: int, require_edge: bool = False) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices.

    The representative is the class's least edge bitmask (slot s of
    ``_pair_slots`` is bit s), as found by ``_least_mask``.  Classes are
    built by orderly generation (Read 1978) from the complete graph down, on
    one lemma: if m is least and not the full mask, its parent p, m with its
    lowest zero bit z set, is least too.  Proof: let a relabeling take p to
    q < p, and let d be the highest bit where q and p differ.  Bits 0..z of
    p are all set and q has as many bits set as p, so d > z.  m agrees with p
    above z, so q < m, and the image of m, which is q less one bit, is
    smaller still: m would not be least.  A child c of m, m with one bit
    b below z cleared, has lowest zero bit b and so parent m.  Hence
    clearing, in every least mask, each bit below its lowest zero bit and
    keeping the least children (``_least_mask`` barred by the child) reaches
    every class exactly once.  Output is sorted by (edge count, mask).
    """
    if type(n) is not int or not 1 <= n <= ENUMERATION_VERTEX_CAP:
        raise ValueError(
            f"enumeration supports 1 <= n <= {ENUMERATION_VERTEX_CAP}, got {n!r}"
        )
    slots = _pair_slots(n)
    reps = [(1 << len(slots)) - 1]
    for mask in reps:  # the list grows by the least children found so far
        for b in range((mask ^ (mask + 1)).bit_length() - 1):
            child = mask & ~(1 << b)
            if _least_mask(n, child, slots, barred=True) == child:
                reps.append(child)
    reps.sort(key=lambda m: (m.bit_count(), m))
    if require_edge:
        reps = reps[1:]
    return [_graph_from_mask(n, m, slots) for m in reps]
