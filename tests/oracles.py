"""Independent brute-force oracles the tests check the library against.

Every oracle here recomputes a quantity along a different route than the
implementation: membership scans instead of generator arithmetic, plain
box enumeration instead of pruned search, networkx instead of the
hand-rolled canonical forms.  ``canonical_form`` is the earlier matrix
canonizer (a minimum over all column permutations), now used only by the
references below.  ``reference_gap_scan`` is the earlier
full-table duality-gap scan, kept as the reference for the one-pass scan;
``reference_symbolic_power`` is the earlier chain of generic ``intersect``
calls, kept as the reference for the deficit-rule symbolic power;
``reference_has_packing`` is the earlier packing scan that rebuilds every
minor from H, kept as the reference for the depth-first scan;
``reference_enumerate_graphs`` is the earlier orbit closure over all edge
masks, kept as the reference for the edge-count-level enumeration;
``reference_is_simis`` is the earlier simis decider that builds I^k,
kept as the reference for the membership test by packing search (which
``brute_psi`` pins from the LP side);
``reference_structural_mfmc_check`` is the earlier structural check that
builds the canonical form of the whole matrix, kept as the reference for
the column-degree test;
``reference_classify_graph`` is the earlier classification by canonical
forms of incidence matrices, kept as the reference for the least-mask
lookup.
"""

from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

from clutterkit import (
    REFERENCE_GRAPHS,
    TRIVIAL,
    Clutter,
    Graph,
    IncidenceMatrix,
    MonomialIdeal,
    ResourceLimitExceeded,
    contains_monomial,
    cover_number,
    extend_matrix,
    incidence_matrix,
    intersect,
    make_clutter,
    make_graph,
    matching_number,
    minimalize,
    minor,
    power,
    solve_lp,
    symbolic_power,
)
from clutterkit.clutters import (
    PACKING_VERTEX_CAP,
    FailingMinor,
    PackingReport,
    _subsets_lex,
)
from clutterkit.graphs import ENUMERATION_VERTEX_CAP, GraphClass, _graph_from_mask, _pair_slots
from clutterkit.lp import BASE_MATRICES, SCAN_STATE_CAP, _checked_alpha
from clutterkit.monomials import (
    SIMIS_CANDIDATE_CAP,
    SimisReport,
    minimal_cover_masks,
    minimal_primes,
)


def iter_monomials(n, max_degree):
    """All exponent tuples on n variables with total degree <= max_degree."""
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield prefix
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    yield from rec((), max_degree, n)


def symbolic_member(primes, k, m):
    """Defining membership criterion for the k-th symbolic power."""
    return all(sum(m[v - 1] for v in A) >= k for A in primes)


def symbolic_generators_by_scan(primes, k, n):
    """Minimal generators of the symbolic power via a box membership scan.

    Every minimal generator has entries <= k, so the [0..k]^n box suffices;
    membership is an up-set, so local decrement checks decide minimality.
    """
    gens = []
    for m in product(range(k + 1), repeat=n):
        if not symbolic_member(primes, k, m):
            continue
        minimal = True
        for i in range(n):
            if m[i] > 0:
                lowered = m[:i] + (m[i] - 1,) + m[i + 1:]
                if symbolic_member(primes, k, lowered):
                    minimal = False
                    break
        if minimal:
            gens.append(m)
    return tuple(sorted(gens))


def reference_symbolic_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th symbolic power as a chain of pairwise-lcm intersections.

    Materializes each prime power P_A^k (all degree-k monomials on A) and
    meets it with the running result through the generic
    :func:`clutterkit.intersect`, starting from the unit ideal.  Same
    refusal at the same prime, with the same predicted count and message,
    as :func:`clutterkit.symbolic_power`.
    """
    primes = minimal_primes(I)

    def prime_power(A):
        gens = []
        for combo in combinations_with_replacement(sorted(v - 1 for v in A), k):
            m = [0] * I.n
            for i in combo:
                m[i] += 1
            gens.append(tuple(m))
        return MonomialIdeal(I.n, tuple(sorted(gens)))

    result = MonomialIdeal.unit(I.n)
    work = 0
    for A in primes:
        work += len(result.gens) * comb(len(A) + k - 1, k)
        if work > SIMIS_CANDIDATE_CAP:
            raise ResourceLimitExceeded(
                f"intersecting the {k}-th powers of {len(primes)} minimal primes tests "
                f"at least {work} generator pairs, above the cap of {SIMIS_CANDIDATE_CAP}"
            )
        result = intersect(result, prime_power(A))
    return result


def reference_is_simis(I: MonomialIdeal, k: int) -> SimisReport:
    """Compare the k-th symbolic and ordinary powers by building both.

    The earlier decider, kept as the reference for the membership test by
    packing search: I^k comes from :func:`clutterkit.power`, every
    generator of it is checked against the k-th powers of the minimal
    primes, and the witness is the lex-first generator of I^(k) that no
    generator of I^k divides.  It refuses up front when building I^k would
    test more than SIMIS_CANDIDATE_CAP candidates; :func:`clutterkit.is_simis`,
    which does not build I^k, answers some of those requests.
    """
    if k < 1:
        raise ValueError(f"is_simis requires k >= 1, got {k}")
    if I.is_zero or I.is_unit:
        return SimisReport(k, True)
    if not I.is_squarefree:
        raise ValueError("is_simis requires squarefree generators")
    n_gens = len(I.gens)
    work = n_gens * comb(n_gens + k - 1, k - 1)
    if work > SIMIS_CANDIDATE_CAP:
        raise ResourceLimitExceeded(
            f"building I^{k} from {n_gens} generators tests up to {work} candidate "
            f"monomials, above the cap of {SIMIS_CANDIDATE_CAP}"
        )
    P = power(I, k)
    prime_indices = [tuple(v - 1 for v in A) for A in minimal_primes(I)]
    for g in P.gens:
        for idx in prime_indices:
            if sum(map(g.__getitem__, idx)) < k:
                raise RuntimeError(
                    f"internal invariant violated: ordinary power generator {g} "
                    f"escapes the symbolic power at k={k}"
                )
    S = symbolic_power(I, k)
    if P.gens == S.gens:
        return SimisReport(k, True)
    for g in S.gens:
        if not contains_monomial(P, g):
            return SimisReport(k, False, g)
    raise RuntimeError("internal invariant violated: unequal ideals with no witness")


CANONICAL_FORM_COLUMN_CAP = 8


def canonical_form(M: IncidenceMatrix) -> tuple[tuple[int, ...], ...]:
    """Minimum over column permutations of the sorted row tuple.

    Two matrices are equal up to independent row and column permutations
    exactly when their canonical forms are equal.  A zero-row matrix gives ().
    """
    if M.cols > CANONICAL_FORM_COLUMN_CAP:
        raise ResourceLimitExceeded(
            f"canonical form over {M.cols}! column permutations exceeds the cap "
            f"of {CANONICAL_FORM_COLUMN_CAP} columns"
        )
    if not M.cols:
        return M.data  # its rows are all (); transposing twice would drop them
    return min(tuple(sorted(zip(*perm))) for perm in permutations(zip(*M.data)))


def reference_structural_mfmc_check(M: IncidenceMatrix) -> bool:
    """The structural no-gap check by canonical forms of the whole matrix.

    The earlier check, kept as the reference for the column-degree test:
    same input errors, and the 8-column cap of :func:`canonical_form`
    applies to every matrix.  Each base with M's row count is extended to
    M's width, and both are canonized in full.
    """
    n = M.cols
    for row in M.data:
        if sum(row) != n - 2:
            raise ValueError(
                f"row sum {sum(row)} differs from cols-2 = {n - 2}: {row!r}"
            )
        if not any(row):
            raise ValueError("zero row is not an edge")
    if len(set(M.data)) != M.rows:
        raise ValueError("rows must be pairwise distinct")
    form = canonical_form(M)
    for _, base in BASE_MATRICES:
        if base.rows == M.rows and base.cols <= n:
            if form == canonical_form(extend_matrix(base, n - base.cols)):
                return True
    return False


def reference_classify_graph(G: Graph) -> GraphClass:
    """Classification by canonical forms of edge-vertex incidence matrices.

    The earlier classification, kept as the reference for the least-mask
    lookup: the isolated-vertex-stripped graph is compared with each
    reference of its vertex count by edge count, degree sequence and the
    canonical form of its incidence matrix (a simple graph is a 2-uniform
    clutter).
    """
    def degree_sequence(H):
        degrees = [0] * H.n
        for a, b in H.edges:
            degrees[a - 1] += 1
            degrees[b - 1] += 1
        return sorted(degrees)

    def form(H):
        return canonical_form(incidence_matrix(make_clutter(H.n, H.edges)))

    stripped, isolated_count = G.strip_isolated()
    if stripped.edges:
        for label, ref in REFERENCE_GRAPHS.items():
            if (
                (stripped.n, len(stripped.edges)) == (ref.n, len(ref.edges))
                and degree_sequence(stripped) == degree_sequence(ref)
                and form(stripped) == form(ref)
            ):
                return GraphClass(label, isolated_count)
    return GraphClass("OTHER", isolated_count)


def brute_minimalize(gens):
    """Quadratic divisibility antichain, no sorting tricks."""
    gens = list(set(tuple(g) for g in gens))
    out = []
    for g in gens:
        dominated = False
        for h in gens:
            if h != g and all(a <= b for a, b in zip(h, g)):
                dominated = True
                break
        if not dominated:
            out.append(g)
    return tuple(sorted(out))


def brute_matching_number(H: Clutter):
    best = 0
    edges = H.edges
    for r in range(len(edges) + 1):
        for combo in combinations(edges, r):
            union = 0
            ok = True
            for e in combo:
                if union & e:
                    ok = False
                    break
                union |= e
            if ok:
                best = max(best, r)
    return best


def brute_cover_number(H: Clutter):
    best = H.n
    for mask in range(1 << H.n):
        if all(mask & e for e in H.edges):
            best = min(best, mask.bit_count())
    return best


def brute_minimal_covers(H: Clutter):
    """Minimal vertex covers by a full 2^n scan and a pairwise subset test.

    Returned as vertex frozensets sorted by (size, sorted vertices).
    """
    covers = [mask for mask in range(1 << H.n) if all(mask & e for e in H.edges)]
    minimal = [a for a in covers if not any(b != a and b & a == b for b in covers)]
    sets = [frozenset(v for v in range(1, H.n + 1) if a >> (v - 1) & 1) for a in minimal]
    return tuple(sorted(sets, key=lambda A: (len(A), sorted(A))))


def brute_minor(H: Clutter, D, C):
    """Minor by deleting D and contracting C, worked out on vertex sets.

    Drops the edges that meet D, subtracts C from the others, gives TRIVIAL
    if an edge empties, keeps the edges with no proper subset among them and
    relabels the surviving vertices 1.. in order.
    """
    D, C = set(D), set(C)
    edges = {frozenset(E) - C for E in H.edge_vertex_sets() if not D & set(E)}
    if frozenset() in edges:
        return TRIVIAL
    minimal = [E for E in edges if not any(F < E for F in edges)]
    survivors = [v for v in range(1, H.n + 1) if v not in D | C]
    masks = [sum(1 << i for i, v in enumerate(survivors) if v in E) for E in minimal]
    return Clutter(len(survivors), tuple(sorted(masks)))


def reference_has_packing(H: Clutter) -> PackingReport:
    """Scan all 3^n disjoint (deleted, contracted) pairs for a Konig failure.

    The earlier scan, kept as the reference for the depth-first one: every
    minor is rebuilt from H by :func:`clutterkit.minor` and solved afresh,
    in the same `_subsets_lex` order, with the same refusal.
    """
    if H.n > PACKING_VERTEX_CAP:
        raise ResourceLimitExceeded(
            f"packing scan over 3^{H.n} minors exceeds the cap of {PACKING_VERTEX_CAP} vertices"
        )
    vertices = tuple(range(1, H.n + 1))
    for D in _subsets_lex(vertices):
        rest = tuple(v for v in vertices if v not in D)
        for C in _subsets_lex(rest):
            M = minor(H, D, C)
            if M is TRIVIAL:
                continue
            cov = cover_number(M)
            mat = matching_number(M)
            if cov != mat:
                return PackingReport(False, FailingMinor(D, C, cov, mat))
    return PackingReport(True)


def brute_phi(M: IncidenceMatrix, alpha, cap=1):
    """Covering optimum over the wider box x in {0..cap}^n."""
    best = None
    for x in product(range(cap + 1), repeat=M.cols):
        if all(sum(r * v for r, v in zip(row, x)) >= 1 for row in M.data):
            cost = sum(a * v for a, v in zip(alpha, x))
            if best is None or cost < best:
                best = cost
    return best


def brute_psi(M: IncidenceMatrix, alpha):
    """Packing optimum by full box enumeration of y, with the lexicographically
    greatest optimal y (the one a depth-first search that tries each y_i
    from its cap down to 0 finds first)."""
    if M.rows == 0:
        return 0, ()
    caps = []
    for row in M.data:
        support = [j for j, x in enumerate(row) if x]
        caps.append(min(alpha[j] for j in support))
    best, best_y = 0, None
    for y in product(*(range(c + 1) for c in caps)):
        ok = True
        for j in range(M.cols):
            if sum(y[i] * M.data[i][j] for i in range(M.rows)) > alpha[j]:
                ok = False
                break
        if ok and sum(y) >= best:
            best, best_y = sum(y), y
    return best, best_y


def reference_gap_scan(M: IncidenceMatrix, box: int):
    """The duality-gap scan as a table over the whole box, then a min per alpha.

    Builds the packing dynamic program for every objective in {0..box}^n,
    keyed by capacity tuples, before it looks for a gap; then takes the full
    minimum over the minimal covers at each alpha in lexicographic order.
    Same return values as :func:`clutterkit.duality_gap_search`.
    """
    if box < 1:
        raise ValueError(f"scan box must be >= 1, got {box}")
    _checked_alpha(M, (0,) * M.cols)
    n = M.cols
    if n * (box + 1) ** n > SCAN_STATE_CAP:
        raise ResourceLimitExceeded(
            f"scan over {(box + 1) ** n} objectives ({n * (box + 1) ** n} DP entries) "
            f"exceeds the state cap of {SCAN_STATE_CAP}"
        )
    if M.rows == 0:
        return None

    cover_indices = [
        tuple(j for j in range(n) if mask >> j & 1)
        for mask in minimal_cover_masks(M.row_masks(), n)
    ]
    supports = [tuple(j for j, x in enumerate(row) if x) for row in M.data]

    packing_best: dict[tuple[int, ...], int] = {}
    for capacity in product(range(box + 1), repeat=n):
        best = 0
        for sup in supports:
            if all(capacity[j] >= 1 for j in sup):
                reduced = list(capacity)
                for j in sup:
                    reduced[j] -= 1
                value = 1 + packing_best[tuple(reduced)]
                if value > best:
                    best = value
        packing_best[capacity] = best

    for alpha in product(range(box + 1), repeat=n):
        phi_value = min(sum(alpha[j] for j in idx) for idx in cover_indices)
        if phi_value > packing_best[alpha]:
            report = solve_lp(M, alpha)
            if report.phi != phi_value or report.psi != packing_best[alpha]:
                raise RuntimeError(
                    "internal invariant violated: scan optima disagree with "
                    "the standalone solvers"
                )
            return alpha, report
    return None


def nx_graph(G: Graph):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, G.n + 1))
    g.add_edges_from(G.edges)
    return g


def nx_isomorphic(G1: Graph, G2: Graph):
    import networkx as nx

    return G1.n == G2.n and nx.is_isomorphic(nx_graph(G1), nx_graph(G2))


def nx_matrix_equivalent(M1: IncidenceMatrix, M2: IncidenceMatrix):
    """Equal up to row and column permutations: networkx isomorphism of the
    row/column bipartite graphs, with rows matched only to rows."""
    import networkx as nx

    def bipartite(M):
        g = nx.Graph()
        g.add_nodes_from((("row", i) for i in range(M.rows)), side="row")
        g.add_nodes_from((("col", j) for j in range(M.cols)), side="col")
        g.add_edges_from(
            (("row", i), ("col", j))
            for i, row in enumerate(M.data) for j, x in enumerate(row) if x
        )
        return g

    return (M1.rows, M1.cols) == (M2.rows, M2.cols) and nx.is_isomorphic(
        bipartite(M1), bipartite(M2), node_match=lambda a, b: a["side"] == b["side"]
    )


def nx_count_classes(n, require_edge=False):
    """Isomorphism classes on n vertices by brute subset + networkx dedup."""
    import networkx as nx

    pairs = list(combinations(range(1, n + 1), 2))
    reps = []
    for mask in range(1 << len(pairs)):
        if require_edge and mask == 0:
            continue
        edges = [pairs[s] for s in range(len(pairs)) if mask >> s & 1]
        G = nx_graph(make_graph(n, edges))
        if not any(nx.is_isomorphic(G, r) for r in reps):
            reps.append(G)
    return len(reps)


def _slot_permutation(slots, slot_index, perm) -> list[int]:
    """Slot map induced by a vertex permutation (perm[i] = image of i)."""
    out = []
    for i, j in slots:
        a, b = perm[i], perm[j]
        out.append(slot_index[(a, b) if a < b else (b, a)])
    return out


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


def reference_enumerate_graphs(n: int, require_edge: bool = False) -> list[Graph]:
    """One representative per isomorphism class, by orbit closure.

    The earlier enumerator, kept as the reference for the level-by-level
    one: it visits all 2^C(n,2) edge masks and closes each orbit under
    adjacent vertex transpositions (which generate the full symmetric
    group); the representative is the orbit's minimum mask.  Output is
    sorted by (edge count, representative mask).
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


def brute_least_mask(n, mask):
    """Least edge mask over all n! relabelings, pairs (i, j), i < j, numbered
    in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    index = {p: s for s, p in enumerate(pairs)}
    edges = [p for s, p in enumerate(pairs) if mask >> s & 1]
    best = mask
    for perm in permutations(range(n)):
        image = 0
        for i, j in edges:
            image |= 1 << index[tuple(sorted((perm[i], perm[j])))]
        best = min(best, image)
    return best


def all_clutters_with_edges(n):
    """Every clutter on n labeled vertices with at least one edge."""
    subsets = [
        frozenset(c) for size in range(1, n + 1)
        for c in combinations(range(1, n + 1), size)
    ]

    def rec(i, chosen):
        if i == len(subsets):
            if chosen:
                yield make_clutter(n, chosen)
            return
        yield from rec(i + 1, chosen)
        S = subsets[i]
        if not any(E <= S or S <= E for E in chosen):
            yield from rec(i + 1, chosen + [S])

    yield from rec(0, [])


def random_clutter(rng, n_max=5, allow_edgeless=False):
    n = rng.randint(2, n_max)
    low = 0 if allow_edgeless else 1
    count = rng.randint(low, 6)
    edges = []
    for _ in range(count):
        size = rng.randint(1, n)
        edges.append(rng.sample(range(1, n + 1), size))
    return make_clutter(n, edges)


def random_squarefree_ideal(rng, n_max=5, max_gens=5, n_exact=None):
    n = n_exact if n_exact is not None else rng.randint(2, n_max)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        size = rng.randint(1, n)
        support = rng.sample(range(n), size)
        gens.append(tuple(1 if i in support else 0 for i in range(n)))
    return minimalize(gens, n)
