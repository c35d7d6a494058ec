"""Clutters (antichain hypergraphs): minors, matching/covering, Konig and
packing deciders with certificates, edge ideals, universal-vertex extensions,
and incidence matrices.

Vertices are 1-based; edges are stored as bitmasks (bit i-1 = vertex i),
sorted ascending, which fixes a canonical edge order throughout.  Minors
return clutters on a compacted vertex set; packing certificates always name
vertices by their original labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import DimensionMismatch, ResourceLimitExceeded
from .monomials import MonomialIdeal, minimal_cover_masks

PACKING_VERTEX_CAP = 12
CANONICAL_FORM_COLUMN_CAP = 8


class _TrivialMinor:
    """Marker for a minor whose contraction emptied an edge (unit-ideal minor)."""

    def __repr__(self) -> str:
        return "TRIVIAL"


TRIVIAL = _TrivialMinor()


def _mask_of(vertices, n: int) -> int:
    mask = 0
    for v in vertices:
        if type(v) is not int or v < 1 or v > n:
            raise ValueError(f"vertex {v!r} is not an integer in 1..{n}")
        mask |= 1 << (v - 1)
    return mask


def _vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _minimal_masks(masks) -> list[int]:
    """Inclusion-minimal elements of a set of bitmasks."""
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in uniq:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


@dataclass(frozen=True)
class Clutter:
    """n vertices plus an inclusion-antichain of nonempty edges (bitmasks)."""

    n: int
    edges: tuple[int, ...]

    def edge_vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_vertices_of(e) for e in self.edges)

    def uniformity(self) -> int | None:
        """Common edge size if the clutter is uniform (or edgeless), else None."""
        sizes = {e.bit_count() for e in self.edges}
        if not sizes:
            return 0
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def isolated_vertices(self) -> tuple[int, ...]:
        covered = 0
        for e in self.edges:
            covered |= e
        return tuple(v for v in range(1, self.n + 1) if not covered >> (v - 1) & 1)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edge_vertex_sets()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Clutter":
        return make_clutter(data["n"], data["edges"])


def make_clutter(n: int, edges) -> Clutter:
    """Build a clutter: rejects empty edges, keeps only inclusion-minimal ones."""
    if type(n) is not int or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    masks = []
    for edge in edges:
        mask = _mask_of(edge, n)
        if mask == 0:
            raise ValueError("empty edge is not allowed in a clutter")
        masks.append(mask)
    return Clutter(n, tuple(sorted(_minimal_masks(masks))))


def edge_ideal(H: Clutter) -> MonomialIdeal:
    """Squarefree ideal with one generator per edge; edgeless gives the zero ideal."""
    gens = []
    for e in H.edges:
        gens.append(tuple(e >> i & 1 for i in range(H.n)))
    return MonomialIdeal(H.n, tuple(sorted(gens)))


def matching_number(H: Clutter) -> int:
    """Largest number of pairwise-disjoint edges, by backtracking."""
    edges = H.edges
    m = len(edges)
    best = 0

    def extend(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if count + (m - i) <= best:
            return
        for j in range(i, m):
            if not edges[j] & used:
                extend(j + 1, used | edges[j], count + 1)

    extend(0, 0, 0)
    return best


def cover_number(H: Clutter) -> int:
    """Minimum size of a vertex set meeting every edge; 0 when edgeless."""
    return next(minimal_cover_masks(H.edges, H.n)).bit_count()


def minor(H: Clutter, deleted, contracted):
    """Minor by deleting all of `deleted` then contracting all of `contracted`.

    The two vertex sets must be disjoint; the result does not depend on the
    order of the individual operations.  The surviving vertices are
    relabeled 1.. in order.  Returns TRIVIAL when a contraction empties an
    edge.
    """
    d_mask = _mask_of(deleted, H.n)
    c_mask = _mask_of(contracted, H.n)
    if d_mask & c_mask:
        raise ValueError("deleted and contracted vertex sets must be disjoint")
    kept = [e for e in H.edges if not e & d_mask]
    stripped = [e & ~c_mask for e in kept]
    if any(e == 0 for e in stripped):
        return TRIVIAL
    removed = d_mask | c_mask
    return _compacted(stripped, [i for i in range(H.n) if not removed >> i & 1])


def _compacted(masks, survivors) -> Clutter:
    """The minimal masks relabeled onto `survivors`, ascending 0-based bit
    positions that cover every mask: survivor j becomes vertex j + 1."""
    out = []
    for e in _minimal_masks(masks):
        new_e = 0
        for new, old in enumerate(survivors):
            if e >> old & 1:
                new_e |= 1 << new
        out.append(new_e)
    return Clutter(len(survivors), tuple(sorted(out)))


def has_koenig(H) -> bool:
    """Cover number equals matching number; TRIVIAL minors count as True."""
    if H is TRIVIAL:
        return True
    return cover_number(H) == matching_number(H)


@dataclass(frozen=True)
class FailingMinor:
    """Certificate: the minor of (deleted, contracted) violates Konig."""

    deleted: tuple[int, ...]
    contracted: tuple[int, ...]
    cover_number: int
    matching_number: int

    def to_json_dict(self) -> dict:
        return {
            "deleted": list(self.deleted),
            "contracted": list(self.contracted),
            "cover_number": self.cover_number,
            "matching_number": self.matching_number,
        }


@dataclass(frozen=True)
class PackingReport:
    packs: bool
    failing_minor: FailingMinor | None = None

    def to_json_dict(self) -> dict:
        return {
            "packs": self.packs,
            "failing_minor": (
                self.failing_minor.to_json_dict() if self.failing_minor else None
            ),
        }


def _subsets_lex(items):
    """All subsets of a sorted tuple, in lexicographic (DFS prefix) order.

    This is the order `has_packing` walks in; the reference scan in the
    tests and perfbench's count of scanned minors read it from here.
    """
    items = tuple(items)

    def rec(start: int, prefix: tuple[int, ...]):
        yield prefix
        for i in range(start, len(items)):
            yield from rec(i + 1, prefix + (items[i],))

    yield from rec(0, ())


def has_packing(H: Clutter) -> PackingReport:
    """Scan all 3^n disjoint (deleted, contracted) pairs for a Konig failure.

    Depth-first in `_subsets_lex` order: D, then C over the vertices D
    leaves.  Each minor's edges come from its parent's: a deleted vertex
    drops the edges through it, a contracted one is stripped from them.
    No minor below a TRIVIAL one or below an edgeless D can fail, so those
    subtrees are cut.  Cover and matching numbers are memoized for the
    call, keyed on the stripped edges and, on a miss, on the compacted
    clutter, which many minors share.  The certificate is the
    lexicographically first failing pair; vertices keep their original
    labels.
    """
    if H.n > PACKING_VERTEX_CAP:
        raise ResourceLimitExceeded(
            f"packing scan over 3^{H.n} minors exceeds the cap of {PACKING_VERTEX_CAP} vertices"
        )
    n = H.n
    memo: dict[tuple[int, ...], tuple[int, int]] = {}
    solved: dict[Clutter, tuple[int, int]] = {}

    def konig_numbers(edges: tuple[int, ...]) -> tuple[int, int]:
        numbers = memo.get(edges)
        if numbers is None:
            # Konig ignores isolated vertices: solve on the covered ones.
            covered = 0
            for e in edges:
                covered |= e
            M = _compacted(edges, [i for i in range(n) if covered >> i & 1])
            numbers = solved.get(M)
            if numbers is None:
                numbers = solved[M] = (cover_number(M), matching_number(M))
            memo[edges] = numbers
        return numbers

    def contract(D, rest, edges, C, start):
        cov, mat = konig_numbers(edges)
        if cov != mat:
            return FailingMinor(D, C, cov, mat)
        for i in range(start, len(rest)):
            v = rest[i]
            keep = ~(1 << (v - 1))
            stripped = tuple(e & keep for e in edges)
            if 0 in stripped:
                continue
            failing = contract(D, rest, stripped, C + (v,), i + 1)
            if failing is not None:
                return failing
        return None

    def delete(D, edges, start):
        if not edges:
            return None
        rest = tuple(v for v in range(1, n + 1) if v not in D)
        failing = contract(D, rest, edges, (), 0)
        if failing is not None:
            return failing
        for v in range(start, n + 1):
            bit = 1 << (v - 1)
            failing = delete(D + (v,), tuple(e for e in edges if not e & bit), v + 1)
            if failing is not None:
                return failing
        return None

    failing = delete((), H.edges, 1)
    return PackingReport(failing is None, failing)


def extend(H: Clutter, r: int) -> Clutter:
    """Append r new vertices and put all of them into every edge."""
    if r < 0:
        raise ValueError(f"extension count must be >= 0, got {r}")
    if r == 0:
        return H
    new_bits = ((1 << r) - 1) << H.n
    return Clutter(H.n + r, tuple(sorted(e | new_bits for e in H.edges)))


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 edge-vertex incidence matrix; row i is the i-th canonical edge."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.rows) is not int or type(self.cols) is not int or self.cols < 0:
            raise ValueError(f"matrix shape must be counts, got {self.rows!r}x{self.cols!r}")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.data)}")
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch(
                    f"row of length {len(row)} in a {self.cols}-column matrix"
                )
            if any(type(x) is not int or x not in (0, 1) for x in row):
                raise ValueError(f"matrix entries must be the integers 0/1: {row!r}")

    def row_masks(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << j for j, x in enumerate(row) if x) for row in self.data
        )

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IncidenceMatrix":
        return cls(data["rows"], data["cols"], tuple(tuple(r) for r in data["data"]))

    @classmethod
    def from_rows(cls, rows, cols: int) -> "IncidenceMatrix":
        rows = tuple(tuple(r) for r in rows)
        return cls(len(rows), cols, rows)


def incidence_matrix(H: Clutter) -> IncidenceMatrix:
    data = tuple(
        tuple(e >> j & 1 for j in range(H.n)) for e in H.edges
    )
    return IncidenceMatrix(len(H.edges), H.n, data)


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
