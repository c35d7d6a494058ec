"""Clutters (antichain hypergraphs): minors, matching/covering, Konig and
packing deciders with certificates, edge ideals and incidence matrices.

Vertices are 1-based; edges are stored as bitmasks (bit i-1 = vertex i),
sorted ascending, which fixes a canonical edge order throughout.  Minors
return clutters on a compacted vertex set; packing certificates always name
vertices by their original labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from . import monomials
from .errors import DimensionMismatch, ResourceLimitExceeded
from .monomials import MonomialIdeal, _bit_vector, _positions, _support_mask, minimal_cover_masks

PACKING_VERTEX_CAP = 12


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
    """n vertices plus an inclusion-antichain of nonempty edges (bitmasks).

    Construction checks that n is an int >= 0 and that the masks are
    strictly increasing ints 0 < e < 2^n; the antichain is make_clutter's.
    """

    n: int
    edges: tuple[int, ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative integer, got {self.n!r}")
        previous = 0
        for e in self.edges:
            if type(e) is not int or e <= previous or e.bit_length() > self.n:
                raise ValueError(f"edge mask {e!r} is not above {previous} and within 1..{self.n}")
            previous = e

    def edge_vertex_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(i + 1 for i in _positions(e)) for e in self.edges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edge_vertex_sets()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Clutter":
        return make_clutter(data["n"], data["edges"])


def make_clutter(n: int, edges) -> Clutter:
    """Build a clutter from vertex lists, keeping the inclusion-minimal edges."""
    return Clutter(n, tuple(sorted(_minimal_masks(_mask_of(edge, n) for edge in edges))))


def edge_ideal(H: Clutter) -> MonomialIdeal:
    """Squarefree ideal with one generator per edge; edgeless gives the zero ideal."""
    return MonomialIdeal(H.n, tuple(sorted(_bit_vector(e, H.n) for e in H.edges)))


def matching_number(H: Clutter) -> int:
    """Largest number of pairwise-disjoint edges, by backtracking: a branch stops
    once neither the edges left nor the free vertices over the least edge size
    can beat the best.  Loop steps count against PACKING_VISIT_CAP."""
    edges = H.edges
    m = len(edges)
    smallest = min(map(int.bit_count, edges)) if edges else 1
    best = steps = 0

    def extend(i: int, used: int, count: int) -> None:
        nonlocal best, steps
        if count > best:
            best = count
        if count + (m - i) <= best or count + (H.n - used.bit_count()) // smallest <= best:
            return
        for j in range(i, m):
            steps += 1
            if steps > monomials.PACKING_VISIT_CAP:
                raise ResourceLimitExceeded(
                    f"matching search made {steps} steps, above the cap of "
                    f"{monomials.PACKING_VISIT_CAP}"
                )
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
    """All subsets of a sorted tuple, in lexicographic (DFS prefix) order, as
    sorted tuples: a prefix sorts before its extensions.

    This is the order `has_packing` walks in; the reference scan in the
    tests and perfbench's count of scanned minors read it from here.
    """
    return sorted(chain.from_iterable(combinations(items, r) for r in range(len(items) + 1)))


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
            M = _compacted(edges, _positions(covered))
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
            if 1 not in row:
                raise ValueError("zero row is not an edge")

    def row_masks(self) -> tuple[int, ...]:
        return tuple(map(_support_mask, self.data))

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
    return IncidenceMatrix(len(H.edges), H.n, tuple(_bit_vector(e, H.n) for e in H.edges))

