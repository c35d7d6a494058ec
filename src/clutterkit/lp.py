"""Exact integer covering/packing program pair for 0/1 matrices.

For an m x n incidence matrix M and a nonnegative integral objective alpha:

    phi_alpha(M) = min { alpha . x : M x >= 1, x integral >= 0 }
    psi_alpha(M) = max { y . 1   : y M <= alpha, y integral >= 0, len(y) = m }

For 0/1 covering constraints restricting x to {0,1}^n is lossless (raising
a coordinate above 1 never helps), which the tests cross-check against a
wider box.  psi is the packing search that simis membership also runs: g
lies in I^k iff psi_g >= k for I's incidence matrix.  The module also
provides the duality-gap scan (one lexicographic pass over a bounded alpha
box that stops at the first gap) and the structural characterization of
the matrices with no gap anywhere (row sums n-2) by the zero counts of
their columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product

from .clutters import IncidenceMatrix
from .errors import DimensionMismatch, ResourceLimitExceeded
from .monomials import _bit_vector, _Packing, _positions, minimal_cover_masks

PHI_COLUMN_CAP = 20
SCAN_STATE_CAP = 5_000_000


def _checked_alpha(M: IncidenceMatrix, alpha) -> tuple[int, ...]:
    alpha = tuple(alpha)
    if len(alpha) != M.cols:
        raise DimensionMismatch(
            f"objective of length {len(alpha)} for a {M.cols}-column matrix"
        )
    if any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError(f"objective must be nonnegative integers: {alpha!r}")
    return alpha


def phi(M: IncidenceMatrix, alpha) -> tuple[int, tuple[int, ...]]:
    """Exact covering optimum and an optimal 0/1 vector x.

    Brute force over x in {0,1}^n in increasing bitmask order; ties break to
    the smallest bitmask.  Each mask's cost is one add to the cost of the
    mask without its lowest bit, and only a mask cheaper than the best cover
    so far is tested against the rows.
    """
    alpha = _checked_alpha(M, alpha)
    n = M.cols
    if M.rows == 0:
        return 0, (0,) * n
    if n > PHI_COLUMN_CAP:
        raise ResourceLimitExceeded(f"covering brute force capped at {PHI_COLUMN_CAP} columns")
    row_masks = M.row_masks()
    # Not minimal_cover_masks: this independent search re-checks gap scan hits.
    # above the cost of the all-ones x, a cover (no zero rows), so one is found
    best = sum(alpha) + 1
    best_mask = 0
    cost = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        value = cost[mask] = cost[mask ^ low] + alpha[low.bit_length() - 1]
        if value < best:
            for rm in row_masks:
                if not mask & rm:
                    break
            else:
                best = value
                best_mask = mask
    return best, _bit_vector(best_mask, n)


def psi(M: IncidenceMatrix, alpha) -> tuple[int, tuple[int, ...]]:
    """Exact packing optimum and its lexicographically greatest optimal y (length m).

    One branch-and-bound run of :class:`~clutterkit.monomials._Packing`,
    refused past ``monomials.PACKING_VISIT_CAP`` row visits.
    """
    alpha = _checked_alpha(M, alpha)
    return _Packing(M.row_masks()).search(alpha)


@dataclass(frozen=True)
class LpReport:
    """Optimal values and certificates for the covering/packing pair."""

    phi: int
    psi: int
    x_opt: tuple[int, ...]
    y_opt: tuple[int, ...]

    @property
    def gap(self) -> int:
        return self.phi - self.psi

    def to_json_dict(self) -> dict:
        return {
            "phi": self.phi,
            "psi": self.psi,
            "gap": self.gap,
            "x_opt": list(self.x_opt),
            "y_opt": list(self.y_opt),
        }


def solve_lp(M: IncidenceMatrix, alpha) -> LpReport:
    phi_value, x_opt = phi(M, alpha)
    psi_value, y_opt = psi(M, alpha)
    if psi_value > phi_value:
        raise RuntimeError(
            "internal invariant violated: packing optimum exceeds covering optimum"
        )
    return LpReport(phi_value, psi_value, x_opt, y_opt)


@lru_cache(maxsize=4)
def _positive_masks(n: int, box: int) -> tuple[int, ...]:
    """The mask of the positive entries of every alpha in {0..box}^n, in the
    lexicographic order of ``product(range(box + 1), repeat=n)``."""
    values = list(range(1 << n))  # one int object per mask, shared by every entry
    masks = [0]
    for j in range(n):
        bit = 1 << j
        masks = [values[m | bit] if d else m for m in masks for d in range(box + 1)]
    return tuple(masks)


def duality_gap_search(M: IncidenceMatrix, box: int) -> tuple[tuple[int, ...], LpReport] | None:
    """First alpha in {0..box}^n (lexicographic) with phi > psi, or None.

    One lexicographic pass over the box that stops at the first gap.  psi
    comes from a dynamic program over the objectives seen so far: every
    alpha - row is lexicographically earlier than alpha, so its value is
    already in the flat table, at alpha's mixed-radix index minus the row's
    stride offset.  The rows that fit under alpha are the rows whose support
    lies inside alpha's positive mask P, so a row table lists, for each P,
    the offsets of the rows that fit; it is built by enumerating the
    supersets of each row's support (2^(zero columns) entries per row), and
    psi is one more than the best psi at alpha - row over those rows.

    An objective that no row fits has no gap and is passed over: psi = 0
    there, and phi = 0 too, because every row then has a column where alpha
    is 0, so the zero set of alpha is a cover of weight 0.  Every other
    objective compares psi with the alpha-weights of the minimal covers
    (from :func:`~clutterkit.monomials.minimal_cover_masks`, computed
    once); it has a gap only if every cover weighs more than psi, so the
    cover loop stops at the first that does not.  A found witness is
    re-solved with the standalone phi/psi as a cross-check.

    Refused up front when the two tables would hold more than
    ``SCAN_STATE_CAP`` entries: (box+1)^n psi values plus the row table.
    """
    if type(box) is not int or box < 1:
        raise ValueError(f"scan box must be >= 1, got {box!r}")
    n = M.cols
    objectives = (box + 1) ** n
    row_entries = sum(1 << (n - sum(row)) for row in M.data)
    if objectives + row_entries > SCAN_STATE_CAP:
        raise ResourceLimitExceeded(
            f"scan over {objectives} objectives ({objectives + row_entries} table "
            f"entries) exceeds the state cap of {SCAN_STATE_CAP}"
        )
    if M.rows == 0:
        return None

    row_masks = M.row_masks()
    cover_indices = list(map(_positions, minimal_cover_masks(row_masks, n)))
    strides = [(box + 1) ** (n - 1 - j) for j in range(n)]
    full = (1 << n) - 1
    # positive mask -> index offsets of alpha - row for the rows that fit
    fitting: dict[int, list[int]] = {}
    for support, row in zip(row_masks, M.data):
        offset = sum(compress(strides, row))
        zeros = full ^ support
        extra = zeros
        while True:
            fitting.setdefault(support | extra, []).append(offset)
            if not extra:
                break
            extra = (extra - 1) & zeros

    packing_best: list[int] = []
    append = packing_best.append
    scan = zip(_positive_masks(n, box), product(range(box + 1), repeat=n))
    for index, (positive, alpha) in enumerate(scan):
        offsets = fitting.get(positive)
        if offsets is None:
            append(0)
            continue
        best = max([packing_best[index - o] for o in offsets]) + 1
        append(best)
        entry = alpha.__getitem__
        for idx in cover_indices:
            if sum(map(entry, idx)) <= best:
                break
        else:
            phi_value = min(sum(map(entry, idx)) for idx in cover_indices)
            report = solve_lp(M, alpha)
            if report.phi != phi_value or report.psi != best:
                raise RuntimeError(
                    "internal invariant violated: scan optima disagree with "
                    "the standalone solvers"
                )
            return alpha, report
    return None


# --- structural characterization of gap-free row-sum-(n-2) matrices --------

def structural_mfmc_check(M: IncidenceMatrix) -> bool:
    """True iff M is, up to independent row and column permutations, the
    clutter matrix of one of the six reference graphs plus isolated vertices.

    Requires every row sum to equal cols-2 and distinct rows.  M, whose rows
    are nonzero, is then the incidence matrix of an (n-2)-uniform clutter
    (equal-size edges are automatically an antichain).  This is the
    theorem-exact predicate for "no duality gap at any objective"; the
    bounded alpha scan is the falsification tool.

    Decided by column degrees.  Every row has exactly two zeros, so M is
    the clutter matrix of a simple graph G on the columns: a row is the
    complement of the edge at its two zeros.  A column's zero count is its
    degree in G, and the all-ones columns are G's isolated vertices.
    Permuting rows and columns gives an isomorphic G, and appending
    all-ones columns adds isolated vertices, so M passes iff G is one of
    the reference graphs plus isolated vertices.  Without its isolated
    vertices, a graph whose degrees are all at most 2 is a disjoint union
    of paths and cycles, and on at most 4 vertices these are exactly K2,
    P3, K3, 2K2, P4 and C4.  ``n >= 2`` matters only without rows: K2's
    clutter is the edgeless 0 x 2 matrix, and isolated vertices widen it to
    every wider 0-row matrix, while 0-row matrices with fewer columns fail.
    A matrix with rows has n >= 3, and more than 4 rows give more than 4
    touched columns or a degree above 2.
    """
    n = M.cols
    for row in M.data:
        if sum(row) != n - 2:
            raise ValueError(
                f"row sum {sum(row)} differs from cols-2 = {n - 2}: {row!r}"
            )
    if len(set(M.data)) != M.rows:
        raise ValueError("rows must be pairwise distinct")
    touched = [M.rows - ones for ones in map(sum, zip(*M.data)) if ones < M.rows]
    return n >= 2 and len(touched) <= 4 and max(touched, default=0) <= 2
