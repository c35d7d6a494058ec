"""Exact integer covering/packing program pair for 0/1 matrices.

For an m x n incidence matrix M and a nonnegative integral objective alpha:

    phi_alpha(M) = min { alpha . x : M x >= 1, x integral >= 0 }
    psi_alpha(M) = max { y . 1   : y M <= alpha, y integral >= 0, len(y) = m }

For 0/1 covering constraints restricting x to {0,1}^n is lossless (raising
a coordinate above 1 never helps), which the tests cross-check against a
wider box.  The module also provides the all-ones column extension, the
duality-gap scan (one lexicographic pass over a bounded alpha box that
stops at the first gap), and the structural characterization of the
matrices with no gap anywhere (row sums n-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product

from .clutters import IncidenceMatrix, canonical_form
from .errors import DimensionMismatch, ResourceLimitExceeded
from .monomials import minimal_cover_masks

PHI_COLUMN_CAP = 20
PSI_ROW_VISIT_CAP = 2_000_000
SCAN_STATE_CAP = 5_000_000


def extend_matrix(A: IncidenceMatrix, r: int) -> IncidenceMatrix:
    """Append r all-ones columns (a universal vertex per column); r=0 is A."""
    if r < 0:
        raise ValueError(f"extension count must be >= 0, got {r}")
    if r == 0:
        return A
    data = tuple(tuple(row) + (1,) * r for row in A.data)
    return IncidenceMatrix(A.rows, A.cols + r, data)


def _checked_alpha(M: IncidenceMatrix, alpha) -> tuple[int, ...]:
    alpha = tuple(alpha)
    if len(alpha) != M.cols:
        raise DimensionMismatch(
            f"objective of length {len(alpha)} for a {M.cols}-column matrix"
        )
    if any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError(f"objective must be nonnegative integers: {alpha!r}")
    if any(not any(row) for row in M.data):
        raise ValueError("zero row makes the covering constraints infeasible")
    return alpha


def phi(M: IncidenceMatrix, alpha) -> tuple[int, tuple[int, ...]]:
    """Exact covering optimum and an optimal 0/1 vector x.

    Brute force over x in {0,1}^n; ties break to the smallest bitmask.
    """
    alpha = _checked_alpha(M, alpha)
    n = M.cols
    if M.rows == 0:
        return 0, (0,) * n
    if n > PHI_COLUMN_CAP:
        raise ResourceLimitExceeded(f"covering brute force capped at {PHI_COLUMN_CAP} columns")
    row_masks = M.row_masks()
    best = None
    best_mask = 0
    # Not minimal_cover_masks: this independent search re-checks gap scan hits.
    for mask in range(1 << n):
        if any(not mask & rm for rm in row_masks):
            continue
        cost = sum(alpha[j] for j in range(n) if mask >> j & 1)
        if best is None or cost < best:
            best = cost
            best_mask = mask
    assert best is not None  # the all-ones x is feasible (no zero rows)
    return best, tuple(best_mask >> j & 1 for j in range(n))


def psi(M: IncidenceMatrix, alpha) -> tuple[int, tuple[int, ...]]:
    """Exact packing optimum and an optimal multiplicity vector y (length m).

    Bounded enumeration, depth first over the rows in order: y_i runs down
    from its cap, the smallest residual objective entry on row i's support,
    to 0 (the last row takes only its cap: any lower value is a smaller
    total), and a branch is cut when even the caps of the rows left cannot
    beat the incumbent.  Each node reads the caps of every row left, so the
    search counts row visits (one for a complete y) and refuses once they
    pass PSI_ROW_VISIT_CAP.
    """
    alpha = _checked_alpha(M, alpha)
    m = M.rows
    if m == 0:
        return 0, ()
    supports = [tuple(j for j, x in enumerate(row) if x) for row in M.data]
    residual = list(alpha)
    best_value = 0
    best_y: tuple[int, ...] = (0,) * m
    y = [0] * m
    visits = 0
    i = total = 0
    while True:
        # node: rows < i hold y[:i] (total), every y[r] for r >= i is 0
        visits += m - i or 1
        if visits > PSI_ROW_VISIT_CAP:
            raise ResourceLimitExceeded(
                f"packing search made {visits} row visits (a count, not a "
                f"prediction), above the cap of {PSI_ROW_VISIT_CAP}"
            )
        if i == m:
            if total > best_value:
                best_value = total
                best_y = tuple(y)
        else:
            caps = [min(residual[j] for j in supports[r]) for r in range(i, m)]
            if total + sum(caps) > best_value:
                y[i] = caps[0]
                for j in supports[i]:
                    residual[j] -= caps[0]
                total += caps[0]
                i += 1
                continue
        # backtrack to the deepest row whose value can still go down by one
        while True:
            i -= 1
            if i < 0:
                return best_value, best_y
            if y[i]:
                # a lower last entry only lowers the total: zero it and go on
                step = 1 if i < m - 1 else y[i]
                y[i] -= step
                for j in supports[i]:
                    residual[j] += step
                total -= step
                if i < m - 1:
                    i += 1
                    break


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


def duality_gap_search(M: IncidenceMatrix, box: int) -> tuple[tuple[int, ...], LpReport] | None:
    """First alpha in {0..box}^n (lexicographic) with phi > psi, or None.

    One lexicographic pass over the box that stops at the first gap.  psi
    comes from a dynamic program over the objectives seen so far: every
    alpha - row is lexicographically earlier than alpha, so its value is
    already in the flat table, at alpha's mixed-radix index minus the row's
    stride offset.  phi is the least alpha-weight of a minimal cover (from
    :func:`~clutterkit.monomials.minimal_cover_masks`, computed once); an
    objective has a gap only if every cover weighs more than psi, so the
    cover loop stops at the first that does not.  A found witness is
    re-solved with the standalone phi/psi as a cross-check.
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
    bits = [1 << j for j in range(n)]
    strides = [(box + 1) ** (n - 1 - j) for j in range(n)]
    # (support mask, index offset of alpha - row) per row
    rows = [
        (sum(compress(bits, row)), sum(compress(strides, row))) for row in M.data
    ]

    packing_best: list[int] = []
    for index, alpha in enumerate(product(range(box + 1), repeat=n)):
        positive = sum(compress(bits, alpha))
        best = 0
        for support, offset in rows:
            if support & positive == support:
                value = packing_best[index - offset] + 1
                if value > best:
                    best = value
        packing_best.append(best)
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

def _base_matrices() -> tuple[tuple[str, IncidenceMatrix], ...]:
    """Incidence matrices of the clutters of the six reference graphs.

    The two-vertex complete graph contributes two bases: its own clutter is
    edgeless (0x2), and since appending universal vertices to an edgeless
    clutter cannot create edges, the single-edge clutter it induces once an
    isolated vertex is present (1x3) must be a base of its own.
    """
    def mat(rows, cols):
        return IncidenceMatrix.from_rows(rows, cols)

    return (
        ("K2", mat([], 2)),
        ("K2+isolated", mat([(0, 0, 1)], 3)),
        ("K3", mat([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)),
        ("P3", mat([(0, 0, 1), (1, 0, 0)], 3)),
        ("2K2", mat([(1, 1, 0, 0), (0, 0, 1, 1)], 4)),
        ("P4", mat([(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0)], 4)),
        ("C4", mat([(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0)], 4)),
    )


BASE_MATRICES = _base_matrices()


@lru_cache(maxsize=None)
def _base_canonical_form(base_index: int, r: int):
    return canonical_form(extend_matrix(BASE_MATRICES[base_index][1], r))


def structural_mfmc_check(M: IncidenceMatrix) -> bool:
    """True iff M is, up to independent row and column permutations, an
    all-ones-column extension of one of the base matrices.

    Requires every row sum to equal cols-2 and the rows to be distinct and
    nonzero (M is then the incidence matrix of an (n-2)-uniform clutter,
    whose equal-size edges are automatically an antichain).  This is the
    theorem-exact predicate for "no duality gap at any objective"; the
    bounded alpha scan is the falsification tool.
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
    # Only a base with M's row count can match; most matrices have more
    # rows than any base, and then the cols! canonical form is never built.
    candidates = [
        (index, n - base.cols) for index, (_, base) in enumerate(BASE_MATRICES)
        if base.rows == M.rows and base.cols <= n
    ]
    if not candidates:
        return False
    form = canonical_form(M)
    return any(form == _base_canonical_form(index, r) for index, r in candidates)
