"""Exact arithmetic on monomials and squarefree-generated monomial ideals.

A monomial is an exponent tuple over a fixed ordered variable set
(x1, ..., xn); the all-zeros tuple is the unit monomial 1.  Ideals are
stored by their unique minimal generating set, sorted lexicographically,
so equal ideals have identical representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import DimensionMismatch, ResourceLimitExceeded

Monomial = tuple[int, ...]

# Inclusion-minimal variable support of a monomial ideal generator set;
# vertices/variables are 1-based.
PrimeSupport = frozenset[int]

MINIMAL_COVER_VERTEX_CAP = 20
SIMIS_CANDIDATE_CAP = 100_000
SIMIS_SEARCH_CAP = 500_000


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b, i.e. a <= b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _support_mask(m: Monomial) -> int:
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def minimal_generators(candidates) -> tuple[Monomial, ...]:
    """Divisibility antichain of a candidate set, sorted lexicographically.

    If the unit monomial is present the result is (1,); an empty input
    yields ().
    """
    uniq = sorted(set(candidates), key=lambda m: (sum(m), m))
    kept: list[tuple[int, int, Monomial]] = []  # (degree, support mask, monomial)
    for m in uniq:
        d = sum(m)
        mask = _support_mask(m)
        dominated = False
        for dk, km, k in kept:
            # kept is degree-sorted; equal-degree distinct monomials never divide
            if dk >= d:
                break
            if km & ~mask:
                continue
            if divides(k, m):
                dominated = True
                break
        if not dominated:
            kept.append((d, mask, m))
    return tuple(sorted(m for _, _, m in kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal in n variables, held by its minimal generating set.

    The empty generator tuple is the zero ideal; the single unit monomial
    is the unit ideal.  Construct through :func:`minimalize` (or the
    operations below) so the antichain/sort invariants hold.
    """

    n: int
    gens: tuple[Monomial, ...]

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, ((0,) * n,))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        n = data["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"variable count must be a nonnegative integer, got {n!r}")
        gens = []
        for g in data["gens"]:
            if len(g) != n:
                raise DimensionMismatch(
                    f"exponent vector {g!r} has length {len(g)}, expected {n}"
                )
            if any(type(e) is not int or e < 0 for e in g):
                raise ValueError(f"exponents must be nonnegative integers: {g!r}")
            gens.append(tuple(g))
        return minimalize(gens, n)


def _check_same_n(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.n != J.n:
        raise DimensionMismatch(f"ideals live in {I.n} and {J.n} variables")


def minimalize(gens, n: int) -> MonomialIdeal:
    """Canonical ideal generated by `gens`: the divisibility antichain."""
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != n:
            raise DimensionMismatch(
                f"exponent vector of length {len(g)} in a {n}-variable ring"
            )
        if any(e < 0 for e in g):
            raise ValueError(f"negative exponent in {g!r}")
    return MonomialIdeal(n, minimal_generators(gens))


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Product ideal; the zero ideal absorbs, the unit ideal is the identity."""
    _check_same_n(I, J)
    if I.is_zero or J.is_zero:
        return MonomialIdeal.zero(I.n)
    cands = {monomial_mul(g, h) for g in I.gens for h in J.gens}
    return MonomialIdeal(I.n, minimal_generators(cands))


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th ordinary power by repeated multiplication, minimalizing each step."""
    if k < 1:
        raise ValueError(f"power requires k >= 1, got {k}")
    result = I
    for _ in range(k - 1):
        result = multiply(result, I)
    return result


def contains_monomial(I: MonomialIdeal, m: Monomial) -> bool:
    """True iff m lies in I, i.e. some generator divides m."""
    m = tuple(m)
    if len(m) != I.n:
        raise DimensionMismatch(f"monomial of length {len(m)} vs n={I.n}")
    return any(divides(g, m) for g in I.gens)


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection: the minimal lcms of the generator pairs."""
    _check_same_n(I, J)
    cands = (monomial_lcm(g, h) for g in I.gens for h in J.gens)
    return MonomialIdeal(I.n, minimal_generators(cands))


def _require_proper_squarefree(I: MonomialIdeal, op: str) -> None:
    if I.is_zero or I.is_unit:
        raise ValueError(f"{op} requires a nonzero proper ideal")
    if not I.is_squarefree:
        raise ValueError(f"{op} requires squarefree generators")


def minimal_cover_masks(edge_masks, n: int):
    """Yield the inclusion-minimal vertex masks meeting every edge mask.

    Masks come in order of size, then vertex-lexicographically within a
    size, i.e. sorted by (size, sorted vertices).  Walks the subsets of the
    n vertices in that order and skips every superset of a cover already
    yielded; every smaller cover comes earlier, so a cover that is no such
    superset is minimal.  With no edges the only minimal cover is the empty
    mask; with an empty edge mask nothing is yielded.  Capped at
    MINIMAL_COVER_VERTEX_CAP vertices.
    """
    if n > MINIMAL_COVER_VERTEX_CAP:
        raise ResourceLimitExceeded(
            f"minimal cover search over 2^{n} vertex sets exceeds the cap of "
            f"{MINIMAL_COVER_VERTEX_CAP} vertices"
        )
    edge_masks = tuple(edge_masks)
    bits = [1 << i for i in range(n)]
    found: list[int] = []
    # for/else rather than all()/any(): has_packing runs this on every
    # minor, where the generator-expression form was measurably slower.
    for size in range(n + 1):
        for mask in map(sum, combinations(bits, size)):
            for e in edge_masks:
                if not mask & e:
                    break
            else:
                for f in found:
                    if f & mask == f:
                        break
                else:
                    found.append(mask)
                    yield mask


def minimal_primes(I: MonomialIdeal) -> tuple[PrimeSupport, ...]:
    """Inclusion-minimal variable sets meeting the support of every generator.

    For a squarefree ideal these are exactly its minimal primes (equivalently
    the minimal vertex covers of the support hypergraph), in the
    (size, variables) order of :func:`minimal_cover_masks`.
    """
    _require_proper_squarefree(I, "minimal_primes")
    n = I.n
    return tuple(
        frozenset(i + 1 for i in range(n) if mask >> i & 1)
        for mask in minimal_cover_masks((_support_mask(g) for g in I.gens), n)
    )


def prime_power_contains(A: PrimeSupport, k: int, m: Monomial) -> bool:
    """Membership of m in the k-th power of the prime generated by A's variables.

    Holds iff the exponents of m summed over A reach k.
    """
    if not A:
        raise ValueError("prime support must be nonempty")
    if k < 1:
        raise ValueError(f"prime_power_contains requires k >= 1, got {k}")
    if any(v < 1 or v > len(m) for v in A):
        raise DimensionMismatch(f"support {sorted(A)} out of range for n={len(m)}")
    return sum(m[v - 1] for v in A) >= k


def symbolic_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th symbolic power: intersection of the k-th powers of the minimal primes.

    From the unit monomial, each prime power P_A^k is met by the deficit
    rule: the minimal multiples in P_A^k of a generator g are the g*m for
    every monomial m on A's variables of degree k - sum_A(g), or g itself
    when sum_A(g) >= k.
    """
    if k < 1:
        raise ValueError(f"symbolic_power requires k >= 1, got {k}")
    _require_proper_squarefree(I, "symbolic_power")
    return _symbolic_power(I, k, minimal_primes(I))


def _symbolic_power(I: MonomialIdeal, k: int, primes) -> MonomialIdeal:
    """:func:`symbolic_power` with the minimal primes of I already known."""
    gens: tuple[Monomial, ...] = ((0,) * I.n,)
    work = 0
    for p, A in enumerate(primes):
        idx = sorted(v - 1 for v in A)
        if p:  # the cap predicts the pairs an intersection with P_A^k would test
            work += len(gens) * comb(len(idx) + k - 1, k)
            if work > SIMIS_CANDIDATE_CAP:
                raise ResourceLimitExceeded(
                    f"intersecting the {k}-th powers of {len(primes)} minimal primes tests "
                    f"at least {work} generator pairs, above the cap of {SIMIS_CANDIDATE_CAP}"
                )
        cands: list[Monomial] = []
        for g in gens:
            deficit = k - sum(map(g.__getitem__, idx))
            if deficit <= 0:
                cands.append(g)
                continue
            for combo in combinations_with_replacement(idx, deficit):
                m = list(g)
                for i in combo:
                    m[i] += 1
                cands.append(tuple(m))
        gens = minimal_generators(cands)
    return MonomialIdeal(I.n, gens)


@dataclass(frozen=True)
class SimisReport:
    """Outcome of comparing the k-th symbolic and ordinary powers.

    `witness` is the lexicographically first minimal generator of the
    symbolic power that the ordinary power misses; absent iff equal.
    """

    k: int
    equal: bool
    witness: Monomial | None = None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "equal": self.equal,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def is_simis(I: MonomialIdeal, k: int) -> SimisReport:
    """Decide whether the k-th symbolic and ordinary powers of I coincide.

    A squarefree I has I^k inside I^(k), so only the generators of the
    symbolic power need testing: each is looked for in I^k by a
    factorization search (:class:`_PowerSearch`), in lex order.  Zero and
    unit ideals trivially report equal.  Raises if a generator of I misses
    a minimal prime (that would falsify the implementation, never the
    mathematics: it is what puts I^k inside I^(k)).
    """
    if k < 1:
        raise ValueError(f"is_simis requires k >= 1, got {k}")
    if I.is_zero or I.is_unit:
        return SimisReport(k, True)
    if not I.is_squarefree:
        raise ValueError("is_simis requires squarefree generators")
    # The bound is that of building I^k by power(), which this decider does
    # not do: k-1 products, the one of I^j (at most C(g+j-1, j) generators)
    # with the g generators of I testing at most g * C(g+j-1, j) candidates,
    # under g * C(g+k-1, k-1) in all.  It keeps a huge k away from
    # symbolic_power, whose first prime would expand it.
    n_gens = len(I.gens)
    work = n_gens * comb(n_gens + k - 1, k - 1)
    if work > SIMIS_CANDIDATE_CAP:
        raise ResourceLimitExceeded(
            f"building I^{k} from {n_gens} generators tests up to {work} candidate "
            f"monomials, above the cap of {SIMIS_CANDIDATE_CAP}"
        )
    primes = minimal_primes(I)
    gen_masks = [_support_mask(g) for g in I.gens]
    for A in primes:
        prime_mask = sum(1 << (v - 1) for v in A)
        for g, mask in zip(I.gens, gen_masks):
            if not mask & prime_mask:
                raise RuntimeError(
                    f"internal invariant violated: generator {g} misses the minimal "
                    f"prime {sorted(A)}"
                )
    search = _PowerSearch(I, k)
    for g in _symbolic_power(I, k, primes).gens:  # lex order: the first miss is the witness
        if not search.contains(g):
            return SimisReport(k, False, g)
    return SimisReport(k, True)


class _PowerSearch:
    """Membership of monomials in I^k for a squarefree I, by factorization.

    m lies in I^j iff some generator e of I divides m and m/e lies in
    I^(j-1) (the ordinary power; I^0 is the unit ideal).  A product of j
    squarefree monomials has no exponent above j, so a state (j, m) keeps
    m with its exponents clipped to j, which merges equivalent states.  The
    search is depth first on an explicit stack, so no recursion depth grows
    with k; states that lie outside their power are remembered for the
    call.  Every state entered or resumed is one visit, counted over the
    call against SIMIS_SEARCH_CAP.
    """

    def __init__(self, I: MonomialIdeal, k: int) -> None:
        self.k = k
        self.gens = [(_support_mask(e), e) for e in I.gens]
        self.bits = [1 << i for i in range(I.n)]
        self.failed: set[tuple[int, Monomial]] = set()
        self.visits = 0

    def _visit(self) -> None:
        self.visits += 1
        if self.visits > SIMIS_SEARCH_CAP:
            raise ResourceLimitExceeded(
                f"searching I^{self.k} for the symbolic generators made {self.visits} "
                f"state visits (a count, not a prediction), above the cap of {SIMIS_SEARCH_CAP}"
            )

    def contains(self, g: Monomial) -> bool:
        """True iff g, with no exponent above k, lies in I^k."""
        gens, bits, failed = self.gens, self.bits, self.failed
        # a frame is [state exponents, j, support mask, next generator index]
        stack = [[g, self.k, sum(b for b, x in zip(bits, g) if x), 0]]
        while stack:
            self._visit()
            frame = stack[-1]
            m, j, support, start = frame
            for t in range(start, len(gens)):
                mask, e = gens[t]
                if mask & ~support:
                    continue
                if j == 1:
                    return True
                j1 = j - 1
                child = tuple(j1 if x == j else x - y for x, y in zip(m, e))
                if (j1, child) in failed:
                    continue
                frame[3] = t + 1
                stack.append([child, j1, sum(b for b, x in zip(bits, child) if x), 0])
                break
            else:
                failed.add((j, m))
                stack.pop()
        return False
