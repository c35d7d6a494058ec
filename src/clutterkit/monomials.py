"""Exact arithmetic on monomials and squarefree-generated monomial ideals.

A monomial is an exponent tuple over a fixed ordered variable set
(x1, ..., xn); the all-zeros tuple is the unit monomial 1.  Ideals are
stored by their unique minimal generating set, sorted lexicographically,
so equal ideals have identical representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import DimensionMismatch, ResourceLimitExceeded

Monomial = tuple[int, ...]

# Inclusion-minimal variable support of a monomial ideal generator set;
# vertices/variables are 1-based.
PrimeSupport = frozenset[int]

MINIMAL_COVER_VERTEX_CAP = 20
SYMBOLIC_STEP_CAP = 20_000_000
PACKING_VISIT_CAP = 2_000_000


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b, i.e. a <= b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


# A vertex set has three encodings: a mask (bit i = variable x_{i+1}), a 0/1
# exponent vector, and its 0-based positions.  These three helpers convert.
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a 0/1 byte to its binary digit


def _support_mask(m: Monomial) -> int:
    """Past 32 entries from binary digits: ``mask |= 1 << i`` copies a
    growing int, so the loop is quadratic in m's length."""
    if len(m) > 32:
        return int(bytes(map(bool, reversed(m))).translate(_DIGITS), 2)
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def _bit_vector(mask: int, n: int) -> tuple[int, ...]:
    """Bits 0..n-1 of mask, from its binary digits: linear in n, not quadratic."""
    return tuple(map(int, bin(mask)[:1:-1].ljust(n, "0")))


def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of mask, 0-based and ascending, from its binary digits."""
    return tuple([i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"])


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
    is the unit ideal.  Construction checks the exponent vectors and their
    strictly increasing lex order; the antichain is :func:`minimalize`'s.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        _check_exponent_vectors(self.gens, self.n)
        for g, h in zip(self.gens, self.gens[1:]):
            if g >= h:
                raise ValueError(f"generators not strictly lex-increasing: {g!r} before {h!r}")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    @cached_property
    def _prime_parts(self) -> tuple[_PrimeIndex, tuple[int, ...]]:
        """The one walk of a proper squarefree ideal's minimal primes, kept on
        first use for :func:`minimal_primes`, :func:`symbolic_power` and
        :func:`is_simis` at every k: the index of the primes (``holds`` their
        masks), once every generator is checked to meet each, and the support
        masks of the generators, the packing rows.  The walk reads them lazily,
        so its vertex cap refuses before an n-bit mask (quadratic in n) is
        built; when the walk or that check raises, nothing is kept.
        """
        primes = tuple(minimal_cover_masks(map(_support_mask, self.gens), self.n))
        gen_masks = tuple(map(_support_mask, self.gens))
        for prime in primes:
            for g, mask in zip(self.gens, gen_masks):
                if not mask & prime:
                    raise RuntimeError(
                        f"internal invariant violated: generator {g} misses the minimal "
                        f"prime {[i + 1 for i in _positions(prime)]}"
                    )
        return _prime_index(self.n, primes), gen_masks

    def __reduce__(self):
        # rebuilt from its fields, so that what is cached stays out of a pickle
        return type(self), (self.n, self.gens)

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
        return minimalize(data["gens"], data["n"])


def _check_same_n(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.n != J.n:
        raise DimensionMismatch(f"ideals live in {I.n} and {J.n} variables")


def _check_exponent_vectors(gens, n: int) -> None:
    """n is an int >= 0; each vector a tuple of n ints >= 0 (not bools)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"variable count must be a nonnegative integer, got {n!r}")
    for g in gens:
        if type(g) is not tuple:
            raise ValueError(f"exponent vector {g!r} is not a tuple")
        if len(g) != n:
            raise DimensionMismatch(f"exponent vector {g!r} has length {len(g)}, expected {n}")
        if any(type(e) is not int or e < 0 for e in g):
            raise ValueError(f"exponents must be nonnegative integers: {g!r}")


def minimalize(gens, n: int) -> MonomialIdeal:
    """Canonical ideal generated by `gens`: the divisibility antichain."""
    gens = [tuple(g) for g in gens]
    _check_exponent_vectors(gens, n)
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
    if type(k) is not int or k < 1:
        raise ValueError(f"power requires k >= 1, got {k!r}")
    result = I
    for _ in range(k - 1):
        result = multiply(result, I)
    return result


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
    (size, variables) order of :func:`minimal_cover_masks`, as the ideal keeps them.
    """
    _require_proper_squarefree(I, "minimal_primes")
    return tuple(frozenset(i + 1 for i in _positions(mask)) for mask in I._prime_parts[0].holds)


def symbolic_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th symbolic power: intersection of the k-th powers of the minimal primes.

    From the unit monomial, each prime power P_A^k is met by the deficit
    rule: the minimal multiples in P_A^k of a generator g are the g*m for
    every monomial m on A's variables of degree k - sum_A(g), or g itself
    when sum_A(g) >= k.  Refused once the chain's own count of steps passes
    SYMBOLIC_STEP_CAP (see :func:`_symbolic_power`).
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"symbolic_power requires k >= 1, got {k!r}")
    _require_proper_squarefree(I, "symbolic_power")
    return _symbolic_power(I, k, I._prime_parts[0].holds)


def _packed_monomials(units: list[int], d: int) -> list[int]:
    """Every monomial of degree d in the variables with the given packed units.

    Each is built by one multiply-add per variable, never one per degree.
    """
    partial = [(0, 0)]  # (packed monomial, degree) in all variables but the last
    for u in units[:-1]:
        partial = [(m + e * u, t + e) for m, t in partial for e in range(d - t + 1)]
    return [m + (d - t) * units[-1] for m, t in partial]


def _symbolic_power(I: MonomialIdeal, k: int, primes) -> MonomialIdeal:
    """The intersection of the P_A^k over `primes`, the masks of I's minimal primes.

    With k = 1 this is the intersection of the primes themselves, which
    :func:`clutterkit.graphs.primary_decomposition_cx` checks against I.

    Each monomial on the chain is one int with a field of w = k.bit_length() + 1
    bits per variable, x1 in the top field, so int order is lex order.  No
    exponent on the chain exceeds k (a candidate's exponents on A sum to k,
    and the rest are a generator's), so the top bit of every field is free;
    with G holding those guard bits, b | c iff ((c | G) - b) & G == G.

    Only the new candidates are minimalized.  A generator already in P_A^k
    is kept untested: no candidate g*m divides it, since g would too, and
    both lie in one antichain.  A divisor h of a candidate c lies in P_A^k,
    so its exponents on A sum to at least k = sum_A(c) while h <= c: h and c
    agree on A.  And h <= c gives h <= c as ints.  So the candidates are
    taken in int order, each tested only against the kept and accepted
    generators with its fields on A (an equal int is a duplicate).

    The chain counts its own steps against SYMBOLIC_STEP_CAP, each part
    added before the work it counts: at every prime, one per generator
    visited; 10 per candidate, sized with comb before any is built (a
    candidate is built, sorted and held, and the weight keeps a refused
    request to at most 2,000,000 of them); and one per divisibility test,
    a candidate's bucket length at a time.  A principal ideal makes one
    candidate per prime, whatever k is.
    """
    n = I.n
    w = k.bit_length() + 1
    shifts = [(n - 1 - i) * w for i in range(n)]
    field = (1 << w) - 1
    guard = sum(1 << (s + w - 1) for s in shifts)
    gens = [0]  # packed monomials, starting from the unit monomial
    steps = 0  # never decreases, so every break below ends at the one raise after the loop
    for A in primes:
        steps += len(gens)
        if steps > SYMBOLIC_STEP_CAP:
            break
        a_shifts = [shifts[i] for i in _positions(A)]
        a_mask = sum(field << s for s in a_shifts)
        groups: dict[int, list[int]] = {}  # the generators by their fields on A
        for g in gens:
            groups.setdefault(g & a_mask, []).append(g)
        buckets: dict[int, list[int]] = {}  # the generators in P_A^k by their fields on A
        short: list[tuple[int, list[int]]] = []  # (deficit, generators) outside P_A^k
        for a_part, group in groups.items():
            deficit = k - sum(a_part >> s & field for s in a_shifts)
            if deficit > 0:
                short.append((deficit, group))
                steps += 10 * len(group) * comb(len(a_shifts) + deficit - 1, deficit)
            else:
                buckets[a_part] = group
        if steps > SYMBOLIC_STEP_CAP:
            break
        units = [1 << s for s in a_shifts]
        cands = [g + m for d, group in short for m in _packed_monomials(units, d) for g in group]
        cands.sort()
        for c in cands:
            divisors = buckets.setdefault(c & a_mask, [])
            steps += len(divisors)
            if steps > SYMBOLIC_STEP_CAP:
                break
            c_guarded = c | guard
            for b in divisors:
                if (c_guarded - b) & guard == guard:
                    break
            else:
                divisors.append(c)
        gens = [g for bucket in buckets.values() for g in bucket]
    if steps > SYMBOLIC_STEP_CAP:
        raise ResourceLimitExceeded(
            f"the symbolic-power chain over {len(primes)} minimal primes at k = {k} counted "
            f"{steps} steps (generator visits, 10 per candidate, divisibility tests), "
            f"above the cap of {SYMBOLIC_STEP_CAP}"
        )
    return MonomialIdeal(
        n, tuple(tuple(g >> s & field for s in shifts) for g in sorted(gens))
    )


class _PrimeIndex(NamedTuple):
    """The minimal primes of an ideal in n variables, indexed by variable for
    :func:`_symbolic_generators`, each prime by its position."""

    primes_of: tuple[tuple[int, ...], ...]  # the primes holding each variable
    last_of: tuple[tuple[int, ...], ...]  # the primes whose last variable it is
    holds: tuple[int, ...]  # each prime's variables as a mask


def _prime_index(n: int, primes: tuple[int, ...]) -> _PrimeIndex:
    primes_of: list[list[int]] = [[] for _ in range(n)]
    last_of: list[list[int]] = [[] for _ in range(n)]
    for p, mask in enumerate(primes):
        for i in _positions(mask):
            primes_of[i].append(p)
        last_of[mask.bit_length() - 1].append(p)
    return _PrimeIndex(tuple(map(tuple, primes_of)), tuple(map(tuple, last_of)), primes)


def _symbolic_generators(k: int, index: _PrimeIndex):
    """Yield the minimal generators of the intersection of the P_A^k over
    the minimal primes of an ideal that `index` indexes, in lex order: the
    generators of :func:`_symbolic_power`, one at a time.

    Write a(A) for the exponents of a monomial summed over A.  m lies in
    every P_A^k iff a(A) >= k for every A.  Such an m is minimal iff every
    variable with a positive exponent lies in a tight prime, one with
    a(A) = k: lowering x_i by one keeps m in every P_A^k iff every A that
    holds x_i has a(A) > k.

    The search sets x1, ..., xn in turn, depth first, trying each exponent
    in ascending order, so the leaves come in lex order.  With a(A) summed
    over the variables set so far, it keeps four rules:

    * Lower bound: x_i is at least k - a(A) for every A whose last variable
      is x_i.  No later variable adds to a(A), so a smaller x_i leaves the
      monomial outside P_A^k for good.  So every leaf lies in every P_A^k.
    * Upper bound: a positive x_i is at most the largest k - a(A) over the A
      that hold x_i.  A larger x_i puts every such A over k, sums never go
      down, so x_i could never lie in a tight prime.
    * Cut: a branch ends as soon as some earlier positive x_j has every one
      of its primes over k, for the same reason.
    * Leaf: at x_n every a(A) is final and at least k, and the upper bound
      and the cut leave each positive variable a prime with a(A) <= k, which
      is then tight.  So every leaf is minimal.  Every prime that holds x_n
      ends there, so its lower and upper bounds agree: x_n takes one value.

    A generator breaks no rule, so none is lost.  The upper bound and the
    cut are one test as x_i goes up: x_i stops at the first value that
    leaves a positive x_j, j <= i (x_i included), with every prime over k,
    as every larger value would too.  Only x_i and the variables of a prime
    that has just passed k need the test.

    The search counts its own steps against SYMBOLIC_STEP_CAP: one per read
    or update of a prime's sum, each batch added before its work and the
    total checked at every node.  A principal ideal makes one node per
    variable, whatever k is.
    """
    primes_of, last_of, holds = index
    n = len(primes_of)
    sums = [0] * len(holds)
    x = [0] * n
    steps = 0

    def lift(i: int, e: int) -> bool:
        """Raise x_i by e; False iff some positive x_j, j <= i, then has
        every prime over k.  Only x_i and the variables of a prime that
        passes k here can be such an x_j."""
        nonlocal steps
        mine = primes_of[i]
        steps += len(mine)
        passed = 0
        for p in mine:
            s = sums[p]
            sums[p] = s + e
            if s <= k < s + e:
                passed |= holds[p]
        x[i] += e
        if not x[i]:
            return True
        passed = (passed | 1 << i) & ((2 << i) - 1)
        while passed:
            j = passed.bit_length() - 1
            passed ^= 1 << j
            if x[j]:
                steps += len(primes_of[j])
                for p in primes_of[j]:
                    if sums[p] <= k:
                        break
                else:
                    return False
        return True

    def drop(i: int) -> None:
        """Set x_i back to 0."""
        nonlocal steps
        e = x[i]
        mine = primes_of[i]
        steps += len(mine)
        for p in mine:
            sums[p] -= e
        x[i] = 0

    i = 0
    while True:
        # node: x[:i] is set and sums holds its a(A); x[i:] is all 0
        steps += len(last_of[i])
        if steps > SYMBOLIC_STEP_CAP:
            break
        if lift(i, max([0] + [k - sums[p] for p in last_of[i]])):
            if i < n - 1:
                i += 1
                continue
            # every prime that holds x_n ends there, so x_n has one value
            yield tuple(x)
        # backtrack to the deepest variable that can still go up by one:
        # a branch cut at x_i stays cut for every larger x_i, as sums only grow
        drop(i)
        while True:
            i -= 1
            if i < 0:
                return
            if lift(i, 1):
                i += 1
                break
            drop(i)
    raise ResourceLimitExceeded(
        f"the symbolic-generator search over {len(holds)} minimal primes at k = {k} "
        f"counted {steps} steps (reads and updates of a prime's sum), above the cap "
        f"of {SYMBOLIC_STEP_CAP}"
    )


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
    symbolic power need testing, in lex order.  They come one at a time from
    :func:`_symbolic_generators`, and the first that I^k misses ends the
    call, so I^(k) is built only up to its witness.  g lies in I^k iff k
    generators of I pack under its exponents (psi_g >= k for I's incidence
    matrix), asked of one :class:`_Packing` whose cap covers the call.  The
    generator search's cap counts its own steps, not degrees, so a principal
    ideal answers at any k.  Zero and unit ideals trivially report equal.
    Raises if a generator of I misses a minimal prime (that would falsify the
    implementation, never the mathematics: it is what puts I^k inside I^(k)).

    What does not depend on k is computed once per ideal object and kept on
    it (``MonomialIdeal._prime_parts``): the minimal primes with that check,
    the search's index of them by variable, and the packing rows.  Each call
    still builds its own :class:`_Packing` and runs its own search, so both
    caps count per call.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"is_simis requires k >= 1, got {k!r}")
    if I.is_zero or I.is_unit:
        return SimisReport(k, True)
    if not I.is_squarefree:
        raise ValueError("is_simis requires squarefree generators")
    index, gen_masks = I._prime_parts
    packing = _Packing(gen_masks)
    for g in _symbolic_generators(k, index):  # lex order: the first miss is the witness
        if packing.search(g, k)[0] < k:
            return SimisReport(k, False, g)
    return SimisReport(k, True)


class _Packing:
    """Integer packing over the rows of a 0/1 matrix, given by their masks.

    :meth:`search` maximizes the total of y >= 0 (one entry per row) such
    that the rows on each column j take at most alpha[j] in all.  Depth first
    over the rows in order, y_i runs down from its cap (the least residual
    entry on row i's support) to 0, and a branch is cut when the caps of the
    rows left cannot beat the incumbent.  A row that at most one later row
    meets takes only its cap: raising y_i by one and lowering that row by
    one (if it is not 0) keeps y feasible and its total, so the lex-greatest
    optimum starts with the cap.  Each node reads the cap of every row left;
    these row visits (one for a complete y) are counted over the object's
    lifetime against PACKING_VISIT_CAP.
    """

    def __init__(self, masks: tuple[int, ...]) -> None:
        self.supports = list(map(_positions, masks))
        self.cap_only = [
            sum(bool(mask & later) for later in masks[i + 1:]) <= 1 for i, mask in enumerate(masks)
        ]
        self.visits = 0

    def search(self, alpha, enough: int | None = None):
        """(optimum, lex-greatest optimal y); with `enough`, the first y that
        reaches enough (the incumbent starts at enough - 1), or (enough - 1, None).
        """
        supports, cap_only = self.supports, self.cap_only
        m = len(supports)
        residual = list(alpha)
        best_value, best_y = (0, (0,) * m) if enough is None else (enough - 1, None)
        y = [0] * m
        i = total = 0
        while True:
            # node: rows < i hold y[:i] (total), every y[r] for r >= i is 0
            if enough is not None and total >= enough:
                return total, tuple(y)
            self.visits += m - i or 1
            if self.visits > PACKING_VISIT_CAP:
                raise ResourceLimitExceeded(
                    f"packing search made {self.visits} row visits (a count, not a "
                    f"prediction), above the cap of {PACKING_VISIT_CAP}"
                )
            if i == m:
                if total > best_value:
                    best_value, best_y = total, tuple(y)
            else:
                caps = [min(map(residual.__getitem__, supports[r])) for r in range(i, m)]
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
                    # a row that takes only its cap is zeroed, and the search goes on up
                    step = y[i] if cap_only[i] else 1
                    y[i] -= step
                    for j in supports[i]:
                        residual[j] += step
                    total -= step
                    if not cap_only[i]:
                        i += 1
                        break
