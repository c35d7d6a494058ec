"""Independent checks of decider answers for the deciders-mixed workload.

Nothing here imports clutterkit: every certificate is re-derived by plain
brute force over vertex subsets, edge subsets and generator products, so a
bug in a shared kernel of the library cannot hide behind its own check.
Verdicts that carry no certificate (equal powers, a clutter that packs, a
gap-free scan, optimal values) are compared with the answers that the seed
commit gave for the same instance, stored in ``pool.json``.

Every check returns ``None`` when the answer holds, or a one-line reason.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement


def vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def _minimal(masks) -> list[int]:
    masks = set(masks)
    return [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]


def cover_number(n: int, edges: list[int]) -> int:
    """Smallest vertex set meeting every edge (edges as bitmasks on n vertices)."""
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = vertex_mask(v + 1 for v in combo)
            if all(mask & e for e in edges):
                return size
    raise ValueError("no cover: an edge is empty")


def matching_number(edges: list[int]) -> int:
    """Largest set of pairwise disjoint edges, by exhaustive edge subsets."""
    for size in range(len(edges), 0, -1):
        for combo in combinations(edges, size):
            union = 0
            for e in combo:
                if union & e:
                    break
                union |= e
            else:
                return size
    return 0


def minimal_covers(n: int, supports: list[int]) -> list[int]:
    """All inclusion-minimal vertex sets meeting every support mask."""
    covers = [m for m in range(1, 1 << n) if all(m & s for s in supports)]
    return _minimal(covers)


def check_simis(request: dict, output: dict, expected: dict) -> str | None:
    k = request["k"]
    if output.get("k") != k:
        return f"k {output.get('k')} != {k}"
    if output["equal"] != expected["equal"]:
        return f"equal {output['equal']} != seed answer {expected['equal']}"
    witness = output["witness"]
    if output["equal"]:
        return None if witness is None else "equal powers with a witness"
    gens = [tuple(g) for g in request["gens"]]
    n = request["n"]
    if not isinstance(witness, list) or len(witness) != n:
        return f"malformed witness {witness!r}"
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in gens]
    for prime in minimal_covers(n, supports):
        if sum(witness[i] for i in range(n) if prime >> i & 1) < k:
            return f"witness {witness} misses the prime power on mask {prime:b}"
    for combo in combinations_with_replacement(gens, k):
        product = [sum(col) for col in zip(*combo)]
        if all(p <= w for p, w in zip(product, witness)):
            return f"witness {witness} lies in the ordinary power"
    return None


def check_packing(request: dict, output: dict, expected: dict) -> str | None:
    if output["packs"] != expected["packs"]:
        return f"packs {output['packs']} != seed answer {expected['packs']}"
    minor = output["failing_minor"]
    if output["packs"]:
        return None if minor is None else "packing clutter with a failing minor"
    n = request["n"]
    deleted, contracted = set(minor["deleted"]), set(minor["contracted"])
    if deleted & contracted or not deleted | contracted <= set(range(1, n + 1)):
        return f"bad minor vertex sets {minor}"
    d_mask, c_mask = vertex_mask(deleted), vertex_mask(contracted)
    edges = [vertex_mask(e) for e in request["edges"]]
    stripped = [e & ~c_mask for e in edges if not e & d_mask]
    if any(e == 0 for e in stripped):
        return "failing minor is trivial"
    stripped = _minimal(stripped)
    cov = cover_number(n, stripped)
    mat = matching_number(stripped)
    if (cov, mat) != (minor["cover_number"], minor["matching_number"]):
        return f"minor recomputes to cover {cov}, matching {mat}: {minor}"
    if cov == mat:
        return f"reported minor satisfies Konig: {minor}"
    return None


def check_koenig(request: dict, output: dict, expected: dict) -> str | None:
    got = (output["cover_number"], output["matching_number"], output["koenig"])
    want = (expected["cover_number"], expected["matching_number"], expected["koenig"])
    return None if got == want else f"koenig {got} != seed answer {want}"


def check_lp_certificate(rows: list[list[int]], alpha: list[int], out: dict) -> str | None:
    """Feasibility and value of x (Mx >= 1) and y (yM <= alpha)."""
    x, y = out["x_opt"], out["y_opt"]
    cols = len(alpha)
    if len(x) != cols or len(y) != len(rows) or min(x + y, default=0) < 0:
        return "certificate vectors have the wrong shape or sign"
    for row in rows:
        if sum(a * b for a, b in zip(row, x)) < 1:
            return f"x_opt {x} leaves row {row} uncovered"
    for j in range(cols):
        if sum(y[i] * rows[i][j] for i in range(len(rows))) > alpha[j]:
            return f"y_opt {y} exceeds alpha at column {j + 1}"
    if sum(a * b for a, b in zip(alpha, x)) != out["phi"]:
        return f"alpha.x != phi {out['phi']}"
    if sum(y) != out["psi"]:
        return f"sum(y) != psi {out['psi']}"
    if out["gap"] != out["phi"] - out["psi"]:
        return "gap != phi - psi"
    return None


def check_lp_alpha(request: dict, output: dict, expected: dict) -> str | None:
    if output["alpha"] != request["alpha"]:
        return f"alpha {output['alpha']} != {request['alpha']}"
    got = (output["phi"], output["psi"])
    if got != (expected["phi"], expected["psi"]):
        return f"(phi, psi) {got} != seed answer {(expected['phi'], expected['psi'])}"
    return check_lp_certificate(request["rows"], request["alpha"], output)


def check_lp_scan(request: dict, output: dict, expected: dict) -> str | None:
    if output["gap_found"] != expected["gap_found"]:
        return f"gap_found {output['gap_found']} != seed answer {expected['gap_found']}"
    if not output["gap_found"]:
        return None
    alpha = output["alpha"]
    if len(alpha) != len(request["rows"][0]) or not all(0 <= a <= request["box"] for a in alpha):
        return f"gap objective {alpha} outside the box"
    if output["gap"] <= 0:
        return "reported gap is not positive"
    return check_lp_certificate(request["rows"], alpha, output)


CHECKS = {
    "simis": check_simis,
    "packing": check_packing,
    "koenig": check_koenig,
    "lp-alpha": check_lp_alpha,
    "lp-scan": check_lp_scan,
}
