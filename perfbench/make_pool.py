"""Regenerate ``pool.json``: the decider instances of the deciders-mixed workload.

    python3 perfbench/make_pool.py

The pool is drawn from a fixed seed, so the instances never change; the
answers stored beside them are the ones the library gave when the pool was
made, cross-checked here with the brute force of ``checker.py`` where a cheap
independent route exists. Each benchmark run asks every instance, in an
order shuffled with its own seed.

Rerun it only when the workload itself is meant to change: a new pool is a
new benchmark, and its baseline has to be measured again.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
POOL_SEED = 20251015
N_RANGE = range(5, 9)

# Instances per vertex count.  Packing that packs (a full 3^n minor scan) and
# the LP requests carry most of the time, as in the workload's description.
QUOTA = {
    ("packing", True): 8,
    ("packing", False): 4,
    "koenig": 6,
    "simis": 4,
    "lp-alpha": 8,
    "lp-scan": 8,
}


def random_edges(rng: random.Random, n: int) -> list[list[int]]:
    count = rng.randint(2, 2 * n)
    return [sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))) for _ in range(count)]


def random_rows(rng: random.Random, n: int) -> list[list[int]]:
    rows = []
    while len(rows) < rng.randint(3, n + 3):
        row = [1 if rng.random() < 0.45 else 0 for _ in range(n)]
        if any(row):
            rows.append(row)
    return rows


def make_pool(ck) -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool: list[dict] = []
    for n in N_RANGE:
        for packs, quota in ((True, QUOTA[("packing", True)]), (False, QUOTA[("packing", False)])):
            found = 0
            while found < quota:
                H = ck.make_clutter(n, random_edges(rng, n))
                if ck.has_packing(H).packs != packs:
                    continue
                pool.append({"kind": "packing", "n": n,
                             "edges": [list(e) for e in H.edge_vertex_sets()]})
                found += 1
        for _ in range(QUOTA["koenig"]):
            H = ck.make_clutter(n, random_edges(rng, n))
            pool.append({"kind": "koenig", "n": n,
                         "edges": [list(e) for e in H.edge_vertex_sets()]})
        for i in range(QUOTA["simis"]):
            k = 2 + i % 2
            if i < QUOTA["simis"] // 2:
                edges = sorted({tuple(sorted(rng.sample(range(1, n + 1), 2)))
                                for _ in range(rng.randint(1, 2 * n))})
                gens = [[0 if v in e else 1 for v in range(1, n + 1)] for e in edges]
                pool.append({"kind": "simis", "form": "graph", "n": n, "k": k,
                             "edges": [list(e) for e in edges], "gens": gens})
            else:
                ideal = ck.minimalize(
                    [[1 if rng.random() < 0.5 else 0 for _ in range(n)]
                     for _ in range(rng.randint(3, 2 * n))], n)
                if ideal.is_zero or ideal.is_unit:
                    continue
                pool.append({"kind": "simis", "form": "ideal", "n": n, "k": k,
                             "gens": [list(g) for g in ideal.gens]})
        for i in range(QUOTA["lp-alpha"]):
            pool.append({"kind": "lp-alpha", "form": "json" if i % 2 else "dense",
                         "rows": random_rows(rng, n),
                         "alpha": [rng.randint(0, 4) for _ in range(n)]})
        for i in range(QUOTA["lp-scan"]):
            pool.append({"kind": "lp-scan", "form": "json" if i % 2 else "dense",
                         "rows": random_rows(rng, n), "box": 1 + i % 2})
    for item in pool:
        item["expected"] = answer(ck, item)
    return pool


def _require(reason: str | None) -> None:
    if reason is not None:
        raise SystemExit(f"pool answer fails its independent check: {reason}")


def answer(ck, item: dict) -> dict:
    """The library's answer, cross-checked where an independent route is cheap."""
    kind = item["kind"]
    if kind in ("packing", "koenig"):
        H = ck.make_clutter(item["n"], item["edges"])
        if kind == "packing":
            report = ck.has_packing(H)
            if not report.packs:
                _require(checker.check_packing(item, report.to_json_dict(), {"packs": False}))
            return {"packs": report.packs}
        masks = [checker.vertex_mask(e) for e in item["edges"]]
        cov, mat = checker.cover_number(item["n"], masks), checker.matching_number(masks)
        if (cov, mat) != (ck.cover_number(H), ck.matching_number(H)):
            _require(f"Konig numbers disagree with brute force on {item}")
        return {"koenig": cov == mat, "cover_number": cov, "matching_number": mat}
    if kind == "simis":
        report = ck.is_simis(ck.minimalize(item["gens"], item["n"]), item["k"])
        if not report.equal:
            _require(checker.check_simis(item, report.to_json_dict(), {"equal": False}))
        return {"equal": report.equal}
    M = ck.IncidenceMatrix.from_rows(item["rows"], len(item["rows"][0]))
    if kind == "lp-alpha":
        report = ck.solve_lp(M, tuple(item["alpha"]))
        out = dict(report.to_json_dict(), alpha=item["alpha"])
        _require(checker.check_lp_certificate(item["rows"], item["alpha"], out))
        return {"phi": report.phi, "psi": report.psi}
    return {"gap_found": ck.duality_gap_search(M, item["box"]) is not None}


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import clutterkit

    pool = make_pool(clutterkit)
    text = json.dumps({"seed": POOL_SEED, "instances": pool}, separators=(",", ":"))
    (HERE / "pool.json").write_text(text + "\n", encoding="utf-8")
    kinds: dict[str, int] = {}
    for item in pool:
        kinds[item["kind"]] = kinds.get(item["kind"], 0) + 1
    print(f"wrote {len(pool)} instances: {kinds}")


if __name__ == "__main__":
    main()
