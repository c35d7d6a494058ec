"""Exhaustive cross-check of the five equivalent characterizations.

For every isomorphism class of graphs with at least one edge on n vertices,
the harness computes independently:

  * whether the k-th symbolic and ordinary powers of the clutter's edge
    ideal coincide, for each requested degree k;
  * whether the clutter satisfies the packing property (full minor scan);
  * whether the graph is one of the six reference graphs plus isolated
    vertices;
  * whether the incidence matrix passes the structural no-gap
    characterization (theorem-exact MFMC surrogate);
  * optionally, that a bounded duality-gap scan finds no gap (falsification
    tool only: a clean scan is evidence, not proof).

A report is consistent when every class answers all questions the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clutters import has_packing, incidence_matrix, edge_ideal
from .graphs import (
    ENUMERATION_VERTEX_CAP,
    Graph,
    classify_graph,
    clutter_of_graph,
    enumerate_graphs_upto_iso,
)
from .lp import duality_gap_search, structural_mfmc_check
from .monomials import is_simis

VERIFY_MIN_N = 3
VERIFY_MAX_N = ENUMERATION_VERTEX_CAP


@dataclass(frozen=True)
class TheoremRow:
    graph: Graph
    label: str
    isolated_count: int
    simis: dict[int, bool]
    packs: bool
    classified: bool
    structural_mfmc: bool
    gap_free: bool | None

    def condition_values(self) -> list[bool]:
        values = [self.simis[k] for k in sorted(self.simis)]
        values += [self.packs, self.classified, self.structural_mfmc]
        if self.gap_free is not None:
            values.append(self.gap_free)
        return values

    @property
    def all_agree(self) -> bool:
        return len(set(self.condition_values())) == 1

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "label": self.label,
            "isolated_count": self.isolated_count,
            "simis": {str(k): v for k, v in sorted(self.simis.items())},
            "packs": self.packs,
            "classified": self.classified,
            "structural_mfmc": self.structural_mfmc,
            "gap_free": self.gap_free,
            "all_agree": self.all_agree,
        }


@dataclass(frozen=True)
class TheoremReport:
    n: int
    k_list: tuple[int, ...]
    box: int
    rows: tuple[TheoremRow, ...]

    @property
    def satisfying(self) -> int:
        return sum(1 for row in self.rows if row.classified and row.all_agree)

    @property
    def failing(self) -> int:
        return sum(1 for row in self.rows if not row.classified and row.all_agree)

    @property
    def consistent(self) -> bool:
        return all(row.all_agree for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k_list": list(self.k_list),
            "box": self.box,
            "note": (
                "symbolic-vs-ordinary power equality is checked at the listed "
                "degrees (any single degree >= 2 is decisive for this family); "
                "the no-gap property is decided exactly by the structural matrix "
                "characterization, while the bounded objective scan (box > 0) "
                "can only falsify it"
            ),
            "classes": len(self.rows),
            "satisfying": self.satisfying,
            "failing": self.failing,
            "consistent": self.consistent,
            "rows": [row.to_json_dict() for row in self.rows],
        }

    def csv_rows(self) -> list[list]:
        header = ["label", "isolated", "edges"]
        header += [f"simis@{k}" for k in self.k_list]
        header += ["packs", "classified", "structural_mfmc", "gap_free", "all_agree"]
        out = [header]
        for row in self.rows:
            edges = " ".join(f"{a}-{b}" for a, b in row.graph.edges)
            record = [row.label, row.isolated_count, edges]
            record += [row.simis[k] for k in self.k_list]
            record += [
                row.packs,
                row.classified,
                row.structural_mfmc,
                "" if row.gap_free is None else row.gap_free,
                row.all_agree,
            ]
            out.append(record)
        return out


def verify_theorem(n: int, k_list: tuple[int, ...] = (2, 3), box: int = 2) -> TheoremReport:
    """Build the per-class agreement report for all graph classes on n vertices.

    `box` = 0 disables the duality-gap scan; any k in `k_list` must be >= 1.
    """
    if type(n) is not int or not VERIFY_MIN_N <= n <= VERIFY_MAX_N:
        raise ValueError(
            f"verify_theorem supports {VERIFY_MIN_N} <= n <= {VERIFY_MAX_N}, got {n!r}"
        )
    if not k_list:
        raise ValueError("k_list must not be empty")
    for k in k_list:
        if type(k) is not int or k < 1:
            raise ValueError(f"k_list entries must be >= 1, got {k!r}")
    if type(box) is not int or box < 0:
        raise ValueError(f"box must be >= 0, got {box!r}")
    k_list = tuple(sorted(set(k_list)))

    rows = []
    for G in enumerate_graphs_upto_iso(n, require_edge=True):
        H = clutter_of_graph(G)
        ideal = edge_ideal(H)
        simis = {k: is_simis(ideal, k).equal for k in k_list}
        packs = has_packing(H).packs
        cls = classify_graph(G)
        classified = cls.label != "OTHER"
        M = incidence_matrix(H)
        structural = structural_mfmc_check(M)
        gap_free: bool | None = None
        if box >= 1:
            gap_free = duality_gap_search(M, box) is None
        rows.append(
            TheoremRow(
                graph=G,
                label=cls.label,
                isolated_count=cls.isolated_count,
                simis=simis,
                packs=packs,
                classified=classified,
                structural_mfmc=structural,
                gap_free=gap_free,
            )
        )
    return TheoremReport(n=n, k_list=k_list, box=box, rows=tuple(rows))
