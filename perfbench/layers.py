"""Print where ``verify-theorem`` spends its time, layer by layer, for n = 3..7.

    python3 perfbench/layers.py     # about 2.5 min on a 2-vCPU Xeon, most of it n = 7

One traced run per n, outside the gated workloads: the public
``verify_theorem(n)`` (defaults k = 2, 3, box 2) while n is within
``VERIFY_MAX_N``, and above it the same per-class loop over every class that
the theorem-n7-sample workload runs on its sample.  Each row gives the end-to-
end seconds and the busy seconds of enumeration, simis at k = 2 and 3, the
packing scan, classification, the structural check and the gap scan.
"""

from __future__ import annotations

import platform
import sys
from time import perf_counter

import run
from tracing import Tracer
from workloads import SampleWorkload

COLUMNS = (
    ("enum", "graphs.enumerate_s"),
    ("simis@2", "monomials.is_simis_k2_s"),
    ("simis@3", "monomials.is_simis_k3_s"),
    ("packing", "clutters.has_packing_s"),
    ("classify", "graphs.classify_s"),
    ("struct", "lp.structural_s"),
    ("gap@2", "lp.gap_scan_s"),
    ("self", "verify.self_s"),
)


def layer_row(ck: dict, n: int) -> dict:
    """Traced cross-check of every class on n vertices: totals and layer times."""
    verify = ck["verify"]
    tracer = Tracer()
    tracer.install(ck)
    try:
        start = perf_counter()
        if n <= verify.VERIFY_MAX_N:
            with tracer.span("verify.verify_theorem"):
                report = verify.verify_theorem(n)
            classes, consistent = len(report.rows), report.consistent
        else:
            with tracer.span("verify.sample"):
                graphs = verify.enumerate_graphs_upto_iso(n, require_edge=True)
                answers = [SampleWorkload.verify_class(verify, g) for g in graphs]
            classes, consistent = len(graphs), all(len(set(a)) == 1 for a in answers)
        total = perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {"n": n, "classes": classes, "consistent": consistent, "total_s": total,
            **{label: metrics[name] for label, name in COLUMNS}}


def main() -> int:
    if not run.use_sources():
        return 2
    ck = run.fresh_import()
    header = ["n", "classes", "agree", "total_s"] + [label for label, _ in COLUMNS]
    print(" ".join(f"{h:>9}" for h in header), flush=True)
    for n in range(3, 8):
        row = layer_row(ck, n)
        cells = [row["n"], row["classes"], row["consistent"]]
        cells += [f"{row[key]:.3f}" for key in ["total_s"] + [label for label, _ in COLUMNS]]
        print(" ".join(f"{c!s:>9}" for c in cells), flush=True)
    print(f"python {platform.python_version()}, calibration loop {run.calibrate():.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
