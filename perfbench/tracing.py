"""Spans and work counters at clutterkit's layer boundaries, from outside src/.

A :class:`Tracer` replaces the public layer functions with timing wrappers in
the namespaces their callers look them up in (``clutterkit.verify.<fn>``,
``clutterkit.cli.<fn>``, and ``clutterkit.monomials.<fn>`` for the two powers
``is_simis`` builds), so a traced pass runs the real verify and click code
paths.  Spans are kept in memory as ``[name, start, end, parent, item]``;
``item`` is the id of the class or request being served, shared by every
span it causes.  Counters are taken from arguments and results at the same
boundaries.  :meth:`Tracer.uninstall` puts the original functions back, so
untraced passes run unwrapped code.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

PER_LAYER_METRICS = (
    ("graphs.enumerate_s", "s"),
    ("graphs.enumerate_classes", "count"),
    ("graphs.classify_s", "s"),
    ("monomials.is_simis_k2_s", "s"),
    ("monomials.is_simis_k3_s", "s"),
    ("monomials.is_simis_calls", "count"),
    ("monomials.power_gens", "count"),
    ("monomials.symbolic_gens", "count"),
    ("monomials.unequal_ratio", "ratio"),
    ("clutters.has_packing_s", "s"),
    ("clutters.has_packing_calls", "count"),
    ("clutters.minors_scanned", "count"),
    ("clutters.packs_ratio", "ratio"),
    ("clutters.koenig_s", "s"),
    ("lp.structural_s", "s"),
    ("lp.structural_calls", "count"),
    ("lp.structural_true_ratio", "ratio"),
    ("lp.gap_scan_s", "s"),
    ("lp.gap_scan_calls", "count"),
    ("lp.gap_scan_objectives", "count"),
    ("lp.gap_hit_ratio", "ratio"),
    ("lp.solve_lp_s", "s"),
    ("lp.solve_lp_calls", "count"),
    ("verify.glue_s", "s"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace_overhead", "ratio"),
)

# Span name whose summed duration is each layer's busy time.
BUSY = {
    "graphs.enumerate_s": "graphs.enumerate",
    "graphs.classify_s": "graphs.classify",
    "monomials.is_simis_k2_s": "monomials.is_simis_k2",
    "monomials.is_simis_k3_s": "monomials.is_simis_k3",
    "clutters.has_packing_s": "clutters.has_packing",
    "clutters.koenig_s": "clutters.koenig",
    "lp.structural_s": "lp.structural",
    "lp.gap_scan_s": "lp.gap_scan",
    "lp.solve_lp_s": "lp.solve_lp",
    "verify.glue_s": "verify.glue",
}

# Span names whose self time (duration minus child spans) is each glue
# layer's own time: the public verify loop or the benchmark's copy of it for
# n=7, and the click entry point (parsing and emitting).
SELF = {
    "verify.self_s": ("verify.verify_theorem", "verify.sample"),
    "cli.self_s": ("cli",),
}


def _simis_name(args, kwargs) -> str:
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f"monomials.is_simis_k{k}"


def _gap_detail(args, kwargs, result):
    box = args[1] if len(args) > 1 else kwargs["box"]
    return args[0].cols, box, None if result is None else result[0]


def _packing_detail(args, kwargs, result):
    return args[0].n, result


def _gens_detail(args, kwargs, result):
    return len(result.gens)


def _result_detail(args, kwargs, result):
    return result


# (module, attribute, span name or name function, detail function or None).
# Each attribute is the name under which the caller looks the function up.
_SIMIS = ("is_simis", _simis_name, _result_detail)
_PACKING = ("has_packing", "clutters.has_packing", _packing_detail)
_STRUCTURAL = ("structural_mfmc_check", "lp.structural", _result_detail)
_GAP_SCAN = ("duality_gap_search", "lp.gap_scan", _gap_detail)
WRAPPED = (
    ("verify", "enumerate_graphs_upto_iso", "graphs.enumerate", _result_detail),
    ("verify", "classify_graph", "graphs.classify", None),
    ("verify", "clutter_of_graph", "verify.glue", None),
    ("verify", "edge_ideal", "verify.glue", None),
    ("verify", "incidence_matrix", "verify.glue", None),
    ("verify",) + _SIMIS,
    ("verify",) + _PACKING,
    ("verify",) + _STRUCTURAL,
    ("verify",) + _GAP_SCAN,
    ("cli", "verify_theorem", "verify.verify_theorem", None),
    ("cli",) + _SIMIS,
    ("cli",) + _PACKING,
    ("cli",) + _STRUCTURAL,
    ("cli",) + _GAP_SCAN,
    ("cli", "has_koenig", "clutters.koenig", None),
    ("cli", "cover_number", "clutters.koenig", None),
    ("cli", "matching_number", "clutters.koenig", None),
    ("cli", "solve_lp", "lp.solve_lp", None),
    ("monomials", "power", "monomials.power", _gens_detail),
    ("monomials", "symbolic_power", "monomials.symbolic_power", _gens_detail),
)


class Tracer:
    """In-memory spans of one traced pass.

    ``item`` is the id of the class or request in progress: the benchmark
    sets it per request, and inside ``verify_theorem`` each call of
    ``clutter_of_graph`` starts the next class.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._subsets = None

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrapper(self, original, name, detail, starts_item: bool):
        def wrapper(*args, **kwargs):
            if starts_item:
                self.item += 1
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every function of ``WRAPPED`` in ``modules`` (name -> module)."""
        self._subsets = modules["clutters"]._subsets_lex
        for module_name, attr, name, detail in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            starts_item = (module_name, attr) == ("verify", "clutter_of_graph")
            setattr(module, attr, self._wrapper(original, name, detail, starts_item))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times, self times and work counters of this pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item, detail in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: Counter = Counter()
        own: Counter = Counter()
        details: dict[str, list] = {}
        for i, (name, start, end, parent, item, detail) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[i]
            details.setdefault(name, []).append(detail)
        metrics: dict[str, float] = {m: busy[name] for m, name in BUSY.items()}
        for metric, names in SELF.items():
            metrics[metric] = sum(own[name] for name in names)

        def ratio(hits: int, calls: int) -> float:
            return hits / calls if calls else 0.0

        metrics["graphs.enumerate_classes"] = sum(map(len, details.get("graphs.enumerate", [])))
        simis = details.get("monomials.is_simis_k2", []) + details.get("monomials.is_simis_k3", [])
        metrics["monomials.is_simis_calls"] = len(simis)
        metrics["monomials.unequal_ratio"] = ratio(sum(not r.equal for r in simis), len(simis))
        metrics["monomials.power_gens"] = sum(details.get("monomials.power", []))
        metrics["monomials.symbolic_gens"] = sum(details.get("monomials.symbolic_power", []))
        packing = details.get("clutters.has_packing", [])
        metrics["clutters.has_packing_calls"] = len(packing)
        metrics["clutters.minors_scanned"] = sum(
            minors_scanned(n, r, self._subsets) for n, r in packing)
        metrics["clutters.packs_ratio"] = ratio(sum(r.packs for n, r in packing), len(packing))
        structural = details.get("lp.structural", [])
        metrics["lp.structural_calls"] = len(structural)
        metrics["lp.structural_true_ratio"] = ratio(sum(structural), len(structural))
        scans = details.get("lp.gap_scan", [])
        metrics["lp.gap_scan_calls"] = len(scans)
        metrics["lp.gap_scan_objectives"] = sum(objectives_scanned(*scan) for scan in scans)
        metrics["lp.gap_hit_ratio"] = ratio(sum(hit is not None for *_, hit in scans), len(scans))
        metrics["lp.solve_lp_calls"] = len(details.get("lp.solve_lp", []))
        return metrics


def objectives_scanned(n: int, box: int, hit) -> int:
    """Objectives the lexicographic gap scan visits: up to its hit, or all."""
    if hit is None:
        return (box + 1) ** n
    index = 0
    for a in hit:
        index = index * (box + 1) + a
    return index + 1


class NoTrace:
    """Stand-in for a tracer in untraced passes: records nothing."""

    item = 0

    def span(self, name: str):
        return nullcontext()


def minors_scanned(n: int, report, subsets) -> int:
    """Minors ``has_packing`` visits: all 3^n, or up to its failing minor.

    ``subsets`` is the subset order ``has_packing`` scans in
    (``clutterkit.clutters._subsets_lex``).  Each deleted set D, in that
    order, is followed by the 2^(n-|D|) contracted sets of the vertices it
    leaves.
    """
    if report.packs:
        return 3 ** n
    deleted = report.failing_minor.deleted
    scanned = 0
    for D in subsets(tuple(range(1, n + 1))):
        if D == deleted:
            break
        scanned += 1 << (n - len(D))
    rest = tuple(v for v in range(1, n + 1) if v not in deleted)
    for C in subsets(rest):
        scanned += 1
        if C == report.failing_minor.contracted:
            return scanned
    raise ValueError(f"failing minor {report.failing_minor} is not in the scan order")
