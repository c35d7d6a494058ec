"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a closed loop with one caller: the next class or request
starts when the previous one has been answered.  ``setup`` builds the inputs
from the seed and warms the code up; ``run_pass`` does one timed pass and
returns the raw outputs; ``check`` verifies them outside the timed region and
returns one failure reason per failed operation.

The library is passed in as ``ck``, a dict of freshly imported clutterkit
modules by short name, and every call goes through the name its real caller
uses (``ck["verify"].is_simis``, the click group in ``ck["cli"]``), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import click

import checker

HERE = Path(__file__).resolve().parent

# Graph classes with at least one edge on n vertices (OEIS A000088 minus the
# empty graph), and how many of them are one of the six reference graphs
# plus isolated vertices.
CLASS_COUNTS = {3: 3, 4: 10, 5: 33, 6: 155, 7: 1043}
SATISFYING = {3: 3, 4: 6, 5: 6, 6: 6, 7: 6}

# sha256 of the stdout of `clutterkit verify-theorem -n N` at the commit that
# defined this benchmark; the report is deterministic and byte-stable.
REPORT_SHA256 = {
    3: "54074f013779851193cd3731000aedb488fe8a8763397f3d56bbf7529272b54c",
    4: "c0637a75e753a9459e22e94d2ec43eb5a5d7609650a72c41df846096923ab3e8",
    5: "e3b7a3d31a6d370ee3af35d352efe30b2c244ca7239e96822a2bca0064bee619",
    6: "f575e1d1dd14116ce1f0c2478a41bef588c5b551369af7b2511e66329cf9c9ff",
}

# Degree sequences (zeros dropped) of K2, K3, P3, 2K2, P4 and C4.  Among
# graphs with isolated vertices added, each one names its class alone.
REFERENCE_DEGREES = {(1, 1), (2, 2, 2), (1, 1, 2), (1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2)}


@dataclass
class PassOutcome:
    """Raw results of one pass: per-item latencies and outputs to check."""

    latencies_ms: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    items: int = 0
    enumerated: int = 0


def invoke(cli, args: list[str], stdin_text: str = "") -> tuple[int, str]:
    """Run the click entry point in-process; return (exit code, stdout)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main.main(args=args, prog_name="clutterkit", standalone_mode=False)
            except click.ClickException as exc:
                code = exc.exit_code
    finally:
        sys.stdin = saved_stdin
    return (code if isinstance(code, int) else 0), out.getvalue()


class TheoremWorkload:
    """``clutterkit verify-theorem -n N`` through the click entry point.

    The public call with its defaults (k = 2, 3 and box 2) plus the JSON
    emission, repeated.  The seed is recorded but changes nothing: the
    report is deterministic.  One operation is one pass; its items are the
    graph classes, and the item latency is the pass time per class.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.args = ["verify-theorem", "-n", str(n)]

    def setup(self, ck: dict, seed: int) -> None:
        invoke(ck["cli"], ["verify-theorem", "-n", "3"])

    def run_pass(self, ck: dict, tracer) -> PassOutcome:
        start = perf_counter()
        with tracer.span("cli"):
            try:
                result = invoke(ck["cli"], self.args)
            except Exception as exc:  # a crash is a failed operation, not a dead run
                result = exc
        elapsed_ms = (perf_counter() - start) * 1000
        classes = CLASS_COUNTS[self.n]
        return PassOutcome([elapsed_ms / classes], [result], classes)

    def check(self, outcome: PassOutcome) -> list[str]:
        result = outcome.outputs[0]
        if isinstance(result, Exception):
            return [f"verify-theorem raised {result!r}"]
        code, text = result
        if code != 0:
            return [f"verify-theorem exited {code}"]
        try:
            report = json.loads(text)
        except ValueError as exc:
            return [f"verify-theorem printed malformed JSON: {exc}"]
        want = (CLASS_COUNTS[self.n], SATISFYING[self.n], CLASS_COUNTS[self.n] - SATISFYING[self.n])
        got = (report["classes"], report["satisfying"], report["failing"])
        if got != want or not report["consistent"] or len(report["rows"]) != want[0]:
            return [f"report counts {got}, consistent={report['consistent']}; want {want}"]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != REPORT_SHA256[self.n]:
            return [f"report bytes changed: sha256 {digest}"]
        return []


def _degrees(graph) -> tuple[int, ...]:
    count: dict[int, int] = {}
    for a, b in graph.edges:
        count[a] = count.get(a, 0) + 1
        count[b] = count.get(b, 0) + 1
    return tuple(sorted(count.values()))


class SampleWorkload:
    """One n-vertex enumeration, then all five characterizations on a sample.

    ``verify_theorem`` refuses n = 7 (``VERIFY_MAX_N``), so the per-class loop
    here calls the layer functions the way it does.  The sample is the middle
    class (in enumeration order) of each edge count, since the cost of a class
    grows with its edge count, plus the classes that satisfy the theorem.  The
    seed only shuffles the order in which they are verified: a sample drawn
    from the seed would make the cost, and the p90 set by its two or three
    heaviest classes, depend on the seed.  The items are the sampled classes.
    """

    def __init__(self, n: int) -> None:
        self.n = n

    def setup(self, ck: dict, seed: int) -> None:
        self.seed = seed
        verify = ck["verify"]
        for graph in verify.enumerate_graphs_upto_iso(4, require_edge=True)[:3]:
            self.verify_class(verify, graph)

    def sample(self, classes: list) -> list:
        by_edges: dict[int, list] = {}
        for graph in classes:
            by_edges.setdefault(len(graph.edges), []).append(graph)
        picked = [g for g in classes if _degrees(g) in REFERENCE_DEGREES]
        for edges, members in sorted(by_edges.items()):
            graph = members[len(members) // 2]
            if graph not in picked:
                picked.append(graph)
        random.Random(self.seed).shuffle(picked)
        return picked

    @staticmethod
    def verify_class(verify, graph) -> tuple:
        H = verify.clutter_of_graph(graph)
        ideal = verify.edge_ideal(H)
        simis = [verify.is_simis(ideal, k).equal for k in (2, 3)]
        packs = verify.has_packing(H).packs
        classified = verify.classify_graph(graph).label != "OTHER"
        M = verify.incidence_matrix(H)
        structural = verify.structural_mfmc_check(M)
        gap_free = verify.duality_gap_search(M, 2) is None
        return (*simis, packs, classified, structural, gap_free)

    def run_pass(self, ck: dict, tracer) -> PassOutcome:
        verify = ck["verify"]
        outcome = PassOutcome()
        with tracer.span("verify.sample"):
            classes = verify.enumerate_graphs_upto_iso(self.n, require_edge=True)
            for graph in self.sample(classes):
                start = perf_counter()
                try:
                    answers = self.verify_class(verify, graph)
                except Exception as exc:  # a crash fails this class only
                    answers = exc
                outcome.latencies_ms.append((perf_counter() - start) * 1000)
                outcome.outputs.append((graph, answers))
        outcome.items = len(outcome.outputs)
        outcome.enumerated = len(classes)
        return outcome

    def check(self, outcome: PassOutcome) -> list[str]:
        failures = []
        if outcome.enumerated != CLASS_COUNTS[self.n]:
            failures.append(f"enumeration gave {outcome.enumerated} classes")
        satisfying = 0
        for graph, answers in outcome.outputs:
            if isinstance(answers, Exception):
                failures.append(f"{graph.edges}: raised {answers!r}")
                continue
            expected = _degrees(graph) in REFERENCE_DEGREES
            satisfying += expected
            if set(answers) != {expected}:
                failures.append(f"{graph.edges}: characterizations {answers}, want all {expected}")
        if satisfying != SATISFYING[self.n]:
            failures.append(f"sample holds {satisfying} satisfying classes")
        return failures


@dataclass(frozen=True)
class Request:
    kind: str
    args: list
    stdin: str
    instance: dict  # the pool instance, in the checker's terms
    expected: dict


def _vertex_count(instance: dict) -> int:
    return instance["n"] if "n" in instance else len(instance["rows"][0])


def _request(instance: dict) -> Request:
    """The CLI request that asks the question of one pool instance.

    Instances keep their labels: ``has_packing`` stops at the first failing
    minor in label order and the gap scan at the first hit in objective
    order, so relabeling would make a request's cost depend on the seed.
    """
    kind = instance["kind"]
    if kind in ("packing", "koenig"):
        payload = {"n": instance["n"], "edges": instance["edges"]}
        args = [kind, "-"]
    elif kind == "simis":
        field_name = "edges" if instance["form"] == "graph" else "gens"
        payload = {"n": instance["n"], field_name: instance[field_name]}
        args = ["simis", "-", "-k", str(instance["k"])]
    else:
        rows = instance["rows"]
        if instance["form"] == "dense":
            payload = "\n".join("".join(map(str, row)) for row in rows) + "\n"
        else:
            payload = {"rows": len(rows), "cols": len(rows[0]), "data": rows}
        if kind == "lp-alpha":
            args = ["lp", "-", "--alpha", ",".join(map(str, instance["alpha"]))]
        else:
            args = ["lp", "-", "--scan", str(instance["box"])]
    stdin = payload if isinstance(payload, str) else json.dumps(payload)
    return Request(kind, args, stdin, instance, instance["expected"])


class DecidersWorkload:
    """A seeded stream of single-question requests through the click entry.

    The stream is every instance of ``pool.json`` (simis, packing, koenig,
    ``lp --alpha`` and ``lp --scan`` on n = 5..8) in a seeded order, so
    every seed asks the same questions at the same cost.  The items are
    requests.
    """

    def __init__(self, max_n: int) -> None:
        self.max_n = max_n

    def setup(self, ck: dict, seed: int) -> None:
        pool = json.loads((HERE / "pool.json").read_text(encoding="utf-8"))["instances"]
        pool = [item for item in pool if _vertex_count(item) <= self.max_n]
        self.requests = [_request(item) for item in pool]
        # Warm up on the first (smallest) instance of each kind in pool
        # order, so the set-up costs the same on every seed.
        warm = {}
        for request in self.requests:
            warm.setdefault(request.kind, request)
        for request in warm.values():
            invoke(ck["cli"], request.args, request.stdin)
        random.Random(seed).shuffle(self.requests)

    def run_pass(self, ck: dict, tracer) -> PassOutcome:
        cli = ck["cli"]
        outcome = PassOutcome(items=len(self.requests))
        for index, request in enumerate(self.requests):
            tracer.item = index
            start = perf_counter()
            with tracer.span("cli"):
                try:
                    result = invoke(cli, request.args, request.stdin)
                except Exception as exc:  # a crash fails this request only
                    result = exc
            outcome.latencies_ms.append((perf_counter() - start) * 1000)
            outcome.outputs.append(result)
        return outcome

    def check(self, outcome: PassOutcome) -> list[str]:
        failures = []
        for request, result in zip(self.requests, outcome.outputs):
            if isinstance(result, Exception):
                reason = f"raised {result!r}"
            elif result[0] != 0:
                reason = f"exited {result[0]}"
            else:
                try:
                    output = json.loads(result[1])
                    reason = checker.CHECKS[request.kind](request.instance, output, request.expected)
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"malformed output: {exc!r}"
            if reason is not None:
                failures.append(f"{' '.join(request.args)} <<< {request.stdin.strip()}: {reason}")
        return failures


WORKLOADS = {
    "theorem-n6": lambda: TheoremWorkload(6),
    "theorem-n7-sample": lambda: SampleWorkload(7),
    "deciders-mixed": lambda: DecidersWorkload(8),
}
