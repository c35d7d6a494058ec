"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs one pass untraced and one traced; the metric names it
emits must be those of ``BENCHMARK.json``, every output must pass its check,
and the per-layer counts must repeat exactly.
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads
from tracing import PER_LAYER_METRICS, NoTrace

assert run.use_sources()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "theorem-n6": lambda: workloads.TheoremWorkload(4),
    "theorem-n7-sample": lambda: workloads.SampleWorkload(5),
    "deciders-mixed": lambda: workloads.DecidersWorkload(5),
}


def test_workloads_and_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(TINY)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER_METRICS)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_runs_and_checks(name):
    result, record, spans = run.measure(TINY[name](), seed=7, seconds=0, trace=False)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not spans

    traced = [run.measure(TINY[name](), seed=7, seconds=0, trace=True) for _ in range(2)]
    for result, record, spans in traced:
        assert result["correct"], record["failures"]
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
        assert spans and all(span[2] >= span[1] for span in spans[0])
    counts = [
        {k: v["value"] for k, v in result["metrics"].items()
         if v["unit"] != "s" and k != "trace_overhead"}
        for result, _, _ in traced
    ]
    assert counts[0] == counts[1]


# A wrong number or a broken certificate, per request kind; each applies to
# an answer that carries a certificate.
MUTATIONS = {
    "koenig": (lambda out: True, lambda out: out.update(cover_number=out["cover_number"] + 1)),
    "packing": (lambda out: not out["packs"],
                lambda out: out["failing_minor"].update(matching_number=0)),
    "simis": (lambda out: not out["equal"],
              lambda out: out.update(witness=[e + 10 for e in out["witness"]])),
    "lp-alpha": (lambda out: True, lambda out: out.update(y_opt=[y + 5 for y in out["y_opt"]])),
    "lp-scan": (lambda out: out["gap_found"],
                lambda out: out.update(x_opt=[0] * len(out["x_opt"]))),
}


@pytest.fixture(scope="module")
def decided():
    workload = workloads.DecidersWorkload(5)
    ck = run.fresh_import()
    workload.setup(ck, seed=3)
    outcome = workload.run_pass(ck, NoTrace())
    assert workload.check(outcome) == []
    return workload, outcome


@pytest.mark.parametrize("kind", list(MUTATIONS))
def test_wrong_answers_are_counted_as_failures(decided, kind):
    workload, outcome = decided
    applies, mutate = MUTATIONS[kind]
    index = next(i for i, (request, (code, text)) in enumerate(zip(workload.requests, outcome.outputs))
                 if request.kind == kind and applies(json.loads(text)))
    answer = json.loads(outcome.outputs[index][1])
    mutate(answer)
    outputs = list(outcome.outputs)
    outputs[index] = (0, json.dumps(answer))
    assert len(workload.check(workloads.PassOutcome(outputs=outputs))) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_layer_table_rows():
    ck = run.fresh_import()
    for n, classes in ((3, 3), (4, 10)):
        row = layers.layer_row(ck, n)
        assert (row["classes"], row["consistent"]) == (classes, True)
        assert row["total_s"] >= row["enum"] + row["struct"] + row["gap@2"] > 0
