"""Run the clutterkit benchmark.

    python3 perfbench/run.py --workload theorem-n6 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in a fresh process

One workload runs in this process: set up several times (fresh import of
clutterkit from ``src/``, inputs from the seed, warm-up) and keep the median,
then repeat timed passes for ``--seconds`` and check every output.  The last
line of stdout is the result: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it records the host, the commit and a calibration
loop's time, so host drift shows next to the numbers.  Both lines are also
appended to ``perfbench/out/results.jsonl``; a traced run writes its spans to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER_METRICS, NoTrace, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)
SETUP_REPEATS = 11
CALIBRATION_REPEATS = 3


def use_sources() -> bool:
    """Put ``src/`` first on ``sys.path``; False when the checkout has no
    clutterkit sources."""
    if not (SRC / "clutterkit" / "__init__.py").is_file():
        print(f"no clutterkit sources at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def fresh_import() -> dict:
    """Import clutterkit from ``src/`` anew, dropping any earlier import, so
    each set-up pays for module loading and empty caches."""
    for name in [m for m in sys.modules if m == "clutterkit" or m.startswith("clutterkit.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"clutterkit.{name}")
               for name in ("cli", "verify", "monomials", "clutters")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"clutterkit was imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a yardstick for the host's speed."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _percentile(values: list[float], tenth: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[tenth - 1]


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Set up, run timed passes for about ``seconds`` (at least one; with
    tracing at least one untraced and one traced, alternating), check every
    pass.

    Returns the result line, the record that goes with it, and the spans of
    the traced passes.
    """
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ck = fresh_import()
        workload.setup(ck, seed)
        setup_times.append(perf_counter() - start)

    calibration = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    walls, latencies, traced_walls, layer_runs, spans = [], [], [], [], []
    items = attempted = failed = 0
    failures: list[str] = []
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(walls) > len(traced_walls)
        tracer = Tracer() if traced else NoTrace()
        if traced:
            tracer.install(ck)
        try:
            start = perf_counter()
            outcome = workload.run_pass(ck, tracer)
            wall = perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        problems = workload.check(outcome)
        operations = len(outcome.outputs)
        attempted += operations
        failed += min(len(problems), operations)
        failures += problems
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics())
            spans.append(tracer.spans)
        else:
            walls.append(wall)
            latencies.append(outcome.latencies_ms)
            items += outcome.items
        # Stop when another pass would end nearer past the deadline than
        # before it, so a run lasts about ``seconds`` whatever its pass time.
        if perf_counter() + wall / 2 >= deadline and (traced_walls or not trace):
            break
    calibration += [calibrate() for _ in range(CALIBRATION_REPEATS)]

    if trace:
        first = layer_runs[0]
        counted = [name for name, unit in PER_LAYER_METRICS if unit != "s" and name in first]
        for run in layer_runs[1:]:
            changed = [name for name in counted if run[name] != first[name]]
            if changed:
                failures.append(f"per-layer counts differ between traced passes: {changed}")
        values = {
            name: statistics.median(run[name] for run in layer_runs) if unit == "s" else first[name]
            for name, unit in PER_LAYER_METRICS if name != "trace_overhead"
        }
        values["trace_overhead"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        units = dict(PER_LAYER_METRICS)
    else:
        # Every pass serves the same items in the same order: an item's
        # latency is its mean over the passes.  Pass times are averaged, not
        # medians, because the host's speed can switch between two modes for
        # tens of seconds: a median over a few passes jumps to whichever mode
        # held longer, a mean moves with the share of time spent in each.
        item_ms = [statistics.fmean(times) for times in zip(*latencies)]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(walls),
            "items_per_s": items / sum(walls),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_p90": _percentile(item_ms, 9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - failed / attempted,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record = {
        "seed": seed,
        "trace": int(trace),
        **host_record(),
        "calibration_s": calibration,
        "setup_runs_s": setup_times,
        "pass_s": walls,
        "traced_pass_s": traced_walls,
        "items_timed": len(latencies[0]),
        "error_rate": failed / attempted,
        "failures": failures[:20],
    }
    return result, record, spans


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    result, record, spans = measure(WORKLOADS[name](), seed, seconds, trace)
    record = {"workload": name, **record}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**record, "result": result}) + "\n")
    if spans:
        columns = ["name", "start", "end", "parent", "item"]
        with open(OUT / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"columns": columns, "passes": [[s[:5] for s in run] for run in spans]}, handle)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process; print each metric with its unit."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = done.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}  calibration_s={min(record['calibration_s']):.4f}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:28s} {value['value']:14.6g} {value['unit']}")
        if not result["correct"]:
            status = 1
            for reason in record["failures"]:
                print(f"  FAIL {reason}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
