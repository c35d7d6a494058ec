"""Command-line front end with JSON certificates.

Subcommands: simis, packing, koenig, classify, decompose, lp, verify-theorem.
Inputs are file paths or '-' for stdin; outputs are JSON (default) or CSV.

Exit codes: 0 = answered/verified, 1 = inconsistency found by verify-theorem,
2 = usage or input error.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from .clutters import (
    Clutter,
    IncidenceMatrix,
    cover_number,
    has_koenig,  # noqa: F401 -- unused here; perfbench/tracing.py wraps it by this name
    has_packing,
    matching_number,
)
from .errors import ResourceLimitExceeded
from .graphs import Graph, classify_graph, complementary_edge_ideal, primary_decomposition_cx
from .lp import duality_gap_search, solve_lp, structural_mfmc_check
from .monomials import MonomialIdeal, is_simis
from .verify import verify_theorem


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read input: {exc}") from exc


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"malformed JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise click.UsageError("input must be a JSON object")
    return data


def _from_json(cls, data: dict):
    """Build a value from its wire format; a missing or ill-typed field is an
    input error (exit 2)."""
    try:
        return cls.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"invalid input: {exc}") from exc


def _domain(fn, *args, **kwargs):
    """Run a decider, turning domain errors into usage errors (exit 2).

    Any other exception is a library bug and propagates.
    """
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(f"invalid input: {exc}") from exc
    except ResourceLimitExceeded as exc:
        raise click.UsageError(f"resource cap exceeded: {exc}") from exc


# Every echo names sys.stdout, looked up at call time: with no file, click
# caches the stream in a WeakKeyDictionary whose value is the stream itself
# when it is a StringIO, so each redirected stdout would stay alive.
def _echo_csv(rows) -> None:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    click.echo(buffer.getvalue().rstrip("\n"), file=sys.stdout)


def _emit(ctx: click.Context, payload: dict) -> None:
    if ctx.obj["format"] == "csv":
        _echo_csv([("key", "value")] + [(k, json.dumps(v)) for k, v in payload.items()])
    else:
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)


@click.group()
@click.option("--json", "output_format", flag_value="json", default=True,
              help="Emit JSON (default).")
@click.option("--csv", "output_format", flag_value="csv",
              help="Emit CSV instead of JSON.")
@click.pass_context
def main(ctx, output_format):
    """Deciders with certificates for edge ideals of clutters: symbolic vs
    ordinary powers, Konig/packing, and covering/packing LP duality."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = output_format


@main.command()
@click.argument("source")
@click.option("-k", "--degree", "k", type=int, default=2, show_default=True,
              help="Power degree to compare.")
@click.pass_context
def simis(ctx, source, k):
    """Compare the k-th symbolic and ordinary powers of an ideal.

    SOURCE is JSON: either an ideal {"n":..,"gens":[[..],..]} or a graph
    {"n":..,"edges":[[a,b],..]} (the graph's complementary edge ideal is used).
    """
    data = _parse_json(_read_text(source))
    if "gens" in data:
        ideal = _from_json(MonomialIdeal, data)
    elif "edges" in data:
        graph = _from_json(Graph, data)
        ideal = _domain(complementary_edge_ideal, graph)
    else:
        raise click.UsageError('input needs either a "gens" or an "edges" field')
    report = _domain(is_simis, ideal, k)
    _emit(ctx, report.to_json_dict())


@main.command()
@click.argument("source")
@click.pass_context
def packing(ctx, source):
    """Decide the packing property of a clutter, with a failing minor if any."""
    H = _from_json(Clutter, _parse_json(_read_text(source)))
    report = _domain(has_packing, H)
    _emit(ctx, report.to_json_dict())


@main.command()
@click.argument("source")
@click.pass_context
def koenig(ctx, source):
    """Compare cover number and matching number of a clutter."""
    H = _from_json(Clutter, _parse_json(_read_text(source)))
    cover = _domain(cover_number, H)
    matching = _domain(matching_number, H)
    _emit(ctx, {"koenig": cover == matching, "cover_number": cover, "matching_number": matching})


@main.command()
@click.argument("source")
@click.pass_context
def classify(ctx, source):
    """Classify a graph against the six reference graphs plus isolated vertices."""
    G = _from_json(Graph, _parse_json(_read_text(source)))
    _emit(ctx, _domain(classify_graph, G).to_json_dict())


@main.command()
@click.argument("source")
@click.pass_context
def decompose(ctx, source):
    """Minimal primes of a graph's complementary edge ideal (variable supports)."""
    G = _from_json(Graph, _parse_json(_read_text(source)))
    primes = _domain(primary_decomposition_cx, G)
    _emit(ctx, {"n": G.n, "primes": [sorted(A) for A in primes]})


def _parse_matrix(text: str) -> IncidenceMatrix:
    stripped = text.strip()
    if stripped.startswith("{"):
        return _from_json(IncidenceMatrix, _parse_json(text))
    lines = [line.strip() for line in stripped.splitlines() if line.strip()]
    if not lines:
        raise click.UsageError("dense matrix input is empty")
    rows = []
    for line in lines:
        if set(line) - {"0", "1"}:
            raise click.UsageError(f"dense matrix rows must be 0/1 strings: {line!r}")
        rows.append(tuple(int(c) for c in line))
    if len({len(r) for r in rows}) != 1:
        raise click.UsageError("dense matrix rows have unequal lengths")
    return IncidenceMatrix.from_rows(rows, len(rows[0]))


@main.command()
@click.argument("source")
@click.option("--alpha", "alpha_text", type=str, default=None,
              help="Comma-separated nonnegative integer objective.")
@click.option("--scan", "scan_box", type=int, default=None,
              help="Scan all objectives in {0..B}^n for a duality gap.")
@click.option("--structural", is_flag=True,
              help="Run the structural no-gap characterization.")
@click.pass_context
def lp(ctx, source, alpha_text, scan_box, structural):
    """Covering/packing optima for a 0/1 matrix (JSON or dense 0/1 lines)."""
    M = _parse_matrix(_read_text(source))
    if alpha_text is None and scan_box is None and not structural:
        raise click.UsageError("provide --alpha, --scan or --structural")
    if alpha_text is not None and scan_box is not None:
        raise click.UsageError("--alpha and --scan are mutually exclusive")
    payload: dict = {"rows": M.rows, "cols": M.cols}
    if alpha_text is not None:
        try:
            alpha = tuple(int(part) for part in alpha_text.split(","))
        except ValueError as exc:
            raise click.UsageError(f"bad --alpha value: {exc}") from exc
        report = _domain(solve_lp, M, alpha)
        payload["alpha"] = list(alpha)
        payload.update(report.to_json_dict())
    if scan_box is not None:
        hit = _domain(duality_gap_search, M, scan_box)
        payload["scan_box"] = scan_box
        if hit is None:
            payload["gap_found"] = False
        else:
            alpha, report = hit
            payload["gap_found"] = True
            payload["alpha"] = list(alpha)
            payload.update(report.to_json_dict())
    if structural:
        payload["structural_mfmc"] = _domain(structural_mfmc_check, M)
    _emit(ctx, payload)


@main.command(name="verify-theorem")
@click.option("-n", "n", type=int, required=True,
              help="Vertex count (3..6).")
@click.option("-k", "k_values", type=int, multiple=True,
              help="Degrees to compare (default: 2 and 3).")
@click.option("--box", type=int, default=2, show_default=True,
              help="Duality-gap scan box; 0 disables the scan.")
@click.pass_context
def verify_theorem_command(ctx, n, k_values, box):
    """Cross-check the five equivalent characterizations on every graph class
    with at least one edge on n vertices; exit 1 on any disagreement."""
    k_list = tuple(k_values) if k_values else (2, 3)
    report = _domain(verify_theorem, n, k_list=k_list, box=box)
    if ctx.obj["format"] == "csv":
        _echo_csv(report.csv_rows())
    else:
        click.echo(json.dumps(report.to_json_dict(), indent=2), file=sys.stdout)
    if not report.consistent:
        ctx.exit(1)


if __name__ == "__main__":
    main()
