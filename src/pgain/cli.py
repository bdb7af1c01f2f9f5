"""Command-line front end.

Subcommands: ``compute`` (per-node scores), ``sweep`` (GPG correlations vs
normalized decay), ``convergence`` (truncation-error trace), ``generate``
(synthetic edge lists), ``spectral`` (lambda1 estimate). Outputs are CSV by
default (17-significant-digit floats, so identical runs are byte-identical);
``--format json`` switches to JSON. Summaries go to stderr.

Exit codes: 0 all requested computations converged, 1 I/O error,
2 bad parameters or input, 3 a computation failed to converge (stopped at
an iteration cap, or a series overflowed float64).

``compute`` runs one Lanczos solve, for lambda1 and the ``ec`` column
together, and only when ``ec``, ``katz`` or ``gpg`` is wanted (otherwise
the summary prints ``lambda1=nan``); without ``ec`` it skips the
eigenvector replay. Katz is 1 + delta * GPG from the one GPG series.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from pgain import analysis, baselines, generate
from pgain.errors import ParameterError, PgainError, SeriesOverflowError
from pgain.gain import (
    GainParams,
    exponential_potential_gain,
    gain_with_trace,
    geometric_potential_gain,
)
from pgain.graph import Graph, parse_edge_list
from pgain.spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, lanczos
from pgain.vectors import CentralityVector

METRICS = ("deg", "ec", "pr", "katz", "gpg", "epg")
CSV_CHUNK_ROWS = 8192  # rows per write, so no CSV is held whole in memory

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_NOT_CONVERGED = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SeriesOverflowError as exc:  # the sum exists but float64 cannot hold it
        print(f"pgain: error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except PgainError as exc:
        print(f"pgain: error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except OSError as exc:
        print(f"pgain: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgain",
        description="Walk-based potential-gain centralities on edge-list graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="write per-node scores")
    compute.add_argument("input", help="edge-list file")
    compute.add_argument(
        "--metric", choices=METRICS + ("all",), required=True,
        help="metric to compute ('all' writes one file per metric)",
    )
    _add_delta_args(compute)
    compute.add_argument("--alpha", type=float, default=0.85,
                         help="PageRank damping factor")
    compute.add_argument("--tol", type=float, default=1e-12)
    compute.add_argument("--max-k", type=int, default=None,
                         help="walk-length / iteration cap")
    compute.add_argument("--out", default=".",
                         help="output directory (files named <metric>.csv)")
    compute.add_argument("--format", choices=("csv", "json"), default="csv")
    compute.set_defaults(handler=_cmd_compute)

    sweep = sub.add_parser("sweep", help="GPG rank correlations across delta_star")
    sweep.add_argument("input")
    sweep.add_argument("--grid", default=None,
                       help="comma-separated delta_star values (default 0.1..0.9)")
    sweep.add_argument("--alpha", type=float, default=0.85)
    sweep.add_argument("--tol", type=float, default=1e-12)
    sweep.add_argument("--out", default=None, help="output file (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(handler=_cmd_sweep)

    conv = sub.add_parser("convergence", help="truncation-error trace")
    conv.add_argument("input")
    conv.add_argument("--metric", choices=("gpg", "epg"), required=True)
    _add_delta_args(conv)
    conv.add_argument("--tol", type=float, default=1e-12)
    conv.add_argument("--max-k", type=int, default=None)
    conv.add_argument("--out", default=None, help="output file (default stdout)")
    conv.add_argument("--format", choices=("csv", "json"), default="csv")
    conv.set_defaults(handler=_cmd_convergence)

    gen = sub.add_parser("generate", help="write a synthetic edge list")
    gen.add_argument("kind", choices=("complete", "ring", "star", "grid", "er", "ba"))
    gen.add_argument("params", nargs="*",
                     help="complete/ring/star N; grid R C; er N P; ba N M0")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.set_defaults(handler=_cmd_generate)

    spectral = sub.add_parser("spectral", help="estimate lambda1")
    spectral.add_argument("input")
    spectral.add_argument("--tol", type=float, default=1e-10)
    spectral.add_argument("--max-iter", type=int, default=10_000,
                          help="cap on the SpMVs of the Lanczos solve")
    spectral.set_defaults(handler=_cmd_spectral)
    return parser


def _add_delta_args(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--delta", type=float, default=None,
                       help="absolute geometric decay (must be < 1/lambda1)")
    group.add_argument("--delta-star", type=float, default=None,
                       help="decay normalized by lambda1, in (0, 1)")


def _summary(graph: Graph, lam: float, vector: CentralityVector,
             wall: float) -> None:
    print(
        f"pgain: metric={vector.metric} n={graph.node_count} m={graph.edge_count}"
        f" lambda1={lam:.12g} iterations={vector.iterations_used}"
        f" wall_s={wall:.6f} converged={vector.converged}",
        file=sys.stderr,
    )


def _cmd_compute(args) -> int:
    graph = parse_edge_list(args.input)
    if graph.node_count == 0:
        raise ParameterError("empty graph")
    wanted = METRICS if args.metric == "all" else (args.metric,)
    max_iter = args.max_k if args.max_k is not None else 10_000
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_converged = True
    # One Lanczos solve gives lambda1 and the EC column; it runs only when a
    # wanted metric needs one of them.
    uses_lambda1 = bool({"katz", "gpg"} & set(wanted))
    estimates = []
    if uses_lambda1 or "ec" in wanted:
        rules = [(DEFAULT_TOL, DEFAULT_MAX_ITER)]
        if "ec" in wanted:
            rules.append((args.tol, max_iter))
        estimates = lanczos(graph, rules, eigenvectors="ec" in wanted)
    lam = estimates[0].lambda1 if estimates else math.nan
    if uses_lambda1 and not estimates[0].converged:
        print("pgain: warning: the lambda1 solve stopped at its iteration"
              " cap before converging", file=sys.stderr)
        all_converged = False
    gpg = None
    for metric in wanted:
        start = time.perf_counter()
        if metric in ("katz", "gpg"):
            if gpg is None:  # one series at delta gives both
                gpg = geometric_potential_gain(graph, _gain_params(args),
                                               lambda1=lam)
            vector = gpg if metric == "gpg" else _katz_from_gpg(gpg, args.tol)
        elif metric == "ec":
            vector = estimates[1].centrality(args.tol)
        else:
            vector = _compute_metric(graph, metric, args, max_iter)
        wall = time.perf_counter() - start
        _summary(graph, lam, vector, wall)
        all_converged &= vector.converged
        path = out_dir / f"{metric}.{args.format}"
        _write_scores(path, graph, vector, args.format)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _compute_metric(graph, metric, args, max_iter) -> CentralityVector:
    if metric == "deg":
        return baselines.degree_centrality(graph)
    if metric == "pr":
        return baselines.pagerank(graph, alpha=args.alpha, tolerance=args.tol,
                                  max_iter=max_iter)
    if metric == "epg":
        return exponential_potential_gain(graph, _gain_params(args))
    raise PgainError(f"unknown metric {metric!r}")


def _gain_params(args) -> GainParams:
    return GainParams(delta=args.delta, delta_star=args.delta_star,
                      max_walk_length=args.max_k, tolerance=args.tol)


def _katz_from_gpg(gpg: CentralityVector, tol: float) -> CentralityVector:
    """Katz = 1 + delta * GPG. It counts as converged only when the
    tolerance rule stopped the series, not when ``--max-k`` cut it off."""
    delta = gpg.params["delta"]
    return CentralityVector(
        scores=1.0 + delta * gpg.scores,
        metric="katz",
        params={"delta": delta, "tolerance": tol},
        iterations_used=gpg.iterations_used,
        converged=gpg.stop_reason == "tolerance",
        stop_reason=gpg.stop_reason,
    )


def _write_scores(path: Path, graph: Graph, vector: CentralityVector,
                  fmt: str) -> None:
    if fmt == "csv":
        labels, scores = graph.labels, vector.scores
        with open(path, "w") as handle:
            handle.write("node,score\n")
            for i in range(0, len(labels), CSV_CHUNK_ROWS):
                j = i + CSV_CHUNK_ROWS
                handle.write("".join(
                    f"{label},{score:.17g}\n"
                    for label, score in zip(labels[i:j], scores[i:j].tolist())
                ))
    else:
        payload = {
            "metric": vector.metric,
            "params": _jsonable(vector.params),
            "iterations": vector.iterations_used,
            "converged": vector.converged,
            "scores": {
                label: float(score)
                for label, score in zip(graph.labels, vector.scores)
            },
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")


def _cmd_sweep(args) -> int:
    grid = None
    if args.grid is not None:
        try:
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError:
            print(f"pgain: error: --grid must be comma-separated numbers,"
                  f" got {args.grid!r}", file=sys.stderr)
            return EXIT_PARAMS
    graph = parse_edge_list(args.input)
    warnings: list[str] = []
    result = analysis.delta_sweep(
        graph, grid=grid, alpha=args.alpha, tolerance=args.tol,
        warn=warnings.append,
    )
    for message in warnings:
        print(f"pgain: warning: undefined correlation ({message})",
              file=sys.stderr)
    if args.format == "csv":
        _emit(args.out, result.to_csv())
    else:
        rows = []
        for i, star in enumerate(result.delta_star_grid):
            row = {"delta_star": float(star)}
            for column in analysis.SWEEP_COLUMNS:
                value = result.rho[column][i]
                row[f"rho_{column}"] = None if np.isnan(value) else float(value)
            rows.append(row)
        payload = {"alpha": result.alpha, "lambda1": result.lambda1, "rows": rows}
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    if not result.converged:
        print("pgain: warning: a computation stopped at its iteration cap"
              " before converging", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_convergence(args) -> int:
    graph = parse_edge_list(args.input)
    if graph.node_count == 0:
        raise ParameterError("empty graph")
    kind = "geometric" if args.metric == "gpg" else "exponential"
    vector, trace = gain_with_trace(graph, _gain_params(args), kind=kind)
    if args.format == "csv":
        _emit(args.out, trace.to_csv())
    else:
        payload = {
            "metric": trace.metric,
            "params": _jsonable(trace.params),
            "points": [[k, eps] for k, eps in trace.errors],
        }
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if vector.converged else EXIT_NOT_CONVERGED


def _cmd_generate(args) -> int:
    kind = args.kind
    params = args.params
    try:
        if kind == "complete":
            (n,) = map(int, params)
            edges = generate.complete_edges(n)
        elif kind == "ring":
            (n,) = map(int, params)
            edges = generate.ring_edges(n)
        elif kind == "star":
            (leaves,) = map(int, params)
            edges = generate.star_edges(leaves)
        elif kind == "grid":
            rows, cols = map(int, params)
            edges = generate.grid_edges(rows, cols)
        elif kind == "er":
            n, p = int(params[0]), float(params[1])
            edges = generate.erdos_renyi_edges(n, p, seed=args.seed)
        else:
            n, m0 = map(int, params)
            edges = generate.barabasi_albert_edges(n, m0, seed=args.seed)
    except (TypeError, ValueError, IndexError):
        print(f"pgain: error: bad parameters for {kind!r}: {params}",
              file=sys.stderr)
        return EXIT_PARAMS
    _emit(args.out, generate.edges_to_text(edges))
    return EXIT_OK


def _cmd_spectral(args) -> int:
    graph = parse_edge_list(args.input)
    [estimate] = lanczos(graph, [(args.tol, args.max_iter)], eigenvectors=False)
    print(
        f"lambda1={estimate.lambda1:.17g} residual={estimate.residual:.6g}"
        f" iterations={estimate.iterations} converged={estimate.converged}"
    )
    print(
        f"pgain: n={graph.node_count} m={graph.edge_count}", file=sys.stderr
    )
    return EXIT_OK if estimate.converged else EXIT_NOT_CONVERGED


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _jsonable(params: dict) -> dict:
    return {
        key: (None if value is None else
              value if isinstance(value, (bool, int, str)) else float(value))
        for key, value in params.items()
    }


if __name__ == "__main__":
    raise SystemExit(main())
