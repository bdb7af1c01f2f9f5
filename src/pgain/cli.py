"""Command-line front end.

Subcommands: ``compute`` (per-node scores), ``sweep`` (GPG correlations vs
normalized decay), ``convergence`` (truncation-error trace), ``generate``
(synthetic edge lists), ``spectral`` (lambda1 estimate). This is the one
module that formats results: the library returns arrays and records, and
every command's CSV goes through ``_write_csv``; ``--format json`` switches
to JSON. Summaries go to stderr. A CSV float is the text of ``"%.17g"``,
byte for byte, so identical runs write identical files. ``_csvtext``
computes its 17 digits exactly in numpy for 1e-11 < |v| < 1e17 and for
±0, and leaves the other values to CPython's ``%.17g``; it lays out
whole rows as bytes, the labels' text made once per command.

Exit codes: 0 all requested computations converged, 1 I/O error,
2 bad parameters or input, 3 a computation failed to converge (stopped at
an iteration cap, or a series overflowed float64).

``compute`` runs PageRank, then one gain solve (``gain._solve``), which
it asks for the wanted columns by name, then degree. The solve picks its
own Lanczos rules: its one pass from the uniform vector gives lambda1
(only when ``ec``, ``katz`` or ``gpg`` is wanted; otherwise the summary
prints ``lambda1=nan``), the ``ec`` column, the Katz vector behind
``katz`` and ``gpg`` and the Krylov exponential behind ``epg``, and it
replays only the vectors that a wanted column reads. With ``--max-k``
the gains are the paper's truncated walk series instead, and Katz is
1 + delta * GPG from the one GPG series.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from pgain import _csvtext, analysis, baselines, generate
from pgain.baselines import DEFAULT_ALPHA
from pgain.errors import (ParameterError, PgainError, SeriesOverflowError,
                          check_cap, check_graph, check_tolerance,
                          check_unit_interval)
from pgain.gain import DEFAULT_TOLERANCE, GainParams, _solve, gain_with_trace
from pgain.graph import Graph, parse_edge_list
from pgain.spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, lanczos
from pgain.vectors import CentralityVector

METRICS = ("deg", "ec", "pr", "katz", "gpg", "epg")
CSV_CHUNK_ROWS = 4096  # rows (JSON scores) per write: no file is held whole

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
    compute.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                         help="PageRank damping factor, in (0, 1)")
    compute.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                         help="each solve's stop tolerance; for pr a bound"
                              " on the L1 error of the scores")
    compute.add_argument("--max-k", type=int, default=None,
                         help="sum katz, gpg and epg as the truncated walk"
                              " series of at most this many terms; also the"
                              " iteration cap of ec and pr")
    compute.add_argument("--out", default=".",
                         help="output directory (files named <metric>.csv)")
    compute.add_argument("--format", choices=("csv", "json"), default="csv")
    compute.set_defaults(handler=_cmd_compute)

    sweep = sub.add_parser("sweep", help="GPG rank correlations across delta_star")
    sweep.add_argument("input")
    sweep.add_argument("--grid", default=None,
                       help="comma-separated delta_star values (default 0.1..0.9)")
    sweep.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                       help="damping factor of the pr column, in (0, 1)")
    sweep.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                       help="each solve's stop tolerance; for pr a bound on"
                            " the L1 error of its scores")
    sweep.add_argument("--out", default=None, help="output file (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(handler=_cmd_sweep)

    conv = sub.add_parser("convergence", help="truncation-error trace")
    conv.add_argument("input")
    conv.add_argument("--metric", choices=("gpg", "epg"), required=True)
    _add_delta_args(conv)
    conv.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
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
    spectral.add_argument("--tol", type=float, default=DEFAULT_TOL)
    spectral.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
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
    # every parameter is checked, whether or not a wanted metric reads it
    params = _gain_params(args)
    check_unit_interval(args.alpha, "alpha")
    graph = _read_graph(args.input)
    wanted = METRICS if args.metric == "all" else (args.metric,)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    made = {}  # metric -> (vector, seconds of the call that made it)
    if "pr" in wanted:
        # before the pass: PageRank's temporaries and the pass's vectors
        # together would set the run's peak memory
        made["pr"] = _timed(baselines.pagerank, graph, alpha=args.alpha,
                            tolerance=args.tol, max_iter=args.max_k)
    # One solve gives lambda1 and the EC and gain columns, each only when a
    # wanted metric needs it
    uses_lambda1 = bool({"katz", "gpg"} & set(wanted))
    (estimates, solved), wall = _timed(_solve, graph, params, wanted,
                                       max_iter=args.max_k)
    made.update((metric, (v, wall)) for metric, v in solved.items())
    if "deg" in wanted:
        made["deg"] = _timed(baselines.degree_centrality, graph)
    lam = estimates[0].lambda1 if estimates else math.nan
    all_converged = True
    if args.format == "csv":
        labels = _csvtext.LabelCells(graph.labels)
    if uses_lambda1 and not estimates[0].converged:
        print("pgain: warning: the lambda1 solve stopped at its iteration"
              " cap before converging", file=sys.stderr)
        all_converged = False
    for metric in wanted:
        # each vector is dropped once written, so its memory can serve the
        # next file's text
        vector, wall = made.pop(metric)
        _summary(graph, lam, vector, wall)
        all_converged &= vector.converged
        path = out_dir / f"{metric}.{args.format}"
        if args.format == "csv":
            _write_csv(path, "node,score", labels, vector.scores)
        else:
            _emit(path, _json_scores({
                "metric": vector.metric,
                "params": vector.params,
                "iterations": vector.iterations_used,
                "converged": vector.converged,
            }, graph.labels, vector.scores))
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _timed(call, *args, **kwargs):
    """``(call(*args, **kwargs), its wall time in seconds)``."""
    start = time.perf_counter()
    return call(*args, **kwargs), time.perf_counter() - start


def _read_graph(path) -> Graph:
    """The graph of the edge list at ``path``, which must not be empty."""
    graph = parse_edge_list(path)
    check_graph(graph)
    return graph


def _gain_params(args) -> GainParams:
    if args.max_k is not None:
        check_cap(args.max_k, "--max-k")
    return GainParams(delta=args.delta, delta_star=args.delta_star,
                      max_walk_length=args.max_k, tolerance=args.tol)


def _cmd_sweep(args) -> int:
    grid = None
    if args.grid is not None:
        try:
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError:
            raise ParameterError(f"--grid must be comma-separated numbers,"
                                 f" got {args.grid!r}") from None
    # every parameter is checked before the input is read
    grid = analysis._check_sweep(grid, args.alpha, args.tol)
    graph = _read_graph(args.input)
    warnings: list[str] = []
    result = analysis.delta_sweep(
        graph, grid=grid, alpha=args.alpha, tolerance=args.tol,
        warn=warnings.append,
    )
    for message in warnings:
        print(f"pgain: warning: undefined correlation ({message})",
              file=sys.stderr)
    # NaN (an undefined correlation) is an empty CSV cell and a JSON null
    names = ["delta_star", *(f"rho_{c}" for c in analysis.SWEEP_COLUMNS)]
    if args.format == "csv":
        _write_csv(args.out, ",".join(names), result.delta_star_grid,
                   *(result.rho[c] for c in analysis.SWEEP_COLUMNS))
    else:
        stars = result.delta_star_grid.tolist()
        rho = [[None if math.isnan(v) else v for v in result.rho[c].tolist()]
               for c in analysis.SWEEP_COLUMNS]
        payload = {"alpha": result.alpha, "lambda1": result.lambda1,
                   "rows": [dict(zip(names, row)) for row in zip(stars, *rho)]}
        _emit(args.out, [json.dumps(payload, indent=2) + "\n"])
    if not result.converged:
        print("pgain: warning: a computation stopped at its iteration cap"
              " before converging", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_convergence(args) -> int:
    params = _gain_params(args)  # checked before the input is read
    graph = _read_graph(args.input)
    kind = "geometric" if args.metric == "gpg" else "exponential"
    vector, trace = gain_with_trace(graph, params, kind=kind)
    if args.format == "csv":
        # a term count k < 2**53 is "%.17g" of float(k), as it is "%d" of k
        _write_csv(args.out, "k,epsilon",
                   *np.array(trace.errors, dtype=float).reshape(-1, 2).T)
    else:
        payload = {"metric": trace.metric, "params": trace.params,
                   "points": trace.errors}
        _emit(args.out, [json.dumps(payload, indent=2) + "\n"])
    return EXIT_OK if vector.converged else EXIT_NOT_CONVERGED


def _cmd_generate(args) -> int:
    make, types = {
        "complete": (generate.complete_edges, (int,)),
        "ring": (generate.ring_edges, (int,)),
        "star": (generate.star_edges, (int,)),
        "grid": (generate.grid_edges, (int, int)),
        "er": (partial(generate.erdos_renyi_edges, seed=args.seed), (int, float)),
        "ba": (partial(generate.barabasi_albert_edges, seed=args.seed), (int, int)),
    }[args.kind]
    try:
        if len(args.params) != len(types):
            raise ValueError
        edges = make(*(cast(value) for cast, value in zip(types, args.params)))
    except ValueError as exc:  # the library's reason, when it gave one
        reason = f": {exc}" if isinstance(exc, ParameterError) else ""
        print(f"pgain: error: bad parameters for {args.kind!r}: {args.params}"
              f"{reason}", file=sys.stderr)
        return EXIT_PARAMS
    _emit(args.out, [generate.edges_to_text(edges)])
    return EXIT_OK


def _cmd_spectral(args) -> int:
    check_cap(args.max_iter, "--max-iter")  # checked before the input is read
    check_tolerance(args.tol)
    graph = _read_graph(args.input)
    estimate = lanczos(graph, args.tol, args.max_iter, eigenvectors=False)
    print(
        f"lambda1={estimate.lambda1:.17g} residual={estimate.residual:.6g}"
        f" iterations={estimate.iterations} converged={estimate.converged}"
    )
    print(
        f"pgain: n={graph.node_count} m={graph.edge_count}", file=sys.stderr
    )
    return EXIT_OK if estimate.converged else EXIT_NOT_CONVERGED


def _write_csv(out, header: str, *columns) -> None:
    """Write the line ``header``, then one row per index of the equal-length
    ``columns`` (``_csvtext.LabelCells`` and float arrays, whose floats are
    written as ``"%.17g"``, and a NaN as an empty cell), to the file ``out``,
    or to stdout when it is None, ``CSV_CHUNK_ROWS`` rows at a time."""
    with _open_out(out, binary=True) as handle:
        handle.write(header.encode() + b"\n")
        for i in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            handle.write(_csvtext.row_bytes(columns, i, i + CSV_CHUNK_ROWS))


def _json_scores(head: dict, labels, scores: np.ndarray) -> Iterator[str]:
    """The text of ``json.dumps(dict(head, scores=dict(zip(labels,
    scores))), indent=2)`` and a newline, in pieces. ``indent`` takes json's
    pure-Python encoder, so the scores map, the bulk of the text, is encoded
    without it, by the C encoder, ``CSV_CHUNK_ROWS`` entries at a time, with
    its items joined as ``indent=2`` joins them (encoded strings hold no raw
    newline)."""
    yield json.dumps(head, indent=2)[:-2] + ',\n  "scores": {'
    sep = ",\n    "
    for i in range(0, len(labels), CSV_CHUNK_ROWS):
        chunk = dict(zip(labels[i:i + CSV_CHUNK_ROWS],
                         scores[i:i + CSV_CHUNK_ROWS].tolist()))
        items = json.dumps(chunk, separators=(sep, ": "))[1:-1]
        yield ("\n    " if i == 0 else sep) + items
    yield "\n  }\n}\n" if len(labels) else "}\n}\n"


def _emit(out: str | None, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` in turn to the file ``out``, or to stdout
    when it is None."""
    with _open_out(out) as handle:
        handle.writelines(pieces)


def _open_out(out, binary=False):
    if out is None:
        if not binary:
            return nullcontext(sys.stdout)
        sys.stdout.flush()  # the text written before goes first
        return nullcontext(sys.stdout.buffer)
    return open(out, "wb" if binary else "w")


if __name__ == "__main__":
    raise SystemExit(main())
