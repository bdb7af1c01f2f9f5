"""Comparison centralities: degree, Katz, PageRank, communicability.

Katz, (I - delta A)^(-1) 1 = sum over k >= 0 of delta^k A^k 1, and
communicability, exp(A) 1 = sum over k >= 0 of A^k 1 / k!, are the gain
series started at the ones vector instead of A 1, so they run on the same
engine, ``gain._run_series``, with its stop rules and overflow check.
PageRank is the usual damped power iteration on the row-normalized
adjacency (transposed product, so undirected graphs reuse the symmetric
SpMV on a degree-scaled vector).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from pgain.errors import ParameterError
from pgain.gain import GainParams, _converged, _lambda1, _run_series
from pgain.graph import Graph
from pgain.vectors import CentralityVector

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITER = 10_000


def degree_centrality(g: Graph) -> CentralityVector:
    return CentralityVector(
        scores=g.degrees.astype(np.float64), metric="deg", params={}
    )


def katz_centrality(
    g: Graph,
    delta: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
    lambda1: float | None = None,
) -> CentralityVector:
    """(I - delta A)^(-1) 1 as the walk series sum of delta^k A^k 1.

    Requires delta in (0, 1/lambda1); lambda1 is estimated when not given,
    and the result is then converged only if that estimate is. Scores are
    >= 1 everywhere (the series starts at the identity term).
    """
    _check_iteration_args(tolerance, max_iter)
    params = GainParams(delta=delta, max_walk_length=max_iter + 1,
                        tolerance=tolerance)
    lam, lam_converged = 0.0, True
    if g.edge_count > 0:
        lam, lam_converged = _lambda1(g, lambda1)
        params.resolve_delta(lam)  # rejects delta >= 1/lambda1
    katz = _walk_series(g, "katz", "geometric", params,
                        {"delta": delta, "tolerance": tolerance}, lam)
    return replace(katz, converged=katz.converged and lam_converged)


def pagerank(
    g: Graph,
    alpha: float = 0.85,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CentralityVector:
    """Damped PageRank on the row-normalized adjacency, L1-normalized.

    Degree-0 nodes (possible only via dropped self-loops) teleport uniformly.
    """
    _check_iteration_args(tolerance, max_iter)
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    n = g.node_count
    if n == 0:
        return CentralityVector(np.zeros(0), "pr", {"alpha": alpha})

    deg = g.degrees.astype(np.float64)
    dangling = deg == 0.0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    p = np.full(n, 1.0 / n)
    base = (1.0 - alpha) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        spread = g.spmv(p * inv_deg)  # (row-normalized A)^T p
        if dangling.any():
            spread += p[dangling].sum() / n
        p_new = base + alpha * spread
        change = float(np.abs(p_new - p).sum())
        p = p_new
        if change < tolerance:
            converged = True
            break
    p /= p.sum()
    return CentralityVector(
        scores=p,
        metric="pr",
        params={"alpha": alpha, "tolerance": tolerance},
        iterations_used=iterations,
        converged=converged,
    )


def communicability_vector(
    g: Graph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CentralityVector:
    """exp(A) 1 as the walk series sum of A^k 1 / k!."""
    _check_iteration_args(tolerance, max_iter)
    params = GainParams(max_walk_length=max_iter + 1, tolerance=tolerance)
    return _walk_series(g, "communicability", "exponential", params,
                        {"tolerance": tolerance})


def _walk_series(g, metric, kind, params, snapshot,
                 lambda1=None) -> CentralityVector:
    """The series engine from the ones vector. A series of k terms costs
    k - 1 SpMVs, which ``max_iter`` caps and ``iterations_used`` counts;
    ``converged`` means the tolerance rule stopped it."""
    scores, terms, reason = _run_series(
        g, kind, np.ones(g.node_count), params.delta, params, lambda1
    )
    _converged(metric, terms, reason)  # raises when the series overflows
    return CentralityVector(
        scores=scores,
        metric=metric,
        params=snapshot,
        iterations_used=terms - 1,
        converged=reason == "tolerance",
        stop_reason=reason,
    )


def _check_iteration_args(tolerance: float, max_iter: int) -> None:
    if tolerance <= 0:
        raise ParameterError("tolerance must be positive")
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
