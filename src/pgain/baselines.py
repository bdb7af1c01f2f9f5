"""Comparison centralities: degree, Katz, PageRank, communicability.

Katz, (I - delta A)^(-1) 1, is 1 + delta * GPG at the same delta (GPG =
A Katz), so it comes from the geometric gain series (``gain._katz``), the
same computation as ``pgain compute``'s Katz column. Communicability,
exp(A) 1 = sum over k >= 0 of A^k 1 / k!, is the exponential series
started at the ones vector instead of A 1, so it runs on the same engine,
``gain._run_series``, with its stop rules and overflow check. PageRank is
the usual damped power iteration on the row-normalized adjacency
(transposed product, so undirected graphs reuse the symmetric SpMV on a
degree-scaled vector).
"""

from __future__ import annotations

import numpy as np

from pgain.errors import check_cap, check_tolerance, check_unit_interval
from pgain.gain import (DEFAULT_TOLERANCE, GainParams, _converged, _gain,
                        _katz, _lambda1, _run_series)
from pgain.graph import Graph
from pgain.spectral import DEFAULT_MAX_ITER
from pgain.vectors import CentralityVector

DEFAULT_ALPHA = 0.85


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
    """(I - delta A)^(-1) 1 as 1 + delta * GPG, scores >= 1 everywhere.

    Requires delta in (0, 1/lambda1); lambda1 is checked, or estimated when
    not given (0 without edges), as for the gains; an empty graph raises.
    The GPG series stops once its tail bound is below ``tolerance`` times
    its sum, or after ``max_iter`` terms. ``iterations_used`` counts its
    SpMVs (one per term, at most ``max_iter``), and ``converged`` means the
    tolerance rule stopped it and the lambda1 estimate, if made here,
    converged.
    """
    check_cap(max_iter, "max_iter")
    params = GainParams(delta=delta, max_walk_length=max_iter,
                        tolerance=tolerance)
    return _katz(_gain(g, "geometric", params, *_lambda1(g, lambda1)))


def pagerank(
    g: Graph,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CentralityVector:
    """Damped PageRank on the row-normalized adjacency, L1-normalized.

    Degree-0 nodes (possible only via dropped self-loops) teleport uniformly.
    """
    check_tolerance(tolerance)
    check_cap(max_iter, "max_iter")
    check_unit_interval(alpha, "alpha")
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
    """exp(A) 1 as the walk series sum of A^k 1 / k!, from the ones vector.

    A series of k terms costs k - 1 SpMVs, which ``max_iter`` caps and
    ``iterations_used`` counts; ``converged`` means the tolerance rule
    stopped it. A series that overflows raises.
    """
    check_cap(max_iter, "max_iter")
    params = GainParams(max_walk_length=max_iter + 1, tolerance=tolerance)
    scores, terms, reason = _run_series(
        g, "exponential", np.ones(g.node_count), None, params)
    _converged("communicability", terms, reason)  # raises on overflow
    return CentralityVector(
        scores=scores,
        metric="communicability",
        params={"tolerance": tolerance},
        iterations_used=terms - 1,
        converged=reason == "tolerance",
        stop_reason=reason,
    )
