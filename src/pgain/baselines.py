"""Comparison centralities: degree, Katz, PageRank, communicability.

Katz, (I - delta A)^(-1) 1, and communicability, exp(A) 1, come from the
one gain solve (``gain._solve``), the same computation as ``pgain
compute``'s ``katz`` and ``epg`` columns: Katz is 1 + delta * GPG
with GPG = A x from the pass's Katz vector x, certified by x's true
residual, and communicability is e^shift exp(A - shift I) 1 from the
Krylov exponential. PageRank is the usual damped power iteration on the
row-normalized adjacency (transposed product, so undirected graphs reuse
the symmetric SpMV on a degree-scaled vector).
"""

from __future__ import annotations

import numpy as np

from pgain.errors import check_cap, check_tolerance, check_unit_interval
from pgain.gain import DEFAULT_TOLERANCE, GainParams, _solve
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
) -> CentralityVector:
    """(I - delta A)^(-1) 1 as 1 + delta * GPG, scores >= 1 everywhere.

    Requires delta in (0, 1/lambda1), lambda1 estimated in the same Lanczos
    pass (0 without edges), as for the gains; an empty graph raises. The
    Katz solve stops once its residual estimate meets ``tolerance``, or
    where another step would take its pass and replay past ``max_iter``
    SpMVs (m steps cost 2m - 1).
    ``iterations_used`` counts those SpMVs and the product GPG = A x, and
    ``converged`` means the certificate ||x - Katz|| <= ||r|| / (1 - delta
    lambda1) <= ``tolerance`` ||x|| holds for the solve's x and its true
    residual r, and the lambda1 estimate converged.
    """
    check_cap(max_iter, "max_iter")
    params = GainParams(delta=delta, tolerance=tolerance)
    return _solve(g, params, ["katz"], max_iter=max_iter)[1]["katz"]


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
    """exp(A) 1 = sum over k >= 0 of A^k 1 / k!, by the Krylov exponential.

    m Lanczos steps cost 2m - 1 SpMVs (pass and replay), which ``max_iter``
    caps and ``iterations_used`` counts; ``converged`` means Saad's a
    posteriori estimate of the relative error met ``tolerance`` before the
    cap (an estimate, not a bound). A vector that float64 cannot hold
    raises ``SeriesOverflowError``.
    """
    check_cap(max_iter, "max_iter")
    return _solve(g, GainParams(tolerance=tolerance), ["communicability"],
                  max_iter=max_iter)[1]["communicability"]
