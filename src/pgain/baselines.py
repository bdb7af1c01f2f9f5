"""Comparison centralities: degree, Katz, PageRank, communicability.

Katz, (I - delta A)^(-1) 1, and communicability, exp(A) 1, come from the
one gain solve (``gain._solve``), the same computation as ``pgain
compute``'s ``katz`` and ``epg`` columns: Katz is 1 + delta * GPG
with GPG = A x from the pass's Katz vector x, certified by x's true
residual, and communicability is e^shift exp(A - shift I) 1 from the
Krylov exponential. PageRank, uniform teleport at damping alpha, is
c D y for the symmetric positive definite system (D - alpha A) y = 1
(D the degrees), solved by conjugate gradients preconditioned by D, whose
true residual bounds the scores' L1 error; degree-0 nodes score c.
"""

from __future__ import annotations

import numpy as np

from pgain import spectral
from pgain.errors import check_cap, check_tolerance, check_unit_interval
from pgain.gain import DEFAULT_TOLERANCE, GainParams, _solve
from pgain.graph import Graph
from pgain.spectral import DEFAULT_MAX_ITER
from pgain.vectors import CentralityVector, dot

DEFAULT_ALPHA = 0.85
# PageRank's CG takes the true residual below this L1 norm whatever the
# tolerance: the recurrence's r would shrink on until its squares underflow
_RESIDUAL_FLOOR = 1e-100
_EPS = np.finfo(np.float64).eps


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
    max_iter: int | None = None,
) -> CentralityVector:
    """PageRank with uniform teleport at damping ``alpha``, by
    Jacobi-preconditioned conjugate gradients, with a certified L1 error.

    On an undirected graph PageRank p solves (I - alpha A D^-1) p =
    c 1 on the nodes with edges, c = (1 - alpha) / (n - alpha s). The s
    degree-0 nodes (possible only via dropped self-loops) have no
    in-links: each scores c, and the mass they teleport is what lifts
    (1 - alpha) / n to c (Del Corso, Gulli & Romani 2005). So p = c D y
    with (D - alpha A) y = 1, which is symmetric positive definite, and CG
    preconditioned by D solves it at a rate set by alpha alone (the
    preconditioned spectrum lies in [1 - alpha, 1 + alpha]). Degree-0
    nodes keep y = 0 in every vector, so no subgraph is built.

    The certificate: D (D - alpha A)^-1 = (I - alpha A D^-1)^-1 and
    A D^-1 is column-stochastic, so ||D (y - y*)||_1 <= ||r||_1 /
    (1 - alpha) for r = 1 - (D - alpha A) y, and ||p - p*||_1 <=
    ||r||_1 / (n - alpha s). Once the recurrence's residual meets
    ``tolerance`` by that bound, one SpMV of y gives the true residual;
    the solve stops when it meets it too, and restarts from it otherwise.
    The computed residual is r's only up to its own rounding, about
    eps ||D y||_1 (eps n / (1 - alpha)), so the bound is (||r||_1 +
    eps ||D y||_1) / (n - alpha s). ``converged`` means exactly that it is
    at most ``tolerance``; the scores then sum to 1 within it. Below a
    tolerance of about 1e-15 / (1 - alpha), which the float64 residual
    cannot certify, the solve runs to the cap.
    ``max_iter`` caps the SpMVs (``spectral.DEFAULT_MAX_ITER``, read at
    the call, when None) and ``iterations_used`` counts them;
    ``stop_reason`` is ``"tolerance"``, ``"max_k"`` at the caller's cap or
    ``"safety_cap"`` at the default one.
    """
    check_tolerance(tolerance)
    if max_iter is not None:
        check_cap(max_iter, "max_iter")
    check_unit_interval(alpha, "alpha")
    n = g.node_count
    params = {"alpha": alpha, "tolerance": tolerance}
    if g.edge_count == 0:  # each node teleports to all: 1/n, and no system
        return CentralityVector(np.full(n, 1.0 / max(n, 1)), "pr", params,
                                stop_reason="tolerance")

    isolated = np.flatnonzero(g.degrees == 0)
    scale = n - alpha * isolated.size  # ||p - p*||_1 <= ||r||_1 / scale
    d = g.degrees.astype(np.float64)
    d[isolated] = 1.0  # with r = 0 there, their rows keep y = 0
    y = np.zeros(n)
    r = np.ones(n)
    r[isolated] = 0.0
    z = np.divide(r, d)  # the preconditioned residual, then scratch
    p = z.copy()
    q = np.empty(n)
    rz = dot(r, z)
    cap = max_iter or spectral.DEFAULT_MAX_ITER
    limit = tolerance * scale  # the stop rule on ||r||_1
    spmvs, reason = 0, "safety_cap" if max_iter is None else "max_k"
    while spmvs < cap:
        g.spmv(p, -alpha, out=q)
        spmvs += 1
        q += np.multiply(d, p, out=z)  # (D - alpha A) p
        pq = dot(p, q)
        step = rz / pq if pq else 0.0  # p is 0 once r is exactly 0
        y += np.multiply(p, step, out=z)
        r -= np.multiply(q, step, out=z)
        l1 = np.abs(r, out=z).sum()
        refreshed = (l1 <= limit or l1 < _RESIDUAL_FLOOR) and spmvs < cap
        if refreshed:
            # the recurrence's r drifts from 1 - (D - alpha A) y by its
            # rounding: certify with the true residual, or restart from it
            g.spmv(y, alpha, out=r)
            spmvs += 1
            r -= np.multiply(d, y, out=z)
            rounding = _EPS * np.abs(z, out=z).sum()  # eps ||D y||_1
            r += 1.0
            r[isolated] = 0.0
            if np.abs(r, out=z).sum() + rounding <= limit:
                reason = "tolerance"
                break
        np.divide(r, d, out=z)
        rz, previous = dot(r, z), rz
        p *= 0.0 if refreshed or not previous else rz / previous
        p += z
    c = (1.0 - alpha) / scale
    y *= d
    y *= c
    y[isolated] = c
    return CentralityVector(y, "pr", params, spmvs, reason == "tolerance",
                            reason)


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
