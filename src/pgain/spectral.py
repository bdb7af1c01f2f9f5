"""Spectral radius and principal eigenvector by two-pass Lanczos.

``lanczos`` runs the Lanczos three-term recurrence on A from the uniform
vector without storing a basis. Pass 1 builds the tridiagonal T_m and
stops once the top Ritz pair (theta, s) of T_m has a Ritz residual
beta_m |s_m| of at most ``10 * tol * theta``. Pass 2 replays the same
recurrence, bit for bit, and sums s_j q_j into the Ritz vector, the
eigenvector (EC) column. Every ``KRYLOV_DIM`` steps the recurrence restarts
from the current Ritz vector, so the dense eigensolve of T_m stays small on
graphs with a slow spectral gap. The top Ritz value is the largest one, not
the largest in modulus, so bipartite graphs give +lambda1. The recurrence
does not depend on the tolerance, so one run serves several stop rules
(lambda1 and the EC column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pgain.errors import ParameterError
from pgain.graph import Graph
from pgain.vectors import CentralityVector

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
KRYLOV_DIM = 64  # Lanczos steps before a restart from the Ritz vector


@dataclass(frozen=True)
class SpectralEstimate:
    lambda1: float  # the top Ritz value
    eigenvector: np.ndarray  # its Ritz vector: unit L2 norm, entries >= 0
    iterations: int  # SpMVs of both passes
    converged: bool
    residual: float  # Ritz residual beta_m |s_m|, estimates ||A v - lambda1 v||

    def centrality(self, tol: float) -> CentralityVector:
        """The eigenvector as the EC baseline, found at tolerance ``tol``."""
        return CentralityVector(
            scores=self.eigenvector,
            metric="ec",
            params={"tolerance": tol, "lambda1": self.lambda1},
            iterations_used=self.iterations,
            converged=self.converged,
        )


def lanczos(
    g: Graph, rules: Sequence[tuple[float, int]] = ((DEFAULT_TOL, DEFAULT_MAX_ITER),)
) -> list[SpectralEstimate]:
    """Estimate lambda1 and its eigenvector, once per ``(tol, max_iter)`` rule.

    A rule is met when the Ritz residual is at most ``10 * tol * lambda1``.
    ``max_iter`` caps the SpMVs of both passes; a rule whose next step would
    pass its cap stops with ``converged=False``. Each estimate is exactly
    what a call with that rule alone returns, and the run costs the SpMVs of
    its longest rule. On a disconnected graph the eigenvector is the
    projection of the uniform start onto the top eigenspace, supported on
    the components with the largest spectral radius.
    """
    for tol, max_iter in rules:
        if tol <= 0:
            raise ParameterError("tol must be positive")
        if max_iter < 1:
            raise ParameterError("max_iter must be at least 1")
    n = g.node_count
    if n == 0:
        raise ParameterError("empty graph has no spectrum")

    start = np.full(n, 1.0 / np.sqrt(n))
    buffers = [np.empty(n) for _ in range(3)]  # q_prev, q, w
    tri = np.zeros((KRYLOV_DIM + 1, KRYLOV_DIM))  # T_m, lower triangle
    estimates: list[SpectralEstimate | None] = [None] * len(rules)
    spent = 0  # SpMVs of the finished restart cycles
    while True:
        active = [j for j, est in enumerate(estimates) if est is None]
        stops = {}  # rule -> (Ritz coefficients, theta, cost, converged, residual)
        for m, (alpha, beta) in enumerate(_recurrence(g, start, buffers), 1):
            tri[m - 1, m - 1], tri[m, m - 1] = alpha, beta
            # eigh of a 1 x 1 matrix would return the same pair, only slower
            thetas, vectors = (np.linalg.eigh(tri[:m, :m]) if m > 1
                               else (tri[0, :1], np.ones((1, 1))))
            theta, s = float(thetas[-1]), vectors[:, -1]
            residual = beta * abs(float(s[-1]))
            cost = spent + 2 * m - 1  # pass 1 to step m, pass 2 to q_m
            next_cost = cost + (2 if m < KRYLOV_DIM else 1)
            for j in active:
                tol, max_iter = rules[j]
                met = residual <= 10.0 * tol * theta
                if met or next_cost > max_iter:
                    stops[j] = (s, theta, cost, met, residual)
            active = [j for j in active if j not in stops]
            if not active or m == KRYLOV_DIM:
                break
        restart = [s] if active else []
        ritz = _ritz_vectors(
            g, start, [stop[0] for stop in stops.values()] + restart, buffers
        )
        for (j, (_, theta, cost, met, residual)), v in zip(stops.items(), ritz):
            v.flags.writeable = False
            estimates[j] = SpectralEstimate(theta, v, cost, met, residual)
        if not active:
            return estimates
        start = ritz[-1]
        spent += 2 * KRYLOV_DIM - 1


def eigenvector_centrality(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> CentralityVector:
    """Principal eigenvector of A, unit L2 norm (the EC baseline)."""
    [estimate] = lanczos(g, [(tol, max_iter)])
    return estimate.centrality(tol)


def _recurrence(g, start, buffers):
    """Yield (alpha_m, beta_m) of the Lanczos recurrence from ``start`` for
    m = 1, 2, ..., with q_(m+1) in ``buffers[1]`` at each yield. One SpMV
    per step and the same arithmetic in both passes, so a replay is
    bit-identical."""
    q_prev, q, w = buffers
    q_prev.fill(0.0)
    np.copyto(q, start)
    beta = 0.0
    while True:
        # w = A q_m - beta_(m-1) q_(m-1) - alpha_m q_m; q_(m-1) is dead
        # after its term, so its buffer holds both scaled vectors
        g.spmv(q, out=w)
        q_prev *= beta
        w -= q_prev
        alpha = float(q @ w)
        np.multiply(q, alpha, out=q_prev)
        w -= q_prev
        beta = math.sqrt(w @ w)
        q_prev, q, w = q, w, q_prev
        if beta > 0.0:
            q /= beta
        buffers[:] = q_prev, q, w
        yield alpha, beta


def _ritz_vectors(g, start, coefficients, buffers):
    """Pass 2: replay the recurrence to sum s_j q_j for each coefficient
    vector s, then flip each sum to a positive total and normalise it."""
    sums = [np.empty(g.node_count) for _ in coefficients]
    replay = _recurrence(g, start, buffers)
    steps = max(len(s) for s in coefficients)
    for i in range(steps):
        q, tmp = (start if i == 0 else buffers[1]), buffers[2]  # w is free here
        for s, v in zip(coefficients, sums):
            if i == 0:
                np.multiply(q, s[0], out=v)
            elif i < len(s):
                np.multiply(q, s[i], out=tmp)
                v += tmp
        if i + 1 < steps:
            next(replay)
    for v in sums:
        if v.sum() < 0:
            np.negative(v, out=v)
        np.maximum(v, 0.0, out=v)  # the Perron vector has no negative entry
        v /= math.sqrt(v @ v)
    return sums
