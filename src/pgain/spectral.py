"""Two-pass Lanczos: lambda1, the principal eigenvector and Katz solves.

``lanczos`` runs the Lanczos three-term recurrence on A from the uniform
vector without storing a basis. Pass 1 builds the tridiagonal T_m and
stops once the top Ritz pair (theta, s) of T_m has a Ritz residual
beta_m |s_m| of at most ``10 * tol * theta``. Pass 2 replays the same
recurrence, bit for bit, and sums s_j q_j into the Ritz vector, the
eigenvector (EC) column; callers that need only lambda1 skip it. Every
``KRYLOV_DIM`` steps the recurrence restarts from the current Ritz vector,
so the dense eigensolve of T_m stays small on graphs with a slow spectral
gap. The top Ritz value is the largest one, not the largest in modulus, so
bipartite graphs give +lambda1. The recurrence does not depend on the
tolerance, so one run serves several stop rules (lambda1 and the EC
column).

The Katz system (I - delta A) x = 1 lives in the same Krylov space at every
delta, so ``_katz_solve`` needs only the scalar steps of that recurrence and
carries the LDL^T pivots of I - delta T_m per decay. The sweep runs one
pass for both (``_lanczos``): the Katz rules read the steps lambda1 has
stored and continue its recurrence, and one replay builds every vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from pgain.errors import ParameterError, check_cap, check_tolerance
from pgain.graph import Graph
from pgain.vectors import CentralityVector

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
KRYLOV_DIM = 64  # Lanczos steps before a restart from the Ritz vector


@dataclass(frozen=True)
class SpectralEstimate:
    lambda1: float  # the top Ritz value
    # its Ritz vector (unit L2 norm, entries >= 0); None for lambda1 only
    eigenvector: np.ndarray | None
    iterations: int  # SpMVs spent
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
    g: Graph,
    rules: Sequence[tuple[float, int]] = ((DEFAULT_TOL, DEFAULT_MAX_ITER),),
    eigenvectors: bool = True,
) -> list[SpectralEstimate]:
    """Estimate lambda1 and its eigenvector, once per ``(tol, max_iter)`` rule.

    A rule is met when the Ritz residual is at most ``10 * tol * lambda1``.
    ``max_iter`` caps the SpMVs spent; a rule whose next step would pass
    its cap stops with ``converged=False``. With ``eigenvectors=False`` the
    final replay is skipped: each estimate's ``eigenvector`` is None, its
    lambda1 is the same, and it costs only the pass-1 steps (plus the
    replays of any restarts). Each estimate is exactly what a call with
    that rule alone returns, and the run costs the SpMVs of its longest
    rule. On a disconnected graph the eigenvector is the projection of the
    uniform start onto the top eigenspace, supported on the components with
    the largest spectral radius.
    """
    return _lanczos(g, rules, eigenvectors)[0]


def _lanczos(g, rules, eigenvectors, decays=None, katz_tol=None):
    """``lanczos``, and the Katz vectors at ``decays(lambda1)`` (lambda1 of
    the last rule to stop) to ``katz_tol``: 2 max(m, max m_j) - 1 SpMVs in
    all, m the steps of lambda1; after a restart, max m_j - 1 more for the
    replay from the uniform vector, and max m_j more if the Katz solve
    needs steps past the first cycle. Returns both. An empty graph raises
    ``ParameterError``."""
    for tol, max_iter in rules:
        check_tolerance(tol)
        check_cap(max_iter, "max_iter")
    n = g.node_count
    if n == 0:
        raise ParameterError("empty graph")

    uniform = start = 1.0 / math.sqrt(n)  # later a Ritz vector
    buffers = [np.empty(n) for _ in range(3)]  # q_prev, q, w
    tri = np.zeros((KRYLOV_DIM + 1, KRYLOV_DIM))  # T_m, lower triangle
    estimates: list[SpectralEstimate | None] = [None] * len(rules)
    spent = 0  # SpMVs of the finished restart cycles
    while True:
        active = [j for j, est in enumerate(estimates) if est is None]
        stops = {}  # rule -> (Ritz coefficients, theta, cost, converged, residual)
        recurrence = _recurrence(g, start, buffers)
        for m, (alpha, beta) in enumerate(recurrence, 1):
            tri[m - 1, m - 1], tri[m, m - 1] = alpha, beta
            # eigh of a 1 x 1 matrix would return the same pair, only slower
            thetas, vectors = (np.linalg.eigh(tri[:m, :m]) if m > 1
                               else (tri[0, :1], np.ones((1, 1))))
            theta, s = float(thetas[-1]), vectors[:, -1]
            residual = beta * abs(float(s[-1]))
            # pass 1 to step m, plus pass 2 to q_m when the vector is
            # wanted; after step KRYLOV_DIM the next step follows the
            # restart's 2 * KRYLOV_DIM - 1 SpMVs
            cost = spent + (2 * m - 1 if eigenvectors else m)
            next_cost = (cost + (2 if eigenvectors else 1) if m < KRYLOV_DIM
                         else spent + 2 * KRYLOV_DIM)
            for j in active:
                tol, max_iter = rules[j]
                met = residual <= 10.0 * tol * theta
                if met or next_cost > max_iter:
                    stops[j] = (s, theta, cost, met, residual)
            active = [j for j in active if j not in stops]
            if not active or m == KRYLOV_DIM:
                break
        if not spent:  # the uniform vector's steps, which a restart overwrites
            first = np.diag(tri)[:m].tolist(), np.diag(tri, -1)[:m].tolist()
        wanted = [stop[0] for stop in stops.values()] if eigenvectors else []
        wanted += [s] if active else []  # the restart vector
        solved, katz_vectors = [], []  # Katz coefficients and vectors
        if decays is not None and not active:
            # after a restart, a fresh recurrence from the uniform vector
            # runs only if the solve needs steps past the first cycle
            rest = (islice(_recurrence(g, uniform, buffers), KRYLOV_DIM, None)
                    if spent else recurrence)
            solved = _katz_solve(chain(zip(*first), rest), n, decays(theta),
                                 theta, katz_tol)
            if spent:  # the replay below starts from a Ritz vector
                katz_vectors, solved = _replay(g, uniform, solved, buffers), []
        sums = _replay(g, start, wanted + solved, buffers)
        ritz, katz_vectors = sums[:len(wanted)], katz_vectors + sums[len(wanted):]
        for v in ritz:  # flipped to a positive total and normalised
            if v.sum() < 0:
                np.negative(v, out=v)
            np.maximum(v, 0.0, out=v)  # the Perron vector has no negative entry
            v /= math.sqrt(v @ v)
            v.flags.writeable = False
        for j, (_, theta, cost, met, residual) in stops.items():
            v = ritz.pop(0) if eigenvectors else None
            estimates[j] = SpectralEstimate(theta, v, cost, met, residual)
        if not active:
            return estimates, katz_vectors
        [start] = ritz
        spent += 2 * KRYLOV_DIM - 1


def eigenvector_centrality(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> CentralityVector:
    """Principal eigenvector of A, unit L2 norm (the EC baseline)."""
    [estimate] = lanczos(g, [(tol, max_iter)])
    return estimate.centrality(tol)


def _katz_solve(
    steps: Iterable[tuple[float, float]],
    n: int,
    deltas: Sequence[float],
    lambda1: float,
    tol: float,
) -> list[np.ndarray]:
    """Coefficients y_j of the Katz vectors x_j = (I - delta_j A)^(-1) 1 =
    Q_m y_j, from the (alpha, beta) ``steps`` of the recurrence from the
    uniform vector on ``n`` nodes.

    Per decay, each step extends the LDL^T pivots d_i of I - delta_j T_m
    and the forward values z_i of (I - delta_j T_m) y = sqrt(n) e_1. The
    residual of x = Q_m y is delta_j beta_m |y_m| with y_m = z_m / d_m, and
    I - delta_j A has smallest eigenvalue 1 - delta_j lambda1, so decay j
    stops at the first step m where delta_j beta_m |y_m| / (1 - delta_j
    lambda1) <= tol sqrt(n) (Katz >= 1 entrywise, so ||x|| >= sqrt(n)), or
    at ``DEFAULT_MAX_ITER`` steps. Each y then comes by back-substitution
    through its pivots, so len(y_j) is decay j's step count m_j. ``steps``
    is read only until every decay has stopped, and a replay sums the x_j.

    The caller passes n >= 1 and decays with 0 < delta_j lambda1 < 1. A
    pivot d_m <= 0 means that T_m, and so A, has an eigenvalue of at least
    1/delta_j (``lambda1`` was too small): the Katz series diverges, and
    ``ParameterError`` is raised.
    """
    root_n = math.sqrt(n)
    limits = [tol * root_n * (1.0 - delta * lambda1) for delta in deltas]
    pivots = [[] for _ in deltas]  # d_1..d_m per decay
    forward = [[] for _ in deltas]  # z_1..z_m per decay
    betas = []  # beta_1..beta_(m-1): the off-diagonal of T_m
    counts = [0] * len(deltas)
    active = list(range(len(deltas)))
    for m, (alpha, beta) in enumerate(steps, 1):
        for j in active:
            delta, d, z = deltas[j], pivots[j], forward[j]
            if m == 1:
                pivot, value = 1.0 - delta * alpha, root_n
            else:
                coupling = delta * betas[-1] / d[-1]  # -l_(m-1) of L
                pivot = 1.0 - delta * alpha - coupling * delta * betas[-1]
                value = coupling * z[-1]
            if not pivot > 0.0:
                raise ParameterError(
                    f"delta {delta} >= 1/lambda1: I - delta A is not positive"
                    f" definite (Lanczos step {m}), the Katz series diverges"
                )
            d.append(pivot)
            z.append(value)
            if (delta * beta * abs(value / pivot) <= limits[j]
                    or m == DEFAULT_MAX_ITER):
                counts[j] = m
        betas.append(beta)
        active = [j for j in active if not counts[j]]
        if not active:
            break

    coefficients = []
    for delta, d, z, m in zip(deltas, pivots, forward, counts):
        y = np.empty(m)  # L^T y = D^(-1) z, from the last entry up
        y[m - 1] = z[m - 1] / d[m - 1]
        for i in range(m - 2, -1, -1):
            y[i] = (z[i] + delta * betas[i] * y[i + 1]) / d[i]
        coefficients.append(y)
    return coefficients


def _recurrence(g, start, buffers):
    """Yield (alpha_m, beta_m) of the Lanczos recurrence from ``start`` (a
    unit vector, or a scalar for the constant one) for m = 1, 2, ..., with
    q_(m+1) in ``buffers[1]`` at each yield. One SpMV per step and the same
    arithmetic in both passes, so a replay is bit-identical."""
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


def _replay(g, start, coefficients, buffers):
    """Pass 2: replay the recurrence from ``start`` and return sum_i s_i q_i
    for each coefficient vector s. Costs max(len(s)) - 1 SpMVs."""
    sums = [np.empty(g.node_count) for _ in coefficients]
    np.copyto(buffers[1], start)  # q_1, before the replay's first step
    replay = _recurrence(g, start, buffers)
    steps = max(map(len, coefficients), default=0)
    for i in range(steps):
        q, tmp = buffers[1], buffers[2]  # w is free here
        for s, v in zip(coefficients, sums):
            if i == 0:
                np.multiply(q, s[0], out=v)
            elif i < len(s):
                np.multiply(q, s[i], out=tmp)
                v += tmp
        if i + 1 < steps:
            next(replay)
    return sums

