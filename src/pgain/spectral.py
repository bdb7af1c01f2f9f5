"""Two-pass Lanczos: lambda1, the principal eigenvector, Katz and exp(A) 1.

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

Every other vector the package converges is a function of A applied to
the ones vector, so it lies in the same Krylov space of the uniform start,
and ``_lanczos`` gives it from the same pass and replay:

* Katz, (I - delta A)^(-1) 1 = sqrt(n) Q_m (I - delta T_m)^(-1) e_1, for any
  number of decays: ``_katz_solve`` needs only the scalar steps and carries
  the LDL^T pivots of I - delta T_m per decay;
* exp(A - theta I) 1 = sqrt(n) Q_m exp(T_m - theta I) e_1 (Saad 1992), with
  theta the top Ritz value, so it never overflows: ``_exp_rule`` takes it
  from the eigenpairs of T_m that the Ritz rule computes at every step.

lambda1's restarts continue only the eigensolve: Katz and exp read the
steps of the first, unrestarted cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, Sequence

import numpy as np

from pgain.errors import (ParameterError, check_cap, check_graph,
                          check_tolerance)
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


@dataclass(frozen=True)
class _Pass:
    """What one ``_lanczos`` run gives besides the lambda1 estimates."""

    lambda1: float | None  # that of the first rule, or the caller's
    deltas: list  # the decays, at that lambda1
    katz: list  # (I - delta_j A)^(-1) 1 per decay
    katz_steps: list  # pass-1 steps per decay
    max_steps: int  # the cap on those steps
    exp: np.ndarray | None  # exp(A - shift I) 1
    shift: float
    exp_steps: int
    exp_met: bool  # Saad's estimate met the tolerance before the cap
    free: list  # the recurrence's n-vectors, free for the caller's products


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


def _lanczos(g, rules, eigenvectors, decays=None, tol=None, exp=False,
             lambda1=None, max_steps=DEFAULT_MAX_ITER):
    """``lanczos``, plus the solves from the uniform vector, each to ``tol``
    within ``max_steps`` pass-1 steps: the Katz vectors at
    ``decays(lambda1)`` and, with ``exp``, exp(A - shift I) 1. lambda1 is
    the estimate of the first rule, or the caller's ``lambda1``, taken as
    exact, when there are no rules. Returns the estimates and a ``_Pass``.

    The pass runs max(m, m_j, m_e) steps, m those of lambda1, m_j those of
    decay j and m_e those of exp, and one replay of max(m, m_j, m_e) - 1
    SpMVs builds every vector. After a restart of lambda1 the Katz and exp
    vectors take a replay of their own from the uniform vector,
    max(m_j, m_e) - 1 SpMVs, and max(m_j, m_e) more if they need steps past
    the first cycle. The replay holds three n-vectors besides the wanted
    ones; they are returned in ``free``. An empty graph raises
    ``ParameterError``.
    """
    for rule_tol, max_iter in rules:
        check_tolerance(rule_tol)
        check_cap(max_iter, "max_iter")
    n = check_graph(g)

    uniform = start = 1.0 / math.sqrt(n)  # later a Ritz vector
    buffers = [np.empty(n) for _ in range(3)]  # q_prev, q, w
    tri = np.zeros((KRYLOV_DIM + 1, KRYLOV_DIM))  # T_m, lower triangle
    kept = [], []  # alpha and beta of the uniform start, kept past a restart
    exp_stop = None  # (coefficients, shift, steps, met) once exp stops
    estimates: list[SpectralEstimate | None] = [None] * len(rules)
    spent = 0  # SpMVs of the finished restart cycles
    while True:
        active = [j for j, est in enumerate(estimates) if est is None]
        stops = {}  # rule -> (Ritz coefficients, theta, cost, converged, residual)
        recurrence = _recurrence(g, start, buffers)
        for m, (alpha, beta) in enumerate(recurrence, 1):
            tri[m - 1, m - 1], tri[m, m - 1] = alpha, beta
            thetas, vectors = _eigh(tri[:m, :m])
            if not spent:
                kept[0].append(alpha)
                kept[1].append(beta)
                if exp and exp_stop is None:
                    exp_stop = _exp_rule(m, beta, thetas, vectors, tol,
                                         max_steps)
            theta, s = float(thetas[-1]), vectors[:, -1]
            residual = beta * abs(float(s[-1]))
            # pass 1 to step m, plus pass 2 to q_m when the vector is
            # wanted; after step KRYLOV_DIM the next step follows the
            # restart's 2 * KRYLOV_DIM - 1 SpMVs
            cost = spent + (2 * m - 1 if eigenvectors else m)
            next_cost = (cost + (2 if eigenvectors else 1) if m < KRYLOV_DIM
                         else spent + 2 * KRYLOV_DIM)
            for j in active:
                rule_tol, max_iter = rules[j]
                met = residual <= 10.0 * rule_tol * theta
                if met or next_cost > max_iter:
                    stops[j] = (s, theta, cost, met, residual)
            active = [j for j in active if j not in stops]
            if not active or m == KRYLOV_DIM:
                break
        wanted = [stop[0] for stop in stops.values()] if eigenvectors else []
        wanted += [s] if active else []  # the restart vector
        solved, vectors = [], []  # the uniform start's coefficients, vectors
        if not active:
            if rules:  # the decays follow the first rule's lambda1
                lambda1 = stops[0][1] if 0 in stops else estimates[0].lambda1
            # the kept steps, then the live recurrence or, after a restart,
            # a fresh one that runs only if a solve needs more steps
            steps = _steps(kept, recurrence if not spent else islice(
                _recurrence(g, uniform, buffers), len(kept[0]), None))
            if exp and exp_stop is None:
                exp_stop = _exp_solve(steps, kept, tol, max_steps)
            deltas = [] if decays is None else decays(lambda1)
            if deltas:
                solved = _katz_solve(steps(), n, deltas, lambda1, tol,
                                     max_steps)
            katz_steps = [len(y) for y in solved]
            if exp:  # 1 = sqrt(n) q_1
                solved.append(math.sqrt(n) * exp_stop[0])
            if spent:  # the replay below starts from a Ritz vector
                vectors, solved = _replay(g, uniform, solved, buffers), []
        sums = _replay(g, start, wanted + solved, buffers)
        ritz, vectors = sums[:len(wanted)], vectors + sums[len(wanted):]
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
            shift, exp_steps, exp_met = (exp_stop[1:] if exp
                                         else (math.nan, 0, True))
            return estimates, _Pass(
                lambda1=lambda1,
                deltas=deltas,
                katz=vectors[:len(deltas)],
                katz_steps=katz_steps,
                max_steps=max_steps,
                exp=vectors[-1] if exp else None,
                shift=shift,
                exp_steps=exp_steps,
                exp_met=exp_met,
                free=buffers,
            )
        [start] = ritz
        spent += 2 * KRYLOV_DIM - 1


def _steps(kept, live):
    """A function that yields the (alpha, beta) steps of the uniform start
    from the start: the ``kept`` ones, then those of the recurrence
    ``live``, which it keeps too."""
    def steps():
        for i in count():
            if i == len(kept[0]):
                for column, value in zip(kept, next(live)):
                    column.append(value)
            yield kept[0][i], kept[1][i]
    return steps


def _eigh(tri):
    """Eigenpairs of the tridiagonal T_m whose lower triangle is ``tri``,
    ascending; a 1 x 1 matrix needs no eigensolve."""
    return (np.linalg.eigh(tri) if len(tri) > 1
            else (tri[0, :1], np.ones((1, 1))))


def _exp_rule(m, beta, thetas, vectors, tol, max_steps):
    """The exp rule at step m, from the eigenpairs of T_m: c_m = exp(T_m -
    theta I) e_1, theta the top Ritz value, and Saad's a posteriori estimate
    beta_m |e_m^T c_m| / ||c_m|| of the relative error of Q_m c_m. Returns
    ``(c_m, theta, m, met)`` once the estimate is at most ``tol`` or step m
    is the cap, else None."""
    shift = float(thetas[-1])
    c = vectors @ (np.exp(thetas - shift) * vectors[0])
    met = beta * abs(float(c[-1])) <= tol * math.sqrt(float(c @ c))
    return (c, shift, m, met) if met or m == max_steps else None


def _exp_solve(steps, kept, tol, max_steps):
    """``_exp_rule`` from the first step past the ``kept`` ones, which it
    has seen, until it stops. Past ``KRYLOV_DIM`` steps it runs every
    ``KRYLOV_DIM`` steps, so the eigensolves of T_m cost O(m^2) per step."""
    alphas, betas = kept
    for m, _ in islice(enumerate(steps(), 1), len(alphas), None):
        if m <= KRYLOV_DIM or m % KRYLOV_DIM == 0 or m == max_steps:
            tridiagonal = np.diag(alphas[:m]) + np.diag(betas[:m - 1], -1)
            stop = _exp_rule(m, betas[m - 1], *_eigh(tridiagonal), tol,
                             max_steps)
            if stop is not None:
                return stop


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
    max_steps: int = DEFAULT_MAX_ITER,
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
    at ``max_steps`` steps. Each y then comes by back-substitution
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
                    or m == max_steps):
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

