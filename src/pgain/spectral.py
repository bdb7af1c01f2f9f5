"""Two-pass Lanczos: lambda1, the principal eigenvector, Katz and exp(A) 1.

``lanczos`` runs one Lanczos recurrence on A from the uniform vector,
without a stored basis, restarts or reorthogonalization: lost
orthogonality leaves the extreme Ritz pairs accurate (Paige 1976, 1980).
Pass 1 builds the tridiagonal T_m and stops once the top Ritz pair
(theta, s) of T_m, from ``_top_pair`` in O(m) per bisection step, has a
Ritz residual beta_m |s_m| of at most ``10 * tol * theta``; the rule is
checked at every step up to ``KRYLOV_DIM``, then every ``KRYLOV_DIM``
steps and at the cap. Pass 2 replays the same recurrence, bit for bit,
and sums s_j q_j into the Ritz vector, the eigenvector (EC) column. The
top Ritz value is the largest one, not the largest in modulus, so
bipartite graphs give +lambda1. ``lanczos`` stops on one rule;
``_lanczos`` serves several in one run (lambda1 and the EC column) and
replays the Ritz vector of only those that ask for one, so a lambda1-only
rule costs pass 1 alone.

Every other vector the package converges is a function of A applied to
the ones vector, so it lies in the same Krylov space of the uniform start,
and ``_lanczos`` gives it from the same pass and replay:

* Katz, (I - delta A)^(-1) 1 = sqrt(n) Q_m (I - delta T_m)^(-1) e_1, for any
  number of decays: ``_katz_solve`` needs only the scalar steps and carries
  the LDL^T pivots of I - delta T_m per decay;
* exp(A - theta I) 1 = sqrt(n) Q_m exp(T_m - theta I) e_1 (Saad 1992), with
  theta the top Ritz value, so it never overflows: ``_exp_rule`` takes it
  from every eigenpair of T_m (``numpy.linalg.eigh``), on the same check
  schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from pgain.errors import (ParameterError, check_cap, check_graph,
                          check_tolerance)
from pgain.graph import Graph
from pgain.vectors import CentralityVector, dot

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
KRYLOV_DIM = 64  # check interval of the stop rules, after every step up to it


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
    """What one ``_lanczos`` run gives besides the lambda1 estimates; its
    decays are at the first estimate's lambda1. A solve's cost is that of
    its pass and replay alone: 2m - 1 SpMVs for m steps."""

    deltas: list  # the decays, at the run's lambda1
    katz: list  # (I - delta_j A)^(-1) 1 per decay
    katz_spmvs: list  # the cost of the solve per decay
    katz_capped: list  # per decay: its solve stopped at the cap on steps
    exp: np.ndarray | None  # exp(A - shift I) 1
    shift: float
    exp_spmvs: int  # the cost of the exp solve
    exp_met: bool  # Saad's estimate met the tolerance before the cap
    free: list  # the recurrence's n-vectors, free for the caller's products


def lanczos(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    eigenvectors: bool = True,
) -> SpectralEstimate:
    """Estimate lambda1 and its eigenvector.

    The estimate is met when the Ritz residual is at most ``10 * tol *
    lambda1``. ``max_iter`` caps the SpMVs spent; a run whose next step
    would pass its cap stops with ``converged=False``; m steps cost 2m - 1
    SpMVs, the pass and the replay that builds the eigenvector. With
    ``eigenvectors=False`` the replay is skipped: ``eigenvector`` is None,
    lambda1 is the same, and it costs m SpMVs. Past ``KRYLOV_DIM`` steps
    the rule is checked only every ``KRYLOV_DIM`` steps and at its cap. On
    a disconnected graph the eigenvector is the projection of the uniform
    start onto the top eigenspace, supported on the components with the
    largest spectral radius.
    """
    return _lanczos(g, [(tol, max_iter, eigenvectors)])[0][0]


def _lambda1_rule(vector=False):
    """The one lambda1 rule, ``DEFAULT_TOL`` within ``DEFAULT_MAX_ITER``
    SpMVs, read when called; ``vector`` asks for its Ritz vector too."""
    return DEFAULT_TOL, DEFAULT_MAX_ITER, vector


def _lanczos(g, rules, decays=None, tol=None, exp=False, max_iter=None):
    """``lanczos`` for several stop rules in one run, with a ``(tol,
    max_iter, vector)`` triple per rule: each estimate is exactly what
    ``lanczos(g, tol, max_iter, vector)`` returns, and only a rule with
    ``vector`` has its Ritz vector replayed, so only its cap and cost count
    the replay. Plus the solves from the uniform vector, each to ``tol`` or
    until another step would take its pass and replay past ``max_iter``
    SpMVs (``DEFAULT_MAX_ITER`` when None): the Katz vectors at
    ``decays(lambda1)``, lambda1 the estimate of the first rule, and, with
    ``exp``, exp(A - shift I) 1. Returns the estimates and a ``_Pass``.

    The pass runs until the rules and the exp rule have stopped, then as
    long as the Katz solve reads steps: max(m, m_j, m_e) steps, m those of
    the longest rule, m_j those of decay j and m_e those of exp. One replay
    of max(m_v, m_j, m_e) - 1 SpMVs builds every vector, m_v the steps of
    the longest rule with a vector, so rules alone cost what the longest
    of them costs alone, unless a rule without a vector outlasts one with.
    The replay holds three n-vectors besides the wanted ones; they are
    returned in ``free``. An empty graph raises ``ParameterError``.
    """
    for rule_tol, cap, _ in rules:
        check_tolerance(rule_tol)
        check_cap(cap, "max_iter")
    n = check_graph(g)

    uniform = 1.0 / math.sqrt(n)
    buffers = [np.empty(n) for _ in range(3)]  # q_prev, q, w
    alphas, betas = [], []  # T_m, and beta_m
    # the last step a rule or solve can afford: m steps cost 2m - 1 SpMVs
    # with the replay, m without
    caps = [(cap + 1) // 2 if vector else cap for _, cap, vector in rules]
    max_steps = ((max_iter or DEFAULT_MAX_ITER) + 1) // 2
    exp_stop = None  # (coefficients, shift, steps, met) once exp stops
    stops = {}  # rule -> (Ritz coefficients, theta, cost, converged, residual)
    recurrence = _recurrence(g, uniform, buffers)
    for m, (alpha, beta) in enumerate(recurrence, 1):
        alphas.append(alpha)
        betas.append(beta)
        # each rule on the schedule and at its own cap, as if it ran alone
        scheduled = m <= KRYLOV_DIM or m % KRYLOV_DIM == 0
        due = [j for j in range(len(rules))
               if j not in stops and (scheduled or m == caps[j])]
        if due:
            theta, s = _top_pair(alphas, betas[:-1])
            residual = beta * abs(float(s[-1]))
        for j in due:
            rule_tol, _, vector = rules[j]
            met = residual <= 10.0 * rule_tol * theta
            if met or m == caps[j]:
                stops[j] = (s, theta, 2 * m - 1 if vector else m, met,
                            residual)
        if exp and exp_stop is None and (scheduled or m == max_steps):
            exp_stop = _exp_rule(alphas, betas, tol, max_steps)
        if len(stops) == len(rules) and (exp_stop or not exp):
            break

    # the decays follow the first rule
    lambda1 = stops[0][1] if stops else None
    deltas = [] if decays is None else decays(lambda1)
    # the kept steps, then the live recurrence while a decay needs more
    solved = (_katz_solve(chain(zip(alphas, betas), recurrence), n, deltas,
                          lambda1, tol, max_steps) if deltas else [])
    katz_steps = [len(y) for y in solved]
    if exp:  # 1 = sqrt(n) q_1
        solved.append(math.sqrt(n) * exp_stop[0])
    wanted = [j for j in stops if rules[j][2]]
    sums = _replay(g, uniform, [stops[j][0] for j in wanted] + solved,
                   buffers)
    ritz, vectors = dict(zip(wanted, sums)), sums[len(wanted):]
    for v in ritz.values():  # flipped to a positive total and normalised
        if v.sum() < 0:
            np.negative(v, out=v)
        np.maximum(v, 0.0, out=v)  # the Perron vector has no negative entry
        v /= math.sqrt(dot(v, v))
        v.flags.writeable = False
    estimates = [SpectralEstimate(theta, ritz.get(j), cost, met, residual)
                 for j, (_, theta, cost, met, residual)
                 in sorted(stops.items())]
    shift, exp_spmvs, exp_met = exp_stop[1:] if exp else (math.nan, 0, True)
    return estimates, _Pass(
        deltas=deltas,
        katz=vectors[:len(deltas)],
        katz_spmvs=[2 * m - 1 for m in katz_steps],
        katz_capped=[m == max_steps for m in katz_steps],
        exp=vectors[-1] if exp else None,
        shift=shift,
        exp_spmvs=exp_spmvs,
        exp_met=exp_met,
        free=buffers,
    )


def _top_pair(alphas, betas):
    """The largest eigenvalue theta of the tridiagonal T_m with diagonal
    ``alphas`` and off-diagonal ``betas``, and its unit Ritz coefficients
    s, in O(m) operations per bisection step and without LAPACK.

    T_m has an eigenvalue above sigma exactly when an LDL^T pivot of
    T_m - sigma I is positive (Sylvester's law of inertia; the pivots are
    those ``_katz_solve`` carries for I - delta T_m, scaled by -delta).
    Bisection on that test closes a Gershgorin bracket of theta down to
    adjacent floats. Then s is (sigma I - T_m)^(-3) e_1, normalised, at
    sigma = theta (1 + 2^-26), where T_m - sigma I is negative definite and
    its pivots need no guard. Once theta has converged, rounding puts
    copies of it in T_m that hold almost none of e_1; the solves from e_1
    weigh them by that share, as the projection of the start onto the top
    eigenspace does, and damp a Ritz value at gap g below theta by
    (2^-26 theta / g)^3.
    """
    if len(alphas) == 1:
        return alphas[0], np.ones(1)
    edges = [0.0, *betas, 0.0]
    # widened by 1, far beyond rounding at A's scale (its entries are 0, 1)
    lo = max(alphas) - 1.0
    hi = max(map(sum, zip(alphas, edges, edges[1:]))) + 1.0
    tiny = np.finfo(float).eps * (abs(lo) + hi)  # stands in for a zero pivot
    steps = list(zip(alphas[1:], [beta * beta for beta in betas]))

    def above(sigma):  # is some LDL^T pivot of T_m - sigma I positive?
        d = alphas[0] - sigma
        for alpha, square in steps:
            if d > 0.0:
                return True
            d = alpha - sigma - square / (d or -tiny)
        return d > 0.0

    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if above(mid):
            lo = mid
        else:
            hi = mid
    sigma = hi * (1.0 + 2.0 ** -26)
    d = [alphas[0] - sigma]  # the pivots of T_m - sigma I, all < 0
    for alpha, square in steps:
        d.append(alpha - sigma - square / d[-1])
    ratios = [beta / p for beta, p in zip(betas, d)]  # L's subdiagonal
    x = [1.0] + [0.0] * (len(d) - 1)  # e_1
    for _ in range(3):  # x = (T_m - sigma I)^(-1) x, by L D L^T
        for i, ratio in enumerate(ratios):
            x[i + 1] -= ratio * x[i]
        x[-1] /= d[-1]
        for i in range(len(d) - 2, -1, -1):
            x[i] = x[i] / d[i] - ratios[i] * x[i + 1]
    s = np.array(x)
    return hi, s / math.sqrt(dot(s, s))


def _exp_rule(alphas, betas, tol, max_steps):
    """The exp rule at step m = len(alphas), from every eigenpair of T_m
    (diagonal ``alphas``, off-diagonal ``betas[:-1]``): c_m = exp(T_m -
    theta I) e_1, theta the top Ritz value, and Saad's a posteriori
    estimate beta_m |e_m^T c_m| / ||c_m|| of the relative error of Q_m c_m.
    Returns ``(c_m, theta, 2m - 1, met)``, with its SpMVs, once the
    estimate is at most ``tol`` or step m is the cap, else None."""
    m = len(alphas)
    thetas, vectors = np.linalg.eigh(np.diag(alphas)
                                     + np.diag(betas[:-1], -1))
    shift = float(thetas[-1])
    c = vectors @ (np.exp(thetas - shift) * vectors[0])
    met = betas[-1] * abs(float(c[-1])) <= tol * math.sqrt(dot(c, c))
    return (c, shift, 2 * m - 1, met) if met or m == max_steps else None


def eigenvector_centrality(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> CentralityVector:
    """Principal eigenvector of A, unit L2 norm (the EC baseline)."""
    return lanczos(g, tol, max_iter).centrality(tol)


def _katz_solve(steps, n, deltas, lambda1, tol, max_steps):
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
        alpha = dot(q, w)
        np.multiply(q, alpha, out=q_prev)
        w -= q_prev
        beta = math.sqrt(dot(w, w))
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

