"""Geometric and exponential potential-gain centralities.

Both scores are walk sums over k >= 1 of phi(k) A^k 1:

* geometric: phi(k) = delta^(k-1), requires delta < 1/lambda1; the sum is
  A (I - delta A)^(-1) 1, the adjacency applied to Katz;
* exponential: phi(k) = 1/(k-1)! (no decay parameter); the sum is
  A exp(A) 1, the adjacency applied to the communicability vector.

``_solve`` builds every vector of the gains' Krylov space from the one
Lanczos pass of ``spectral`` from the uniform vector: Katz x from its
shifted solve, then GPG = A x, which also gives x's true residual and
certifies it (``_gpg_from_katz``), and Katz = 1 + delta GPG; exp(A - theta I)
1 from its Krylov exponential, then EPG = e^theta A exp(A - theta I) 1 and
communicability e^theta exp(A - theta I) 1. A score that float64 cannot
hold raises ``SeriesOverflowError``. It picks the pass's rules, whose
first gives the run's one lambda1 (no caller passes one in), builds the EC
column too, and serves the CLI's ``compute`` and the library alike
(``baselines.katz_centrality`` and ``communicability_vector`` too).

``_run_series`` evaluates the paper's truncated walk series, one sparse
matrix-vector product per term, for the calls that ask for a walk-length
truncation (``GainParams.max_walk_length``, ``compute --max-k``) and for
``gain_with_trace``, whose error curve is about the series. It stops at
``max_walk_length`` terms or once its tail is below ``tolerance`` relative
to the sum, whichever comes first. For the geometric kind the tail after a
term is at most term * q / (1 - q), q = delta lambda1; for the exponential
kind the rule compares the latest term alone. Norms are rescaled when their
squares overflow, and a series whose sum overflows float64 raises
``SeriesOverflowError`` instead of running on. Katz from a geometric series
is 1 + delta * GPG: GPG = A Katz and Katz = 1 + delta A Katz.

For ``gain_with_trace`` one run gives both the vector and its error curve:
the series records <t_(k-1), t_k> and <t_k, t_k> per term and goes on past
its stop to the curve's reference, and ``_tail_errors`` sums the tails from
these through the walk counts W_p = 1^T A^p 1 (A is symmetric), within
about 1e-13 relative of the directly summed tails. The trace costs the
reference's SpMVs, plus the lambda1 pass for GPG.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from pgain import spectral
from pgain.errors import (ParameterError, SeriesOverflowError, check_cap,
                          check_graph, check_tolerance, check_unit_interval)
from pgain.graph import Graph
from pgain.vectors import CentralityVector, ConvergenceTrace, dot

DEFAULT_DELTA_STAR = 0.5  # the classic Katz choice delta = 1/(2*lambda1)
DEFAULT_TOLERANCE = 1e-12
SAFETY_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class GainParams:
    """Decay and stopping parameters for the gains.

    Exactly one of ``delta`` (absolute decay) and ``delta_star`` (decay
    normalized by lambda1, in (0,1)) may be given; with neither, delta_star
    defaults to 0.5. ``tolerance`` stops the Lanczos pass's solves.
    ``max_walk_length`` asks for the truncated walk series instead, which
    stops at that many terms or on ``tolerance``, whichever triggers first.
    The exponential gain ignores delta entirely.
    """

    delta: float | None = None
    delta_star: float | None = None
    max_walk_length: int | None = None
    tolerance: float | None = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.delta is not None and self.delta_star is not None:
            raise ParameterError("delta and delta_star are mutually exclusive")
        if self.delta is not None and (
            not math.isfinite(self.delta) or self.delta <= 0
        ):
            raise ParameterError(f"delta must be positive, got {self.delta}")
        if self.delta_star is not None:
            check_unit_interval(self.delta_star, "delta_star")
        if self.max_walk_length is None and self.tolerance is None:
            raise ParameterError("need max_walk_length or tolerance (or both)")
        if self.max_walk_length is not None:
            check_cap(self.max_walk_length, "max_walk_length")
        if self.tolerance is not None:
            check_tolerance(self.tolerance)

    def resolve_delta(self, lambda1: float) -> float:
        """Concrete delta, validated against 1/lambda1."""
        if self.delta is not None:
            if lambda1 > 0 and self.delta >= 1.0 / lambda1:
                raise ParameterError(
                    f"delta {self.delta} >= 1/lambda1 {1.0 / lambda1}: "
                    "series may diverge"
                )
            return self.delta
        star = self.delta_star if self.delta_star is not None else DEFAULT_DELTA_STAR
        if lambda1 <= 0:
            # Edgeless graph: the series is identically zero, decay is moot.
            return star
        return star / lambda1


def geometric_potential_gain(
    g: Graph, params: GainParams | None = None
) -> CentralityVector:
    """Geometric potential gain of every node, A (I - delta A)^(-1) 1.

    lambda1, which resolves delta_star and validates delta, is estimated in
    the same Lanczos pass, and the result is converged only if that
    estimate is. Without ``max_walk_length`` the Katz solve stops on
    ``tolerance`` and ``converged`` means its certificate holds: ||x -
    Katz|| <= ||r|| / (1 - delta lambda1) <= ``tolerance`` ||x||, r the
    true residual of the Katz vector x. With ``max_walk_length`` the
    truncated walk series is summed instead.
    """
    return _solve(g, params or GainParams(), ["gpg"])[1]["gpg"]


def exponential_potential_gain(
    g: Graph, params: GainParams | None = None
) -> CentralityVector:
    """Exponential potential gain of every node, A exp(A) 1 (no decay).

    Without ``max_walk_length`` it comes from the Krylov exponential of
    the Lanczos pass, and ``converged`` means that Saad's a posteriori
    estimate of its relative error met ``tolerance`` (an estimate, not a
    bound). With ``max_walk_length`` the truncated walk series is summed
    instead. A score that float64 cannot hold raises
    ``SeriesOverflowError``.
    """
    return _solve(g, params or GainParams(), ["epg"])[1]["epg"]


def crossover_delta(lam: float) -> float:
    """Decay value at which the two gains coincide on a lambda-eigencomponent.

    Computed as (1 - exp(-lam)) / lam, which is (e^lam - 1)/(lam e^lam)
    without overflow for large lam. The caller is responsible for checking
    the result against 1/lambda1 before using it as a series decay.
    """
    if lam == 0:
        raise ParameterError(
            "crossover undefined at lambda = 0 (gains coincide for every delta)"
        )
    return (1.0 - math.exp(-lam)) / lam


def gain_with_trace(
    g: Graph,
    params: GainParams | None = None,
    kind: str = "geometric",
) -> tuple[CentralityVector, ConvergenceTrace]:
    """Gain plus the per-k relative error of its k-term truncation, from one
    run of the walk series.

    The run goes on past the gain's stop until its terms fall below a
    relative 1e-15, or ``tolerance`` if smaller, and that longer sum is the
    reference; epsilon(k) comes from the terms' inner products
    (``_tail_errors``). A geometric gain resolves its decay against the
    lambda1 of the rule ``_solve``'s pass opens with, and is converged only
    if that estimate is.
    """
    if kind not in ("geometric", "exponential"):
        raise ParameterError(f"unknown gain kind {kind!r}")
    params = params or GainParams()
    lam, lam_converged = None, True
    if kind == "geometric":
        estimate = spectral.lanczos(g, *spectral._lambda1_rule())
        lam, lam_converged = estimate.lambda1, estimate.converged
    moments = []
    vector = _gain(g, kind, params, lam, lam_converged, moments)
    errors = _tail_errors(kind, moments)[:vector.iterations_used].tolist()
    trace = ConvergenceTrace(
        metric=vector.metric, errors=tuple(enumerate(errors, 1)),
        params=dict(vector.params)
    )
    return vector, trace


def _gain(g, kind, params, lambda1=None, lambda1_converged=True,
          moments=None) -> CentralityVector:
    """One gain series from A 1, as a vector: ``"geometric"`` resolves its
    decay against ``lambda1`` and is converged only if ``lambda1_converged``
    is too; ``"exponential"`` ignores both. ``moments`` goes to
    ``_run_series``. A series that overflows raises."""
    check_graph(g)
    delta = None
    if kind == "geometric":
        delta = params.resolve_delta(lambda1)
    snapshot = _snapshot(params, delta, lambda1)
    scores, iterations, reason = _run_series(
        g, kind, g.spmv(np.ones(g.node_count)), delta, params, lambda1,
        moments
    )
    return CentralityVector(
        scores=scores,
        metric="gpg" if kind == "geometric" else "epg",
        params=snapshot,
        iterations_used=iterations,
        converged=_converged(f"{kind} gain", iterations, reason)
        and lambda1_converged,
        stop_reason=reason,
    )


def _snapshot(params, delta=None, lambda1=None) -> dict:
    """A gain's ``params``: the caller's, with the decay and lambda1 it
    used when it has one."""
    snapshot = dict(asdict(params), delta=None, delta_star=None)
    if delta is not None:
        snapshot.update(delta=delta, delta_star=delta * lambda1,
                        lambda1=lambda1)
    return snapshot


def _solve(g, params, metrics, max_iter=None):
    """``(estimates, {metric: CentralityVector})``: the vectors named in
    ``metrics`` (``"ec"``, ``"gpg"``, ``"katz"``, ``"epg"``,
    ``"communicability"``; other names are ignored) from one
    ``spectral._lanczos`` pass, and the estimates of its lambda1 rules.

    The pass's first rule is lambda1's, ``spectral._lambda1_rule()``. It
    runs for ``"ec"``, and for Katz and GPG, which converge only if it
    does; its estimate is the run's one lambda1, which every column's
    params report. ``"ec"`` adds the rule ``params.tolerance`` within
    ``max_iter`` SpMVs, whose Ritz vector is the EC column. The pass solves
    for Katz x at ``params``' decay and u = exp(A - shift I) 1, each to
    ``params.tolerance`` or until another step would take its pass and
    replay past ``max_iter`` SpMVs; a solve stopped there reports
    ``"max_k"``, or ``"safety_cap"`` at the default cap (``max_iter=None``).
    GPG = A x (one SpMV, which certifies x) and Katz = 1 + delta GPG in x's
    buffer, one fixed-point step from x, so within delta lambda1 times x's
    error, converge when the certificate holds. EPG = e^shift A u and
    communicability e^shift u (in u's buffer) converge when Saad's estimate
    met the tolerance. Each counts the SpMVs of pass, replay and product.
    With ``params.max_walk_length`` the pass runs the lambda1 rules alone,
    GPG and EPG are walk series (``_gain``) and Katz is 1 + delta GPG,
    converged only when the series' tolerance rule stopped it. A vector
    that float64 cannot hold raises ``SeriesOverflowError``.
    """
    series = params.max_walk_length is not None
    wanted = set(metrics)
    geometric = bool({"gpg", "katz"} & wanted)
    exponential = not series and bool({"epg", "communicability"} & wanted)
    rules = []
    if "ec" in wanted or geometric:
        rules.append(spectral._lambda1_rule())
    if "ec" in wanted:
        rules.append((params.tolerance,
                      max_iter or spectral.DEFAULT_MAX_ITER, True))
    decays = ((lambda lam: [params.resolve_delta(lam)])
              if geometric and not series else None)
    capped = "safety_cap" if max_iter is None else "max_k"
    estimates, krylov = [], None
    if rules or exponential:  # the decays come with the lambda1 rule
        estimates, krylov = spectral._lanczos(
            g, rules, decays, params.tolerance, exponential, max_iter)
    lambda1, lambda1_converged = None, True
    if estimates:
        lambda1, lambda1_converged = (estimates[0].lambda1,
                                      estimates[0].converged)
    vectors = {}
    if "ec" in wanted:  # its Ritz vector, at the run's lambda1
        vectors["ec"] = replace(estimates[-1], lambda1=lambda1).centrality(
            params.tolerance)

    if geometric and series:
        gpg = _gain(g, "geometric", params, lambda1, lambda1_converged)
        katz = 1.0 + gpg.params["delta"] * gpg.scores
    elif geometric:
        [x], [delta] = krylov.katz, krylov.deltas
        [(scores, certified)] = _gpg_from_katz(g, [x], [delta], lambda1,
                                               params.tolerance, krylov.free)
        reason = (capped if krylov.katz_capped[0] and not certified
                  else "tolerance")
        gpg = CentralityVector(scores, "gpg", _snapshot(params, delta, lambda1),
                               krylov.katz_spmvs[0] + 1,
                               certified and lambda1_converged, reason)
        katz = np.multiply(scores, delta, out=x)
        katz += 1.0
    if geometric:
        vectors["gpg"] = gpg
        vectors["katz"] = CentralityVector(
            katz, "katz",
            {"delta": gpg.params["delta"], "tolerance": params.tolerance},
            gpg.iterations_used,
            gpg.converged and gpg.stop_reason == "tolerance", gpg.stop_reason)

    if "epg" in wanted and series:
        vectors["epg"] = _gain(g, "exponential", params)
    elif exponential:
        u, spmvs = krylov.exp, krylov.exp_spmvs
        reason = "tolerance" if krylov.exp_met else capped
        # EPG first: A u is taken before u is scaled in place
        for metric in ("epg", "communicability"):
            if metric not in wanted:
                continue
            v, spent, snapshot = u, spmvs, {"tolerance": params.tolerance}
            if metric == "epg":
                v = g.spmv(u, out=krylov.free[2])
                spent, snapshot = spmvs + 1, _snapshot(params)
            with np.errstate(over="ignore", invalid="ignore"):
                v *= np.exp(krylov.shift)
            if not np.isfinite(v).all():
                label = "exponential gain" if metric == "epg" else metric
                raise SeriesOverflowError(
                    f"{label}: the series overflows float64 (lambda1 ="
                    f" {krylov.shift:.6g})")
            vectors[metric] = CentralityVector(v, metric, snapshot, spent,
                                               krylov.exp_met, reason)
    return estimates, vectors


def _gpg_from_katz(g, katz, deltas, lambda1, tol, free):
    """GPG = A x for each Katz vector x in ``katz``, at its decay.

    Returns one ``(gpg, certified)`` per decay. The product A x also gives
    the true residual r = 1 - x + delta A x of (I - delta A) x = 1 for free,
    and ||x - Katz|| <= ||r|| / (1 - delta lambda1): ``certified`` says
    that this bound is at most ``tol * ||x||``. The first GPG and the
    residual go to the n-vectors ``free[0]`` and ``free[1]``; each later GPG
    takes over the buffer of the Katz vector before it, so ``katz`` is
    overwritten but for its last vector.
    """
    spare, residual = free[0], free[1]
    results = []
    for x, delta in zip(katz, deltas):
        gpg = g.spmv(x, out=spare)
        np.multiply(gpg, delta, out=residual)
        residual -= x
        residual += 1.0
        bound = _norm(residual) / (1.0 - delta * lambda1)
        results.append((gpg, bound <= tol * _norm(x)))
        spare = x
    return results


def _run_series(g, kind, first, delta, params, lambda1=None, moments=None):
    """The one truncated-series loop, shared by every walk-series computation.

    ``first`` is the series' first term, A 1 for the gains. The loop
    overwrites it (it becomes one of the two term buffers). Term k + 1 is A
    times term k, scaled by ``delta`` (``kind="geometric"``) or by 1/k
    (``"exponential"``, which ignores ``delta`` and ``lambda1``). Returns
    ``(scores, terms_used, stop_reason)``; the reason is ``"tolerance"``,
    ``"max_k"`` (the caller's walk-length cap), ``"safety_cap"``
    (``SAFETY_MAX_TERMS``) or ``"nonfinite"``. The geometric rule bounds the
    tail: ||A y|| <= lambda1 ||y||, so the terms after one of norm t sum to
    at most t q / (1 - q), q = delta ``lambda1``, and the series stops once
    that is below ``tolerance`` times the sum's norm (q = 1/2 gives the
    plain rule t < tolerance * norm). The exponential rule compares t
    itself. A sum that is no longer finite (the series overflows float64)
    stops at once with reason ``"nonfinite"``.

    With ``moments`` (a list) it appends log <t_1, t_1>, then log <t_(k-1),
    t_k> and log <t_k, t_k> per term, and runs on past its stop until the
    rule holds at min(1e-15, ``tolerance``) too, or to ``SAFETY_MAX_TERMS``:
    the trace's reference. It returns its own stop's sum, copied if it ran
    on, unless the run overflows (``"nonfinite"``).
    """
    if moments is not None:
        moments.append(_log_dot(first, first))
    if not first.any():  # every later term is zero too: the sum is exact
        return first.copy(), 1, "tolerance"

    def limit(tolerance):
        # the stop rule as term_norm < limit * acc_norm, so the tail factor
        # costs nothing per term
        if kind == "geometric" and tolerance is not None:
            q = delta * lambda1
            return tolerance * (1.0 - q) / q if q > 0 else math.inf
        return tolerance

    own_limit = limit(params.tolerance)
    max_terms = params.max_walk_length or SAFETY_MAX_TERMS
    reference_limit = limit(min(1e-15, params.tolerance or math.inf))
    term = first
    acc = term.copy()
    spare = np.empty_like(term)  # ping-pong buffer: no allocation per term
    kept = None  # the sum at the loop's own stop, once it runs on
    k, reason, done = 1, None, moments is None
    # an overflow is caught by the sum's norm, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if reason is None:
                if (k > 1 and own_limit is not None
                        and term_norm < own_limit * acc_norm):
                    reason = "tolerance"
                elif k >= max_terms:
                    reason = ("max_k" if params.max_walk_length is not None
                              else "safety_cap")
                terms = k
            if not done:
                done = k >= SAFETY_MAX_TERMS or (
                    k > 1 and term_norm < reference_limit * acc_norm)
            if reason is not None:
                if done:
                    break
                if kept is None:
                    kept = acc.copy()
            scale = delta if kind == "geometric" else 1.0 / k
            g.spmv(term, scale=scale, out=spare)
            term, spare = spare, term
            square = dot(term, term)
            term_norm = _norm(term, square)
            k += 1
            acc += term
            acc_norm = _norm(acc)
            if not math.isfinite(acc_norm):
                return acc, k, "nonfinite"
            if moments is not None:
                moments += (_log_dot(spare, term), _log_dot(term, term, square))
    return (acc if kept is None else kept), terms, reason


def _tail_errors(kind, moments):
    """epsilon(k) = ||sum_(j>k) t_j|| / ||sum_j t_j|| for k = 1 .. K, from
    the ``moments`` ``_run_series`` recorded for t_j = c_j A^j 1.

    A is symmetric, so <t_i, t_j> = c_i c_j W_(i+j), W_p = 1^T A^p 1: the
    recorded product of index sum i + j times a ratio of c's. A squared tail
    sums <t_i, t_j> over i, j > k, all nonnegative, so nothing cancels. The
    geometric products, delta^(i+j-2) W_(i+j), are Hankel, and suffix sums
    give every tail in O(K) (K ~ 30,000 at delta_star = 0.999). The
    exponential ratio is built step by step out from each recorded pair, in
    O(K^2); K stays below ~2,000 before the sum overflows. Products are
    scaled by the largest in log space: squared norms overflow past ~1e154.
    """
    logs = np.concatenate(([-math.inf, -math.inf], moments))  # by index sum
    terms = len(moments) // 2 + 1
    top = logs.max()
    if top == -math.inf:  # a zero series
        return np.zeros(terms)
    if kind == "geometric":
        # tail(k) = S(2k + 2) - 2 S(K + k + 2), S(x) = sum_(y>=x) sum_(p>=y)
        # of the products, zero past 2K
        suffix = np.cumsum(np.cumsum(np.exp(logs[::-1] - top)))[::-1]
        suffix = np.append(suffix, [0.0, 0.0])
        k = np.arange(terms + 1)
        tails = suffix[2 * k + 2] - 2.0 * suffix[terms + k + 2]
    else:
        # walk each anti-diagonal i + j = p out from its recorded pair (a, b)
        # to (a - d, b + d), adding each product to row min(i, j) = a - d,
        # and those off the diagonal twice
        p = np.arange(2, 2 * terms + 1)
        a, b = p // 2, p - p // 2
        rows, log_ratio, d = np.zeros(terms + 1), np.zeros(len(p)), 0
        while len(p):
            weight = np.where(a - d == b + d, 1.0, 2.0)
            rows += np.bincount(a - d, weight * np.exp(logs[p] - top + log_ratio),
                                terms + 1)
            d += 1
            inside = (a > d) & (b + d <= terms)
            p, a, b = p[inside], a[inside], b[inside]
            log_ratio = log_ratio[inside] + np.log((a - d) / (b + d - 1))
        tails = np.append(np.cumsum(rows[::-1])[::-1][1:], 0.0)
    tails = np.maximum(tails, 0.0)
    return np.sqrt(tails[1:] / tails[0])


def _converged(label: str, terms: int, reason: str) -> bool:
    """``converged`` for a gain series stop reason: the tolerance rule fired
    or the caller's walk-length cap bound. A non-finite stop raises a
    ``SeriesOverflowError`` that names the series by ``label``."""
    if reason == "nonfinite":
        raise SeriesOverflowError(
            f"{label}: the series overflows float64 after {terms} terms"
        )
    return reason in ("tolerance", "max_k")


def _norm(x: np.ndarray, square: float | None = None) -> float:
    """L2 norm by ``dot`` (or from ``square``, x . x) that does not overflow
    while entries are finite."""
    norm = math.sqrt(dot(x, x) if square is None else square)
    if norm == math.inf:  # the squares overflowed; rescale by the largest entry
        scale = float(np.abs(x).max())
        if scale < math.inf:
            norm = scale * _norm(x / scale)
    return norm


def _log_dot(x: np.ndarray, y: np.ndarray, value: float | None = None) -> float:
    """log (x . y) of nonnegative x and y by ``dot`` (or from ``value``, x .
    y), -inf when it is 0, rescaled by the largest entries when the
    products overflow."""
    if value is None:
        value = dot(x, y)
    if value == math.inf:
        sx, sy = x.max(), y.max()
        return math.log(dot(x / sx, y / sy)) + math.log(sx) + math.log(sy)
    return math.log(value) if value > 0 else -math.inf
