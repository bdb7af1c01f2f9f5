"""Geometric and exponential potential-gain centralities.

Both scores are truncated walk series evaluated with one sparse
matrix-vector product per term:

* geometric: sum over k >= 1 of delta^(k-1) A^k 1, requires delta < 1/lambda1;
  term recurrence y_k = (delta A) y_(k-1) with y_1 = A 1.
* exponential: sum over k >= 1 of A^k 1 / (k-1)!; term recurrence
  t_k = A t_(k-1) / (k-1) with t_1 = A 1 (no decay parameter).

The series stops at ``max_walk_length`` terms or once its tail is below
``tolerance`` relative to the sum, whichever comes first. For the geometric
kind the tail after a term is at most term * q / (1 - q), q = delta
lambda1; for the exponential kind the rule compares the latest term alone.
Norms are rescaled when their squares overflow, and a series whose sum
overflows float64 raises ``SeriesOverflowError`` instead of running on.

One loop, ``_run_series``, evaluates every walk series in the package.
Each is a first term and a term ratio: GPG starts at A 1 with ratio delta,
EPG at A 1 with ratio 1/(k-1), and the communicability baseline at 1 with
ratio 1/k (EPG = A exp(A) 1). Katz has no series of its own: GPG = A Katz
and Katz = 1 + delta A Katz give Katz = 1 + delta * GPG (``_katz``), for
the CLI and ``baselines.katz_centrality`` alike. The delta_star sweep does
not use the series: it solves the Katz system for its whole grid by
shifted Lanczos (``spectral._katz_solve``), whose step count depends on
delta_star alone where the series needs about log(tolerance) /
log(delta_star) terms.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from pgain import spectral
from pgain.errors import (ParameterError, SeriesOverflowError, check_cap,
                          check_tolerance, check_unit_interval)
from pgain.graph import Graph
from pgain.vectors import CentralityVector, ConvergenceTrace

DEFAULT_DELTA_STAR = 0.5  # the classic Katz choice delta = 1/(2*lambda1)
DEFAULT_TOLERANCE = 1e-12
SAFETY_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class GainParams:
    """Decay and stopping parameters for the gain series.

    Exactly one of ``delta`` (absolute decay) and ``delta_star`` (decay
    normalized by lambda1, in (0,1)) may be given; with neither, delta_star
    defaults to 0.5. ``max_walk_length`` and ``tolerance`` may both be set;
    whichever triggers first stops the series. The exponential gain ignores
    delta entirely.
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
    g: Graph, params: GainParams | None = None, lambda1: float | None = None
) -> CentralityVector:
    """Geometric potential gain of every node.

    ``lambda1`` is estimated by ``spectral.lanczos`` when not supplied (it
    is needed to resolve delta_star and to validate delta); the result is
    then converged only if that estimate is.
    """
    return _gain(g, "geometric", params or GainParams(), *_lambda1(g, lambda1))


def exponential_potential_gain(
    g: Graph, params: GainParams | None = None
) -> CentralityVector:
    """Exponential potential gain of every node (parameter-free decay)."""
    return _gain(g, "exponential", params or GainParams())


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
    lambda1: float | None = None,
) -> tuple[CentralityVector, ConvergenceTrace]:
    """Gain plus the per-k relative error against a converged reference,
    the same series run to a relative term contribution of 1e-15.

    A geometric gain whose lambda1 was estimated here is converged only if
    that estimate is.
    """
    if kind not in ("geometric", "exponential"):
        raise ParameterError(f"unknown gain kind {kind!r}")
    params = params or GainParams()
    lam, lam_converged = (_lambda1(g, lambda1) if kind == "geometric"
                          else (None, True))
    long_params = replace(params, max_walk_length=None, tolerance=1e-15)
    reference = _gain(g, kind, long_params, lam).scores
    ref_norm = _norm(reference)

    errors: list[tuple[int, float]] = []

    def record(k: int, acc: np.ndarray) -> None:
        if ref_norm == 0.0:
            errors.append((k, 0.0))
        else:
            errors.append((k, _norm(reference - acc) / ref_norm))

    vector = _gain(g, kind, params, lam, lam_converged, record)
    trace = ConvergenceTrace(
        metric=vector.metric, errors=tuple(errors), params=dict(vector.params)
    )
    return vector, trace


def _gain(g, kind, params, lambda1=None, lambda1_converged=True,
          per_term=None) -> CentralityVector:
    """One gain series from A 1, as a vector: ``"geometric"`` resolves its
    decay against ``lambda1`` and is converged only if ``lambda1_converged``
    is too; ``"exponential"`` ignores both. ``per_term`` goes to
    ``_run_series``. A series that overflows raises."""
    delta, snapshot = None, dict(asdict(params), delta=None, delta_star=None)
    if kind == "geometric":
        delta = params.resolve_delta(lambda1)
        snapshot.update(delta=delta, delta_star=delta * lambda1,
                        lambda1=lambda1)
    scores, iterations, reason = _run_series(
        g, kind, g.spmv(np.ones(g.node_count)), delta, params, lambda1,
        per_term
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


def _katz(gpg: CentralityVector) -> CentralityVector:
    """Katz = 1 + delta * GPG, from a geometric gain. It is converged only
    when the GPG is and its tolerance rule stopped the series, not a
    walk-length cap; it reports the GPG's SpMV count."""
    delta = gpg.params["delta"]
    return CentralityVector(
        scores=1.0 + delta * gpg.scores,
        metric="katz",
        params={"delta": delta, "tolerance": gpg.params["tolerance"]},
        iterations_used=gpg.iterations_used,
        converged=gpg.converged and gpg.stop_reason == "tolerance",
        stop_reason=gpg.stop_reason,
    )


def _run_series(g, kind, first, delta, params, lambda1=None, per_term=None):
    """The one truncated-series loop, shared by every walk-series computation.

    ``first`` is the series' first term: A 1 for the gains, the ones vector
    for communicability. The loop overwrites it (it becomes one of
    the two term buffers). Term k + 1 is A times term k, scaled by
    ``delta`` (``kind="geometric"``) or by 1/k (``"exponential"``, which
    ignores ``delta`` and ``lambda1``). Returns ``(scores, terms_used,
    stop_reason)``; the reason is ``"tolerance"``, ``"max_k"`` (the caller's
    walk-length cap), ``"safety_cap"`` (``SAFETY_MAX_TERMS``) or
    ``"nonfinite"``. The geometric rule bounds the tail: ||A y|| <=
    lambda1 ||y||, so the terms after one of norm t sum to at most
    t q / (1 - q), q = delta ``lambda1``, and the series stops once that is
    below ``tolerance`` times the sum's norm (q = 1/2 gives the plain rule
    t < tolerance * norm). The exponential rule compares t itself. A sum
    that is no longer finite (the series overflows float64) stops at once
    with reason ``"nonfinite"``. ``per_term(k, acc)`` sees the sum after
    every term.
    """
    if not first.any():  # every later term is zero too: the sum is exact
        if per_term is not None:
            per_term(1, first)
        return first.copy(), 1, "tolerance"

    term = first
    acc = term.copy()
    spare = np.empty_like(term)  # ping-pong buffer: no allocation per term
    k = 1
    if per_term is not None:
        per_term(k, acc)

    # the stop rule as term_norm < limit * acc_norm, so the tail factor
    # costs nothing per term
    limit = params.tolerance
    if kind == "geometric" and limit is not None:
        q = delta * lambda1
        limit = limit * (1.0 - q) / q if q > 0 else math.inf
    max_terms = params.max_walk_length or SAFETY_MAX_TERMS
    reason = None
    # an overflow is caught by the sum's norm, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while reason is None and k < max_terms:
            scale = delta if kind == "geometric" else 1.0 / k
            g.spmv(term, scale=scale, out=spare)
            term, spare = spare, term
            term_norm = _norm(term)
            k += 1
            acc += term
            acc_norm = _norm(acc)
            if not math.isfinite(acc_norm):
                reason = "nonfinite"
            elif limit is not None and term_norm < limit * acc_norm:
                reason = "tolerance"
            if per_term is not None:
                per_term(k, acc)
    if reason is None:
        reason = "max_k" if params.max_walk_length is not None else "safety_cap"
    return acc, k, reason


def _converged(label: str, terms: int, reason: str) -> bool:
    """``converged`` for a gain series stop reason: the tolerance rule fired
    or the caller's walk-length cap bound. A non-finite stop raises a
    ``SeriesOverflowError`` that names the series by ``label``."""
    if reason == "nonfinite":
        raise SeriesOverflowError(
            f"{label}: the series overflows float64 after {terms} terms"
        )
    return reason in ("tolerance", "max_k")


def _norm(x: np.ndarray) -> float:
    """L2 norm that does not overflow while the entries are finite."""
    norm = float(np.linalg.norm(x))
    if norm == math.inf:  # the squares overflowed; rescale by the largest entry
        scale = float(np.abs(x).max())
        if scale < math.inf:
            norm = scale * float(np.linalg.norm(x / scale))
    return norm


def _lambda1(g: Graph, lambda1: float | None) -> tuple[float, bool]:
    """``(lambda1, converged)``: the caller's value, taken as exact, or the
    ``spectral.lanczos`` estimate and whether it met its tolerance."""
    if lambda1 is not None:
        if lambda1 < 0 or not math.isfinite(lambda1):
            raise ParameterError(f"lambda1 must be finite and >= 0, got {lambda1}")
        return lambda1, True
    if g.node_count == 0:
        raise ParameterError("empty graph")
    if g.edge_count == 0:
        return 0.0, True
    [estimate] = spectral.lanczos(g, eigenvectors=False)
    return estimate.lambda1, estimate.converged
