"""Geometric and exponential potential-gain centralities.

Both scores are truncated walk series evaluated with one sparse
matrix-vector product per term:

* geometric: sum over k >= 1 of delta^(k-1) A^k 1, requires delta < 1/lambda1;
  term recurrence y_k = (delta A) y_(k-1) with y_1 = A 1.
* exponential: sum over k >= 1 of A^k 1 / (k-1)!; term recurrence
  t_k = A t_(k-1) / (k-1) with t_1 = A 1 (no decay parameter).

The series stops at ``max_walk_length`` terms or once the latest term's
relative L2 contribution drops below ``tolerance``, whichever comes first.
Norms are rescaled when their squares overflow, and a series whose sum
overflows float64 raises ``SeriesOverflowError`` instead of running on.

One loop, ``_run_series``, evaluates both series for every caller. The
geometric terms A^k 1 do not depend on delta, so the same pass can carry
several decays at once (the delta_star sweep): the terms are computed for
the largest delta and rescaled into one accumulator per decay, each with
its own stop rule. GPG is also (Katz - 1) / delta, with Katz = (I - delta
A)^(-1) 1, so one series at delta also gives Katz as 1 + delta * GPG.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from pgain import oracle, spectral
from pgain.errors import ParameterError, SeriesOverflowError
from pgain.graph import Graph
from pgain.vectors import CentralityVector, ConvergenceTrace

DEFAULT_DELTA_STAR = 0.5  # the classic Katz choice delta = 1/(2*lambda1)
DEFAULT_TOLERANCE = 1e-12
SAFETY_MAX_TERMS = 1_000_000
TERM_NORM_WARN = 1e300


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
        if self.delta_star is not None and not 0 < self.delta_star < 1:
            raise ParameterError(
                f"delta_star must lie in (0, 1), got {self.delta_star}"
            )
        if self.max_walk_length is None and self.tolerance is None:
            raise ParameterError("need max_walk_length or tolerance (or both)")
        if self.max_walk_length is not None and self.max_walk_length < 1:
            raise ParameterError("max_walk_length must be at least 1")
        if self.tolerance is not None and self.tolerance <= 0:
            raise ParameterError("tolerance must be positive")

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

    def snapshot(self, **extra) -> dict:
        out = {
            "delta": self.delta,
            "delta_star": self.delta_star,
            "max_walk_length": self.max_walk_length,
            "tolerance": self.tolerance,
        }
        out.update(extra)
        return out


def geometric_potential_gain(
    g: Graph, params: GainParams | None = None, lambda1: float | None = None
) -> CentralityVector:
    """Geometric potential gain of every node.

    ``lambda1`` is estimated by power iteration when not supplied (it is
    needed to resolve delta_star and to validate delta).
    """
    params = params or GainParams()
    lam = _lambda1(g, lambda1)
    delta = params.resolve_delta(lam)
    [(scores, iterations, reason)] = _run_series(
        g, "geometric", (delta,), params
    )
    return CentralityVector(
        scores=scores,
        metric="gpg",
        params=params.snapshot(delta=delta, delta_star=delta * lam, lambda1=lam),
        iterations_used=iterations,
        converged=_converged("geometric", iterations, reason),
        stop_reason=reason,
    )


def exponential_potential_gain(
    g: Graph, params: GainParams | None = None
) -> CentralityVector:
    """Exponential potential gain of every node (parameter-free decay)."""
    params = params or GainParams()
    [(scores, iterations, reason)] = _run_series(
        g, "exponential", (0.0,), params
    )
    return CentralityVector(
        scores=scores,
        metric="epg",
        params=params.snapshot(delta=None, delta_star=None),
        iterations_used=iterations,
        converged=_converged("exponential", iterations, reason),
        stop_reason=reason,
    )


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
    """Gain plus the per-k relative error against a converged reference.

    The reference is the dense oracle when n <= 64, otherwise the same
    series run to a relative term contribution of 1e-15.
    """
    if kind not in ("geometric", "exponential"):
        raise ParameterError(f"unknown gain kind {kind!r}")
    params = params or GainParams()
    if kind == "geometric":
        lam = _lambda1(g, lambda1)
        delta = params.resolve_delta(lam)
    else:
        lam = lambda1
        delta = 0.0

    if g.node_count <= oracle.SIZE_GUARD:
        reference = oracle.oracle_gain(
            g, kind, delta=delta if kind == "geometric" else None
        )
        ref_kind = "dense-oracle"
    else:
        long_params = replace(params, max_walk_length=None, tolerance=1e-15)
        [(reference, terms, reason)] = _run_series(
            g, kind, (delta,), long_params
        )
        _converged(kind, terms, reason)  # raises when the series overflows
        ref_kind = "long-run"
    ref_norm = _norm(reference)

    errors: list[tuple[int, float]] = []

    def record(k: int, acc: np.ndarray) -> None:
        if ref_norm == 0.0:
            errors.append((k, 0.0))
        else:
            errors.append((k, _norm(reference - acc) / ref_norm))

    [(scores, iterations, reason)] = _run_series(
        g, kind, (delta,), params, record
    )
    snapshot = params.snapshot(delta=None, delta_star=None)
    if kind == "geometric":
        snapshot.update(delta=delta, delta_star=delta * lam, lambda1=lam)
    vector = CentralityVector(
        scores=scores,
        metric="gpg" if kind == "geometric" else "epg",
        params=snapshot,
        iterations_used=iterations,
        converged=_converged(kind, iterations, reason),
        stop_reason=reason,
    )
    trace = ConvergenceTrace(
        metric=vector.metric,
        errors=tuple(errors),
        params=dict(snapshot),
        reference=ref_kind,
    )
    return vector, trace


def _run_series(g, kind, deltas, params, per_term=None):
    """The one truncated-series loop, shared by every gain computation.

    Returns one ``(scores, terms_used, stop_reason)`` per entry of
    ``deltas``; the reason is ``"tolerance"``, ``"max_k"`` (the caller's
    walk-length cap), ``"safety_cap"`` (``SAFETY_MAX_TERMS``) or
    ``"nonfinite"``. The walk terms A^k 1 do not depend on the decay, so
    one pass serves several geometric decays: it computes the terms scaled
    by the largest decay and adds (delta_j / delta_max)^(k-1) times each
    term into accumulator j. Each accumulator stops on its own relative
    term norm and is then frozen; the pass ends when every one has
    stopped. An accumulator that is no longer finite (the series overflows
    float64) stops at once with reason ``"nonfinite"``. With a single decay
    the arithmetic is exactly the single-series recurrence. The
    exponential kind takes ``deltas=(0.0,)``. ``per_term(k, acc)`` sees
    the first accumulator after every term.
    """
    n = g.node_count
    if n == 0 or g.edge_count == 0:
        zeros = np.zeros(n)
        if per_term is not None and (params.max_walk_length or 1) >= 1:
            per_term(1, zeros)
        return [(zeros.copy(), 1, "tolerance") for _ in deltas]

    top = max(deltas)
    ratios = [d / top if kind == "geometric" else 1.0 for d in deltas]
    term = g.spmv(np.ones(n))  # A 1, the walk-length-1 term
    accs = [term.copy() for _ in deltas]
    spare = np.empty_like(term)  # ping-pong buffer: no allocation per term
    k = 1
    max_term_norm = 0.0
    if per_term is not None:
        per_term(k, accs[0])

    limit = params.max_walk_length or SAFETY_MAX_TERMS
    stopped = [None] * len(deltas)  # (terms_used, reason) once frozen
    active = list(range(len(deltas)))
    # an overflow is caught by the accumulator's norm, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while active and k < limit:
            scale = top if kind == "geometric" else 1.0 / k
            g.spmv(term, scale=scale, out=spare)
            term, spare = spare, term
            term_norm = _norm(term)
            k += 1
            max_term_norm = max(max_term_norm, term_norm)
            for j in active:
                coef = ratios[j] ** (k - 1)  # 1.0 exactly for the largest decay
                accs[j] += term if coef == 1.0 else coef * term
                acc_norm = _norm(accs[j])
                if not math.isfinite(acc_norm):
                    stopped[j] = (k, "nonfinite")
                elif params.tolerance is not None and coef * term_norm < (
                    params.tolerance * acc_norm
                ):
                    stopped[j] = (k, "tolerance")
            if per_term is not None:
                per_term(k, accs[0])
            active = [j for j in active if stopped[j] is None]
    cap = "max_k" if params.max_walk_length is not None else "safety_cap"
    for j in active:
        stopped[j] = (k, cap)
    overflowed = any(reason == "nonfinite" for _, reason in stopped)
    if max_term_norm > TERM_NORM_WARN and not overflowed:  # callers raise then
        warnings.warn(
            f"{kind} gain: intermediate term norm reached {max_term_norm:.3g}; "
            "scores may lose precision",
            RuntimeWarning,
        )
    return [(acc, *stop) for acc, stop in zip(accs, stopped)]


def _converged(kind: str, terms: int, reason: str) -> bool:
    """``converged`` for a series stop reason: the tolerance rule fired or
    the caller's walk-length cap bound. A non-finite stop raises."""
    if reason == "nonfinite":
        raise SeriesOverflowError(
            f"{kind} gain: the series overflows float64 after {terms} terms"
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


def _lambda1(g: Graph, lambda1: float | None) -> float:
    if lambda1 is not None:
        if lambda1 < 0 or not math.isfinite(lambda1):
            raise ParameterError(f"lambda1 must be finite and >= 0, got {lambda1}")
        return lambda1
    if g.node_count == 0:
        raise ParameterError("empty graph")
    if g.edge_count == 0:
        return 0.0
    return spectral.power_iteration(g).lambda1
