"""Spearman rank correlation and the decay sweep.

``delta_sweep`` costs one Lanczos pass (``spectral._lanczos``) for lambda1,
the EC column, the Katz vector of every grid value and exp(A - theta I) 1
at once, whose step count is set by lambda1, the largest delta_star or the
exponential, one PageRank, one SpMV for EPG and one per grid value for
GPG = A Katz. Every vector is ranked once and each Spearman coefficient is
computed from the ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pgain import baselines, spectral
from pgain.errors import (ParameterError, UndefinedCorrelationError,
                          check_tolerance, check_unit_interval)
from pgain.gain import DEFAULT_TOLERANCE, GainParams, _gpg_from_katz
from pgain.graph import Graph
from pgain.vectors import dot

DEFAULT_GRID = tuple(np.linspace(0.1, 0.9, 9))
SWEEP_COLUMNS = ("deg", "ec", "pr", "katz", "epg")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional (average-tie) ranks, 1-based.

    Only tied values cost more than the sort: untied ones keep their
    sorted position, so a vector without ties needs about three n-vectors
    beside its own."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v)  # ties share one rank: their order is free
    sv = v[order]
    tied = np.flatnonzero(sv[1:] == sv[:-1])  # position i ties with i + 1
    del sv
    sorted_ranks = np.arange(1.0, v.size + 1.0)
    if tied.size:
        # a run of ties i..j is the group of positions i..j + 1, whose
        # ranks i + 1..j + 2 average to (i + j + 3) / 2
        runs = np.flatnonzero(np.diff(tied, prepend=-2) != 1)
        ends = np.append(runs[1:], tied.size)
        mean = np.repeat((tied[runs] + tied[ends - 1] + 3) * 0.5, ends - runs)
        sorted_ranks[tied] = mean
        sorted_ranks[tied + 1] = mean
    ranks = np.empty(v.size)
    ranks[order] = sorted_ranks
    return ranks


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average-tie ranks.

    Exactly +/-1 for perfectly co-/anti-monotone inputs (identical tie
    structure included). Raises UndefinedCorrelationError when either rank
    vector has zero variance (constant input).
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ParameterError("need at least two observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ParameterError("inputs must be finite")
    return _rho_from_ranks(average_ranks(x), average_ranks(y))


def _rho_from_ranks(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two rank vectors (the Spearman step after
    ranking), so a sweep can rank each vector once and correlate many
    pairs."""
    if rx.min() == rx.max() or ry.min() == ry.max():
        raise UndefinedCorrelationError("zero rank variance (constant input)")
    # identical (or exactly mirrored) rank vectors short-circuit to exact +/-1
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx, (rx.size + 1.0) - ry):
        return -1.0
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return dot(dx, dy) / np.sqrt(dot(dx, dx) * dot(dy, dy))


@dataclass(frozen=True)
class SweepResult:
    """Correlations of the geometric gain against the other metrics, per
    normalized decay value. ``converged`` is False when the lambda1 rule,
    the EC rule or PageRank stopped at its cap, when the exponential's
    error estimate did not meet ``tolerance``, or when the Katz solve at
    some grid value has no certified error ||r|| / (1 - delta_star) within
    ``tolerance * ||Katz||`` (r = 1 - (I - delta A) Katz, its true
    residual). The CLI writes it as CSV or JSON."""

    delta_star_grid: np.ndarray
    rho: dict  # column name -> array aligned with the grid (NaN = undefined)
    alpha: float
    lambda1: float
    converged: bool


def delta_sweep(
    g: Graph,
    grid: Sequence[float] | None = None,
    alpha: float = baselines.DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
    warn: Callable[[str], None] | None = None,
) -> SweepResult:
    """Correlate GPG (and Katz) against the fixed baselines across the grid.

    One Lanczos pass gives lambda1, by the rule of ``gain._solve``'s pass
    (no vector, the full cap), the EC column, the Katz vector at every
    delta = delta_star / lambda1 and u = exp(A - theta I) 1, each solve
    within the SpMVs ``gain._solve`` allows it, in the steps of the longest
    of them plus a replay of the longest vector's, less one.
    GPG = A Katz (``gain._gpg_from_katz``). EPG = e^theta A u has the ranks
    of A u, which float64 holds whatever lambda1 is. Katz = 1 + delta * GPG
    (the identity Katz = 1 + delta A Katz) is strictly increasing in GPG, so
    the Katz column takes GPG's ranks: it is 1, or undefined where GPG is
    constant. Each vector is ranked once.
    """
    grid = _check_sweep(grid, alpha, tolerance)

    def decays(lam):
        return [GainParams(delta_star=float(s)).resolve_delta(lam) for s in grid]

    # PageRank first, so its temporaries are gone before the pass's vectors
    pr = baselines.pagerank(g, alpha=alpha, tolerance=tolerance)
    # the lambda1 rule of gain._solve's pass, then the EC column's
    rules = [spectral._lambda1_rule(vector) for vector in (False, True)]
    [estimate, spectrum], krylov = spectral._lanczos(g, rules, decays,
                                                     tolerance, exp=True)
    lam = estimate.lambda1
    # A u goes to a buffer the pass freed, and the other two go; once
    # ranked, A u and u are the GPG products' two free vectors
    epg = g.spmv(krylov.exp, out=krylov.free.pop())
    krylov.free.clear()
    fixed_ranks = {
        "deg": average_ranks(g.degrees),
        "ec": average_ranks(spectrum.eigenvector),
        "pr": average_ranks(pr.scores),
        "epg": average_ranks(epg),
    }
    converged = (estimate.converged and spectrum.converged and pr.converged
                 and krylov.exp_met)
    del pr, spectrum  # ranked: their vectors go before the GPG products'
    rho = {c: np.full(grid.size, np.nan) for c in SWEEP_COLUMNS}
    gpgs = _gpg_from_katz(g, krylov.katz, krylov.deltas, lam, tolerance,
                          [epg, krylov.exp])
    for row, (star, (gpg, certified)) in enumerate(zip(grid, gpgs)):
        converged &= certified
        gpg_ranks = average_ranks(gpg)
        ranks = dict(fixed_ranks, katz=gpg_ranks)
        for column in SWEEP_COLUMNS:
            try:
                rho[column][row] = _rho_from_ranks(gpg_ranks, ranks[column])
            except UndefinedCorrelationError as exc:
                if warn is not None:
                    warn(f"delta_star={star:g} rho_{column}: {exc}")
    return SweepResult(grid, rho, alpha, lam, converged)


def _check_sweep(grid, alpha, tolerance) -> np.ndarray:
    """The grid (None for ``DEFAULT_GRID``) as an array, once it, the
    tolerance and PageRank's alpha have been checked."""
    check_tolerance(tolerance)
    check_unit_interval(alpha, "alpha")
    grid = np.asarray(DEFAULT_GRID if grid is None else grid, dtype=np.float64)
    for star in grid.tolist():
        check_unit_interval(star, "grid value")
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be strictly ascending and non-empty")
    return grid
