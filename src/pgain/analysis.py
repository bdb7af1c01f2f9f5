"""Rank-correlation analytics, decay sweeps, convergence and timing reports.

``delta_sweep`` costs one power iteration (lambda1 and the EC column), one
PageRank, one EPG and a single multi-decay GPG series pass, whose SpMV
count is that of the largest delta_star alone. Every vector is ranked once
and each Spearman coefficient is computed from the ranks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from pgain import baselines, spectral
from pgain.errors import ParameterError, UndefinedCorrelationError
from pgain.gain import (
    GainParams,
    _converged,
    _run_series,
    exponential_potential_gain,
    gain_with_trace,
)
from pgain.graph import Graph
from pgain.vectors import CentralityVector, ConvergenceTrace

DEFAULT_GRID = tuple(np.linspace(0.1, 0.9, 9))
SWEEP_COLUMNS = ("deg", "ec", "pr", "katz", "epg")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional (average-tie) ranks, 1-based."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    order = np.argsort(v, kind="stable")
    sv = v[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sv[1:] != sv[:-1]
    group = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, n))
    group_rank = starts + 0.5 * (counts - 1) + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = group_rank[group]
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
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    return float(dx @ dy) / np.sqrt(vx * vy)


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise Spearman matrix over named score vectors.

    ``rho`` is symmetric with NaN marking undefined pairs; ``missing`` maps
    (name_a, name_b) to the reason the pair is undefined.
    """

    metric_names: tuple[str, ...]
    rho: np.ndarray
    missing: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def value(self, a: str, b: str) -> float:
        i = self.metric_names.index(a)
        j = self.metric_names.index(b)
        return float(self.rho[i, j])

    def to_csv(self) -> str:
        lines = ["metric," + ",".join(self.metric_names)]
        for i, name in enumerate(self.metric_names):
            cells = [
                "" if np.isnan(v) else f"{v:.17g}" for v in self.rho[i]
            ]
            lines.append(name + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def correlation_matrix(
    vectors: Iterable[CentralityVector], params: dict | None = None
) -> CorrelationReport:
    """All pairwise Spearman correlations, ordered by metric name."""
    ordered = sorted(vectors, key=lambda v: v.metric)
    if len(ordered) < 2:
        raise ParameterError("need at least two score vectors")
    names = tuple(v.metric for v in ordered)
    k = len(ordered)
    rho = np.full((k, k), np.nan)
    missing: dict = {}
    for i in range(k):
        for j in range(i, k):
            try:
                value = spearman_rho(ordered[i].scores, ordered[j].scores)
                rho[i, j] = rho[j, i] = value
            except UndefinedCorrelationError as exc:
                missing[(names[i], names[j])] = str(exc)
    return CorrelationReport(names, rho, missing, params or {})


@dataclass(frozen=True)
class SweepResult:
    """Correlations of the geometric gain against the other metrics, per
    normalized decay value. ``converged`` is False when power iteration,
    PageRank, EPG or the GPG series at any grid value stopped at its cap."""

    delta_star_grid: np.ndarray
    rho: dict  # column name -> array aligned with the grid (NaN = undefined)
    alpha: float
    lambda1: float
    converged: bool

    def to_csv(self) -> str:
        lines = ["delta_star," + ",".join(f"rho_{c}" for c in SWEEP_COLUMNS)]
        for row, star in enumerate(self.delta_star_grid):
            cells = [f"{star:.17g}"]
            for c in SWEEP_COLUMNS:
                v = self.rho[c][row]
                cells.append("" if np.isnan(v) else f"{v:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def delta_sweep(
    g: Graph,
    grid: Sequence[float] | None = None,
    alpha: float = 0.85,
    tolerance: float = 1e-12,
    lambda1: float | None = None,
    warn: Callable[[str], None] | None = None,
) -> SweepResult:
    """Correlate GPG (and Katz) against the fixed baselines across the grid.

    One power iteration gives lambda1 (unless supplied) and the EC column.
    Every grid GPG comes from one series pass, which costs about the SpMVs
    of the largest delta_star alone. The Katz column is 1 + delta * GPG,
    the identity Katz = 1 + delta A Katz, rather than a separate solve.
    Each vector is ranked once.
    """
    grid = np.asarray(DEFAULT_GRID if grid is None else grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0) or np.any(grid >= 1):
        raise ParameterError("grid values must lie strictly inside (0, 1)")
    if np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be strictly ascending")
    spectrum = spectral.power_iteration(g)
    lam = spectrum.lambda1 if lambda1 is None else lambda1
    deltas = [
        GainParams(delta_star=float(star)).resolve_delta(lam) for star in grid
    ]

    pr = baselines.pagerank(g, alpha=alpha, tolerance=tolerance)
    epg = exponential_potential_gain(g, GainParams(tolerance=tolerance))
    fixed_ranks = {
        "deg": average_ranks(g.degrees),
        "ec": average_ranks(spectrum.eigenvector),
        "pr": average_ranks(pr.scores),
        "epg": average_ranks(epg.scores),
    }
    series = _run_series(
        g, "geometric", deltas, GainParams(tolerance=tolerance)
    )
    converged = spectrum.converged and pr.converged and epg.converged
    rho = {c: np.full(grid.size, np.nan) for c in SWEEP_COLUMNS}
    for row, (star, delta, (gpg, terms, reason)) in enumerate(
        zip(grid, deltas, series)
    ):
        converged &= _converged("geometric", terms, reason)
        gpg_ranks = average_ranks(gpg)
        ranks = dict(fixed_ranks, katz=average_ranks(1.0 + delta * gpg))
        for column in SWEEP_COLUMNS:
            try:
                rho[column][row] = _rho_from_ranks(gpg_ranks, ranks[column])
            except UndefinedCorrelationError as exc:
                if warn is not None:
                    warn(f"delta_star={star:g} rho_{column}: {exc}")
    return SweepResult(grid, rho, alpha, lam, converged)


def convergence_report(
    g: Graph,
    delta_stars: Sequence[float] = (0.5,),
    kinds: Sequence[str] = ("geometric", "exponential"),
    tolerance: float = 1e-12,
    max_walk_length: int | None = None,
    lambda1: float | None = None,
) -> list[ConvergenceTrace]:
    """Convergence traces for the requested kinds and decay values.

    Exponential traces do not depend on delta_star and are emitted once.
    """
    lam = lambda1 if lambda1 is not None else spectral.power_iteration(g).lambda1
    traces = []
    for kind in kinds:
        stars = delta_stars if kind == "geometric" else (None,)
        for star in stars:
            params = GainParams(
                delta_star=star, max_walk_length=max_walk_length,
                tolerance=tolerance,
            )
            _, trace = gain_with_trace(g, params, kind=kind, lambda1=lam)
            traces.append(trace)
    return traces


@dataclass(frozen=True)
class TimingRecord:
    wall_seconds: float
    iterations: int

    @property
    def per_iteration_seconds(self) -> float:
        return self.wall_seconds / max(self.iterations, 1)


def timed(fn: Callable[[], CentralityVector]) -> tuple[CentralityVector, TimingRecord]:
    """Run a centrality computation and record wall clock + per-iteration time."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, TimingRecord(elapsed, result.iterations_used)
