"""Spearman rank correlation and the decay sweep.

``delta_sweep`` costs one Lanczos solve (lambda1 and the EC column), one
PageRank, one EPG and one two-pass Lanczos Katz solve for every grid value
at once (``spectral._katz_solve``), whose step count is set by the largest
delta_star alone, plus one SpMV per grid value for GPG = A Katz. Every
vector is ranked once and each Spearman coefficient is computed from the
ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pgain import baselines, spectral
from pgain.errors import ParameterError, UndefinedCorrelationError
from pgain.gain import GainParams, exponential_potential_gain
from pgain.graph import Graph

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
class SweepResult:
    """Correlations of the geometric gain against the other metrics, per
    normalized decay value. ``converged`` is False when the lambda1 solve,
    PageRank or EPG stopped at its cap, or when the Katz solve at some grid
    value has no certified error ||r|| / (1 - delta_star) within
    ``tolerance * ||Katz||`` (r = 1 - (I - delta A) Katz, its true
    residual)."""

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

    One Lanczos solve gives lambda1 (unless supplied) and the EC column.
    Every grid GPG comes from one shifted Lanczos solve (``_grid_gpg``),
    which costs about twice the steps of the largest delta_star alone.
    Katz = 1 + delta * GPG (the identity Katz = 1 + delta A Katz) is
    strictly increasing in GPG, so the Katz column takes GPG's ranks: it is
    1, or undefined where GPG is constant. Each vector is ranked once.
    """
    grid = np.asarray(DEFAULT_GRID if grid is None else grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0) or np.any(grid >= 1):
        raise ParameterError("grid values must lie strictly inside (0, 1)")
    if np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be strictly ascending")
    [spectrum] = spectral.lanczos(g)
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
    converged = spectrum.converged and pr.converged and epg.converged
    rho = {c: np.full(grid.size, np.nan) for c in SWEEP_COLUMNS}
    for row, (star, (gpg, _, certified)) in enumerate(
        zip(grid, _grid_gpg(g, deltas, lam, tolerance))
    ):
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


def _grid_gpg(g, deltas, lambda1, tol):
    """GPG = A Katz at every decay, from one ``spectral._katz_solve``.

    Returns one ``(gpg, steps, certified)`` per decay. The product A x also
    gives the true residual r = 1 - x + delta A x of (I - delta A) x = 1
    for free, and ||x - Katz|| <= ||r|| / (1 - delta lambda1): ``certified``
    says that this bound is at most ``tol * ||x||``. Each GPG takes over
    the buffer of a Katz vector that is no longer needed, so this holds no
    more n-vectors than the solve.
    """
    katz, steps = spectral._katz_solve(g, deltas, lambda1, tol)
    spare, residual = np.empty(g.node_count), np.empty(g.node_count)
    results = []
    for x, delta, m in zip(katz, deltas, steps):
        gpg = g.spmv(x, out=spare)
        np.multiply(gpg, delta, out=residual)
        residual -= x
        residual += 1.0
        bound = np.linalg.norm(residual) / (1.0 - delta * lambda1)
        results.append((gpg, m, bool(bound <= tol * np.linalg.norm(x))))
        spare = x
    return results
