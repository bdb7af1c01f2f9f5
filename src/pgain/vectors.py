"""Result containers shared by the centrality computations, and ``dot``."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pgain.errors import PgainError


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b in numpy's own loop, not BLAS: one order at any thread count."""
    return float(np.einsum("i,i", a, b))


@dataclass(frozen=True)
class CentralityVector:
    """Per-node scores plus the parameters that produced them.

    ``stop_reason`` says why the solve or walk series behind GPG, EPG,
    Katz, communicability or PageRank stopped: ``tolerance`` (its stop
    rule), ``max_k`` (the caller's cap) or ``safety_cap`` (the library's).
    It is None for the other computations.
    """

    scores: np.ndarray
    metric: str
    params: dict = field(default_factory=dict)
    iterations_used: int = 0
    converged: bool = True
    stop_reason: str | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.scores)):
            raise PgainError(f"{self.metric}: non-finite scores")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Relative L2 truncation error of the k-term series, per k.

    ``errors`` holds (k, epsilon) pairs for k = 1 .. iterations used,
    measured against the same series, in the same run, carried on to a
    relative term of 1e-15, or of its tolerance if smaller. epsilon(k) is
    the norm of the terms after the k-th over the reference's, from the
    terms' walk-count inner products: within about 1e-13 relative of the
    tails summed directly, below 1e-12 as well. The CLI writes it as CSV or
    JSON.
    """

    metric: str
    errors: tuple[tuple[int, float], ...]
    params: dict = field(default_factory=dict)
