"""Result containers shared by the centrality computations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pgain.errors import PgainError


@dataclass(frozen=True)
class CentralityVector:
    """Per-node scores plus the parameters that produced them.

    ``stop_reason`` says why a walk series (GPG, EPG, Katz or
    communicability) stopped: ``tolerance``, ``max_k`` or ``safety_cap``.
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
    measured against the same series run to a relative term of 1e-15.
    """

    metric: str
    errors: tuple[tuple[int, float], ...]
    params: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["k,epsilon"]
        lines += [f"{k},{eps:.17g}" for k, eps in self.errors]
        return "\n".join(lines) + "\n"
