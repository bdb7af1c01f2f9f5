"""Spectral radius and principal eigenvector via shifted power iteration.

The iteration runs on A + I rather than A: on bipartite graphs the spectrum
of A contains -lambda1 and the unshifted iteration need not settle, while
A + I has a unique dominant eigenvalue lambda1 + 1 with the same eigenvector.
The iterates do not depend on the tolerance, so ``power_iteration_rules``
serves several stop rules (lambda1 and the EC column) from one pass;
``power_iteration`` is its single-rule case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pgain.errors import ParameterError
from pgain.graph import Graph
from pgain.vectors import CentralityVector

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class SpectralEstimate:
    lambda1: float
    eigenvector: np.ndarray  # unit L2 norm, entries >= 0
    iterations: int
    converged: bool
    residual: float  # ||A v - lambda1 v||_2

    def centrality(self, tol: float) -> CentralityVector:
        """The eigenvector as the EC baseline, found at tolerance ``tol``."""
        return CentralityVector(
            scores=self.eigenvector,
            metric="ec",
            params={"tolerance": tol, "lambda1": self.lambda1},
            iterations_used=self.iterations,
            converged=self.converged,
        )


def power_iteration(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralEstimate:
    """Estimate lambda1 and its eigenvector.

    Starts from the uniform positive vector and iterates x <- (A+I)x,
    normalized. Stops once the Rayleigh quotient of A is stable to ``tol``
    (relative) and the residual is below ``10 * tol * lambda1``; otherwise
    returns ``converged=False`` after ``max_iter`` rounds.

    On disconnected graphs the estimate belongs to the component with the
    largest spectral radius and the eigenvector is supported there.
    """
    [estimate] = power_iteration_rules(g, [(tol, max_iter)])
    return estimate


def power_iteration_rules(
    g: Graph, rules: Sequence[tuple[float, int]]
) -> list[SpectralEstimate]:
    """One power iteration serving several ``(tol, max_iter)`` stop rules.

    The iterates do not depend on the tolerance, so a single pass freezes a
    snapshot for each rule when that rule fires and ends once every rule
    has fired. Each snapshot is exactly what ``power_iteration(g, tol,
    max_iter)`` returns on its own.
    """
    for tol, max_iter in rules:
        if tol <= 0:
            raise ParameterError("tol must be positive")
        if max_iter < 1:
            raise ParameterError("max_iter must be at least 1")
    n = g.node_count
    if n == 0:
        raise ParameterError("empty graph has no spectrum")

    x = np.full(n, 1.0 / np.sqrt(n))
    lam_prev = np.inf
    snapshots: list[SpectralEstimate | None] = [None] * len(rules)
    active = list(range(len(rules)))
    iteration = 0
    while active:
        iteration += 1
        y = g.spmv(x)  # A x
        lam = float(x @ y)
        residual = float(np.linalg.norm(y - lam * x))
        for j in active:
            tol = rules[j][0]
            if (
                abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300)
                and residual <= 10.0 * tol * max(lam, 1e-300)
            ):
                snapshots[j] = SpectralEstimate(
                    lam, _freeze(x), iteration, True, residual
                )
        active = [j for j in active if snapshots[j] is None]
        if not active:
            break
        lam_prev = lam
        z = y + x  # (A + I) x, strictly positive throughout
        x = z / np.linalg.norm(z)
        for j in active:
            if rules[j][1] == iteration:  # the cap binds: the updated iterate
                snapshots[j] = SpectralEstimate(
                    lam, _freeze(x), iteration, False, residual
                )
        active = [j for j in active if snapshots[j] is None]
    return snapshots


def eigenvector_centrality(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> CentralityVector:
    """Principal eigenvector of A, unit L2 norm (the EC baseline)."""
    return power_iteration(g, tol=tol, max_iter=max_iter).centrality(tol)


def _freeze(x: np.ndarray) -> np.ndarray:
    v = x.copy()
    v.flags.writeable = False
    return v
