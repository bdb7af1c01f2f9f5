"""Dense brute-force references for small graphs (test oracles).

Everything here is O(n^2) or worse and guarded to n <= 64. These routines
deliberately avoid the sparse iteration paths so that agreement between the
two is a meaningful check: series are summed with dense matrix powers,
linear systems are solved directly, and lambda1 comes from LAPACK's
symmetric eigensolver (``numpy.linalg.eigvalsh``).
"""

from __future__ import annotations

import numpy as np

from pgain.errors import ParameterError
from pgain.graph import Graph

SIZE_GUARD = 64
_FLOOR = 1e-16  # stop once a term falls below this fraction of the sum


def neighbors(g: Graph, i: int) -> np.ndarray:
    """The sorted neighbours of internal node ``i``: its CSR row."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]]


def dense_adjacency(g: Graph) -> np.ndarray:
    """Exact dense adjacency matrix (n <= 64)."""
    n = _guard(g.node_count)
    a = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        a[i, neighbors(g, i)] = 1.0
    return a


def walk_count(g: Graph, k: int) -> np.ndarray:
    """A^k by repeated dense multiplication; entry (i, j) counts k-walks."""
    if k < 0:
        raise ParameterError("walk length must be non-negative")
    n = _guard(g.node_count)
    a = dense_adjacency(g)
    power = np.eye(n)
    for _ in range(k):
        power = power @ a
    return power


def oracle_gain(g: Graph, kind: str, delta: float | None = None,
                k_max: int | None = None) -> np.ndarray:
    """Truncated gain series via scaled dense matrix powers.

    Sums phi(k) A^k 1 with phi geometric (delta^(k-1), requires
    delta < 1/lambda1) or exponential (1/(k-1)!). With ``k_max=None`` the
    series runs until the tail is negligible (relative 1e-16).
    """
    n = _guard(g.node_count)
    a = dense_adjacency(g)
    if kind == "geometric":
        if delta is None or delta <= 0:
            raise ParameterError("geometric gain needs delta > 0")
        lam = np.linalg.eigvalsh(a)[-1] if n else 0.0
        if lam > 0 and delta >= 1.0 / lam:
            raise ParameterError(
                f"delta {delta} >= 1/lambda1 {1.0 / lam}: series may diverge"
            )
        factor = lambda k: delta  # noqa: E731  (Q_{k+1} = delta * Q_k A)
    elif kind == "exponential":
        factor = lambda k: 1.0 / k  # noqa: E731  (Q_{k+1} = Q_k A / k)
    else:
        raise ParameterError(f"unknown gain kind {kind!r}")

    ones = np.ones(n)
    scaled_power = a.copy()  # phi(k) A^k, k = 1
    total = scaled_power @ ones
    k = 1
    limit = k_max if k_max is not None else 1_000_000
    while k < limit:
        scaled_power = factor(k) * (scaled_power @ a)
        k += 1
        term = scaled_power @ ones
        total = total + term
        if k_max is None and np.linalg.norm(term) <= _FLOOR * np.linalg.norm(total):
            break
    return total


def oracle_katz(g: Graph, delta: float) -> np.ndarray:
    """(I - delta A)^(-1) 1 by dense linear solve."""
    n = _guard(g.node_count)
    a = dense_adjacency(g)
    return np.linalg.solve(np.eye(n) - delta * a, np.ones(n))


def oracle_pagerank(g: Graph, alpha: float) -> np.ndarray:
    """Exact PageRank from the dense linear system, L1-normalized."""
    n = _guard(g.node_count)
    a = dense_adjacency(g)
    deg = a.sum(axis=0)
    m = np.where(deg > 0, a / np.where(deg == 0, 1.0, deg)[np.newaxis, :], 0.0)
    m[:, deg == 0] = 1.0 / n  # dangling columns teleport uniformly
    p = np.linalg.solve(np.eye(n) - alpha * m, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


def oracle_communicability(g: Graph) -> np.ndarray:
    """exp(A) 1 via the dense Taylor series."""
    n = _guard(g.node_count)
    a = dense_adjacency(g)
    term = np.ones(n)
    total = term.copy()
    k = 0
    while True:
        k += 1
        term = (a @ term) / k
        total += term
        if np.linalg.norm(term) <= _FLOOR * np.linalg.norm(total):
            return total


def oracle_lambda1(g: Graph) -> float:
    """Spectral radius: the largest eigenvalue of the dense adjacency."""
    if g.node_count == 0:
        raise ParameterError("empty graph has no spectrum")
    return float(np.linalg.eigvalsh(dense_adjacency(g))[-1])


def _guard(n: int) -> int:
    if n > SIZE_GUARD:
        raise ParameterError(f"dense oracle limited to {SIZE_GUARD} nodes, got {n}")
    return n
