import numpy as np
import pytest

from pgain import Graph
from pgain.generate import (
    barabasi_albert_edges,
    complete_edges,
    erdos_renyi_edges,
    ring_edges,
    star_edges,
)


@pytest.fixture
def k3():
    return Graph.from_edges(complete_edges(3))


@pytest.fixture
def p2():
    return Graph.from_edges([(0, 1)])


@pytest.fixture
def s4():
    """Star, center 0 plus four leaves."""
    return Graph.from_edges(star_edges(4))


@pytest.fixture
def c4():
    return Graph.from_edges(ring_edges(4))


@pytest.fixture
def path4():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3)])


STAR_PLUS_TAIL_EDGES = ([(0, i) for i in range(1, 7)]
                        + [(0, 7), (7, 8), (7, 9), (8, 9)])


@pytest.fixture
def star_plus_tail():
    """Hub (0) with six leaves plus a short tail ending in a triangle knot.

    Degrees 7/3/2/1 are distinct across automorphism orbits, so the degree
    ranking has ties only between interchangeable nodes. EC ranks the knot
    below the leaves while degree ranks it above, which makes the
    degree-vs-eigenvector transition visible in decay sweeps.
    """
    return Graph.from_edges(STAR_PLUS_TAIL_EDGES)


def er_graph(n, p, seed):
    return Graph.from_edges(erdos_renyi_edges(n, p, seed=seed))


def ba_graph(n, m0, seed):
    return Graph.from_edges(barabasi_albert_edges(n, m0, seed=seed))


def rel_err(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    scale = np.linalg.norm(expected)
    if scale == 0:
        return np.linalg.norm(np.asarray(actual, dtype=np.float64))
    return np.linalg.norm(np.asarray(actual, dtype=np.float64) - expected) / scale


def count_spmv(monkeypatch):
    calls = []
    spmv = Graph.spmv
    monkeypatch.setattr(
        Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
    )
    return calls
