import math

import numpy as np
import pytest

from pgain import Graph, ParameterError
import oracle
from pgain.generate import complete_edges, erdos_renyi_edges


class TestDenseAdjacency:
    def test_k3(self, k3):
        expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        np.testing.assert_array_equal(oracle.dense_adjacency(k3), expected)

    def test_p2(self, p2):
        np.testing.assert_array_equal(
            oracle.dense_adjacency(p2), np.array([[0, 1], [1, 0]], dtype=float)
        )

    def test_star_row(self, s4):
        a = oracle.dense_adjacency(s4)
        np.testing.assert_array_equal(a[0], [0, 1, 1, 1, 1])
        np.testing.assert_array_equal(a, a.T)

    def test_size_guard(self):
        g = Graph.from_edges(erdos_renyi_edges(80, 0.1, seed=0))
        assert g.node_count > oracle.SIZE_GUARD
        with pytest.raises(ParameterError, match="64"):
            oracle.dense_adjacency(g)


class TestWalkCount:
    def test_k3_two_walks(self, k3):
        w = oracle.walk_count(k3, 2)
        np.testing.assert_array_equal(np.diag(w), [2, 2, 2])
        assert w[0, 1] == w[1, 2] == 1

    def test_p2_odd_power(self, p2):
        np.testing.assert_array_equal(
            oracle.walk_count(p2, 3), np.array([[0, 1], [1, 0]], dtype=float)
        )

    def test_k0_is_identity(self, s4):
        np.testing.assert_array_equal(oracle.walk_count(s4, 0), np.eye(5))

    def test_k1_is_adjacency(self, star_plus_tail):
        np.testing.assert_array_equal(
            oracle.walk_count(star_plus_tail, 1),
            oracle.dense_adjacency(star_plus_tail),
        )

    def test_entries_are_integers(self):
        g = Graph.from_edges(erdos_renyi_edges(12, 0.4, seed=2))
        w = oracle.walk_count(g, 4)
        np.testing.assert_allclose(w, np.round(w), atol=1e-9)
        assert np.all(w >= 0)

    def test_negative_k_rejected(self, k3):
        with pytest.raises(ParameterError):
            oracle.walk_count(k3, -1)


class TestOracleGain:
    def test_k3_geometric_closed_form(self, k3):
        np.testing.assert_allclose(
            oracle.oracle_gain(k3, "geometric", delta=0.25), np.full(3, 4.0),
            rtol=1e-12,
        )

    def test_k3_exponential_closed_form(self, k3):
        np.testing.assert_allclose(
            oracle.oracle_gain(k3, "exponential"), np.full(3, 2 * math.e**2),
            rtol=1e-12,
        )

    def test_diverging_delta_rejected(self, k3):
        with pytest.raises(ParameterError):
            oracle.oracle_gain(k3, "geometric", delta=0.51)

    def test_unknown_kind(self, k3):
        with pytest.raises(ParameterError):
            oracle.oracle_gain(k3, "hyperbolic")

    def test_truncation_honors_k_max(self, p2):
        got = oracle.oracle_gain(p2, "geometric", delta=0.5, k_max=3)
        expected = 1 + 0.5 + 0.25  # d=1 regular partial sum
        np.testing.assert_allclose(got, np.full(2, expected), rtol=1e-12)


class TestJacobi:
    def test_complete_graph_spectrum(self):
        g = Graph.from_edges(complete_edges(5))
        eigs = np.sort(np.linalg.eigvalsh(oracle.dense_adjacency(g)))[::-1]
        np.testing.assert_allclose(eigs, [4, -1, -1, -1, -1], atol=1e-10)
        assert oracle.oracle_lambda1(g) == pytest.approx(4.0, abs=1e-10)

    def test_lambda1_helper(self, s4):
        assert oracle.oracle_lambda1(s4) == pytest.approx(2.0, abs=1e-10)
