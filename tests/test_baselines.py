import math

import numpy as np
import pytest

from pgain import (
    Graph,
    ParameterError,
    communicability_vector,
    degree_centrality,
    katz_centrality,
    pagerank,
)
import oracle

from conftest import ba_graph, er_graph, rel_err


class TestKatz:
    def test_k3_closed_form(self, k3):
        v = katz_centrality(k3, 0.25)
        np.testing.assert_allclose(v.scores, np.full(3, 2.0), rtol=1e-9)

    def test_p2_closed_form(self, p2):
        v = katz_centrality(p2, 0.5)
        np.testing.assert_allclose(v.scores, np.full(2, 2.0), rtol=1e-9)

    def test_star_matches_dense_solve(self, s4):
        v = katz_centrality(s4, 0.3, tolerance=1e-14)
        assert rel_err(v.scores, oracle.oracle_katz(s4, 0.3)) <= 1e-9

    def test_scores_at_least_one(self):
        g = ba_graph(40, 2, seed=7)
        v = katz_centrality(g, 0.02)
        assert np.all(v.scores >= 1.0)

    def test_delta_out_of_range(self, k3):
        with pytest.raises(ParameterError):
            katz_centrality(k3, 0.5)  # 1/lambda1 exactly
        with pytest.raises(ParameterError):
            katz_centrality(k3, -0.1)

    def test_non_convergence_flagged(self, s4):
        v = katz_centrality(s4, 0.4, max_iter=2)
        assert not v.converged
        # one step: its SpMV and the product A x
        assert (v.stop_reason, v.iterations_used) == ("max_k", 2)


class TestPagerank:
    def test_k3_uniform(self, k3):
        np.testing.assert_allclose(pagerank(k3).scores, np.full(3, 1 / 3), atol=1e-9)

    def test_c4_uniform(self, c4):
        np.testing.assert_allclose(pagerank(c4).scores, np.full(4, 0.25), atol=1e-9)

    def test_star_matches_dense_solve(self, s4):
        v = pagerank(s4, alpha=0.85, tolerance=1e-14)
        assert rel_err(v.scores, oracle.oracle_pagerank(s4, 0.85)) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_sums_to_one(self, seed):
        g = er_graph(35, 0.15, seed)
        assert pagerank(g).scores.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dangling_node_handled(self):
        from pgain import Graph

        g = Graph.from_edges([(0, 1), (2, 2)])  # node 2 isolated
        v = pagerank(g, tolerance=1e-14)
        assert v.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert rel_err(v.scores, oracle.oracle_pagerank(g, 0.85)) <= 1e-9

    def test_alpha_domain(self, k3):
        with pytest.raises(ParameterError):
            pagerank(k3, alpha=1.0)
        with pytest.raises(ParameterError):
            pagerank(k3, alpha=0.0)

    def test_iteration_cap_domain(self, k3):
        with pytest.raises(ParameterError, match="max_iter must be at least 1"):
            pagerank(k3, max_iter=0)

    def test_empty_graph(self):
        assert pagerank(Graph.from_edges([])).scores.shape == (0,)


class TestCommunicability:
    def test_k3_is_e_squared(self, k3):
        v = communicability_vector(k3)
        np.testing.assert_allclose(v.scores, np.full(3, math.e**2), rtol=1e-8)

    def test_p2_is_e(self, p2):
        # cosh(1) + sinh(1) = e
        v = communicability_vector(p2)
        np.testing.assert_allclose(v.scores, np.full(2, math.e), rtol=1e-8)

    def test_random_graph_matches_dense_series(self):
        g = er_graph(20, 0.3, seed=11)
        v = communicability_vector(g, tolerance=1e-14)
        assert rel_err(v.scores, oracle.oracle_communicability(g)) <= 1e-9

    def test_cap_binds(self):
        # m steps cost 2m - 1 SpMVs of pass and replay: a cap of 6 stops
        # the pass at 3 steps, before Saad's estimate meets the tolerance
        v = communicability_vector(ba_graph(100, 3, seed=2), max_iter=6)
        assert (v.converged, v.stop_reason, v.iterations_used) == (
            False, "max_k", 5)


class TestDegree:
    def test_matches_graph_degrees(self, star_plus_tail):
        v = degree_centrality(star_plus_tail)
        np.testing.assert_array_equal(v.scores, star_plus_tail.degrees.astype(float))
        assert v.metric == "deg"
