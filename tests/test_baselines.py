import math
import warnings

import numpy as np
import pytest

from pgain import (
    Graph,
    ParameterError,
    communicability_vector,
    degree_centrality,
    katz_centrality,
    pagerank,
    spectral,
)
from pgain.generate import (barabasi_albert_edges, complete_edges, ring_edges,
                            star_edges)
import oracle

from conftest import ba_graph, er_graph, rel_err


def _two_k10_and_a_path():
    """Two K_10 (nodes 0..9 and 12..21) joined by the path 9-10-11-12."""
    clique = [(a, b) for a in range(10) for b in range(a + 1, 10)]
    return Graph.from_edges(clique + [(a + 12, b + 12) for a, b in clique]
                            + [(9, 10), (10, 11), (11, 12)])


# graphs within the dense oracle's 64-node guard
CERTIFIED_GRAPHS = {
    "star": lambda: Graph.from_edges(star_edges(20)),
    "path60": lambda: Graph.from_edges([(i, i + 1) for i in range(59)]),
    "two_k10": _two_k10_and_a_path,
    # nodes 40..42 keep only a dropped self-loop: degree 0
    "self_loops": lambda: Graph.from_edges(
        barabasi_albert_edges(40, 2, seed=3) + [(40, 40), (41, 41), (42, 42)]),
}


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

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99])
    @pytest.mark.parametrize("name", sorted(CERTIFIED_GRAPHS))
    def test_certificate_bounds_the_l1_error(self, name, alpha, tol):
        g = CERTIFIED_GRAPHS[name]()
        v = pagerank(g, alpha=alpha, tolerance=tol)
        assert (v.converged, v.stop_reason) == (True, "tolerance")
        assert np.abs(v.scores - oracle.oracle_pagerank(g, alpha)).sum() <= tol

    @pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99])
    @pytest.mark.parametrize("edges", [complete_edges(12), ring_edges(15)],
                             ids=["K12", "C15"])
    def test_regular_graph_is_uniform(self, edges, alpha):
        # CG's residual vanishes after one step: no 0/0 may follow
        g = Graph.from_edges(edges)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            v = pagerank(g, alpha=alpha)
        assert (v.converged, v.stop_reason) == (True, "tolerance")
        assert np.all(v.scores == v.scores[0])
        assert abs(v.scores[0] - 1 / g.node_count) * g.node_count <= 1e-12

    def test_unreachable_tolerance_runs_to_the_cap(self):
        # float64 cannot certify 1e-200: the recurrence's residual shrinks
        # on past it and is refreshed from y before its squares underflow
        g = Graph.from_edges(complete_edges(10))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            v = pagerank(g, alpha=0.99, tolerance=1e-200, max_iter=300)
        assert (v.converged, v.stop_reason, v.iterations_used) == (
            False, "max_k", 300)
        assert np.all(v.scores == v.scores[0])
        assert abs(v.scores[0] - 0.1) <= 1e-14

    def test_certificate_counts_the_residual_rounding(self):
        # K_10 at alpha = 0.99: the computed residual met 1e-14 while the L1
        # error was 2.0e-14. Its own rounding, eps ||D y||_1 / n = 2.2e-14,
        # is above that tolerance, which then runs to the cap. The true
        # residual is exactly 0 there, and CG must not divide by it, nor by
        # the last one at an odd cap
        g = Graph.from_edges(complete_edges(10))
        for cap, reason in ((None, "safety_cap"), (301, "max_k")):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                v = pagerank(g, alpha=0.99, tolerance=1e-14, max_iter=cap)
            assert (v.converged, v.stop_reason) == (False, reason)
        for tol in (1e-13, 1e-12):
            v = pagerank(g, alpha=0.99, tolerance=tol)
            assert (v.converged, v.stop_reason) == (True, "tolerance")
            assert np.abs(v.scores - 0.1).sum() <= tol

    def test_restart_after_a_failed_certificate(self):
        # at 1e-15 the true residual fails a certificate that the
        # recurrence's met: CG restarts from it (going on from the stale
        # direction drifts to 2.6e-6 in 1,000 SpMVs here)
        g = ba_graph(60, 3, seed=1)
        v = pagerank(g, tolerance=1e-15, max_iter=1000)
        assert np.abs(v.scores - oracle.oracle_pagerank(g, 0.85)).sum() <= 1e-13

    def test_ba_cost(self):
        # the power iteration this replaced took 51 SpMVs
        v = pagerank(ba_graph(2000, 3, seed=1))
        assert v.converged and v.iterations_used <= 30

    def test_slow_mixing_path_cost(self):
        # the power iteration this replaced took 1,404 SpMVs
        g = Graph.from_edges([(i, i + 1) for i in range(1499)])
        v = pagerank(g, alpha=0.99, tolerance=1e-9)
        assert v.converged and v.iterations_used <= 150

    def test_certificate_spmv_counts_against_the_cap(self):
        g = ba_graph(200, 3, seed=1)
        spent = pagerank(g).iterations_used
        # the last SpMV is y's, for the true residual: without it the
        # recurrence's bound alone does not count as converged
        short = pagerank(g, max_iter=spent - 1)
        assert (short.converged, short.stop_reason,
                short.iterations_used) == (False, "max_k", spent - 1)
        exact = pagerank(g, max_iter=spent)
        assert (exact.converged, exact.stop_reason) == (True, "tolerance")
        np.testing.assert_array_equal(exact.scores, pagerank(g).scores)

    def test_default_cap_is_the_safety_cap(self, monkeypatch):
        # read at the call, as gain._solve reads it
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 3)
        v = pagerank(ba_graph(200, 3, seed=1))
        assert (v.converged, v.stop_reason, v.iterations_used) == (
            False, "safety_cap", 3)

    def test_edgeless_graph_is_uniform(self):
        v = pagerank(Graph.from_edges([(0, 0), (1, 1)]))
        np.testing.assert_array_equal(v.scores, [0.5, 0.5])
        assert (v.converged, v.stop_reason, v.iterations_used) == (
            True, "tolerance", 0)

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
