import math

import numpy as np
import pytest

from pgain import (
    Graph,
    ParameterError,
    eigenvector_centrality,
    power_iteration,
    power_iteration_rules,
)
from pgain import oracle
from pgain.generate import complete_edges

from conftest import ba_graph, er_graph


class TestLambda1:
    def test_k3(self, k3):
        assert power_iteration(k3).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_p2_bipartite(self, p2):
        # spectrum is {1, -1}; the +I shift must still converge
        assert power_iteration(p2).lambda1 == pytest.approx(1.0, abs=1e-8)

    def test_star_s4(self, s4):
        assert power_iteration(s4).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_even_cycle(self, c4):
        assert power_iteration(c4).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_path4(self, path4):
        golden = (1 + math.sqrt(5)) / 2  # 2 cos(pi/5)
        assert power_iteration(path4).lambda1 == pytest.approx(golden, abs=1e-8)

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            power_iteration(Graph.from_edges([]))

    def test_bad_args(self, k3):
        with pytest.raises(ParameterError):
            power_iteration(k3, tol=0.0)
        with pytest.raises(ParameterError):
            power_iteration(k3, max_iter=0)

    def test_non_convergence_flagged(self, s4):
        est = power_iteration(s4, tol=1e-14, max_iter=2)
        assert not est.converged

    def test_disconnected_takes_dominant_component(self):
        edges = complete_edges(4) + [(u + 10, v + 10) for u, v in complete_edges(6)]
        g = Graph.from_edges(edges)
        est = power_iteration(g)
        assert est.lambda1 == pytest.approx(5.0, abs=1e-8)
        # eigenvector mass sits on the K6 component
        k4_part = est.eigenvector[:4]
        assert np.all(np.abs(k4_part) < 1e-6)


class TestEigenvector:
    def test_k3_uniform(self, k3):
        v = eigenvector_centrality(k3).scores
        np.testing.assert_allclose(v, np.full(3, 1 / math.sqrt(3)), atol=1e-8)

    def test_s4_closed_form(self, s4):
        v = eigenvector_centrality(s4).scores
        assert v[0] == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        np.testing.assert_allclose(v[1:], np.full(4, 1 / (2 * math.sqrt(2))), atol=1e-8)

    def test_c4_uniform(self, c4):
        np.testing.assert_allclose(
            eigenvector_centrality(c4).scores, np.full(4, 0.5), atol=1e-8
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_norm_and_nonnegative(self, seed):
        g = er_graph(30, 0.2, seed)
        est = power_iteration(g)
        assert abs(np.linalg.norm(est.eigenvector) - 1.0) <= 1e-12
        assert np.all(est.eigenvector >= 0)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        g = er_graph(10 + 6 * seed, 0.25, seed) if seed % 2 else ba_graph(
            10 + 6 * seed, 2, seed
        )
        est = power_iteration(g)
        assert est.converged
        assert est.lambda1 == pytest.approx(oracle.oracle_lambda1(g), abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_bound(self, seed):
        g = ba_graph(25, 3, seed)
        tol = 1e-10
        est = power_iteration(g, tol=tol)
        assert est.converged
        assert est.residual <= 10 * tol * est.lambda1

    def test_degree_bounds_on_connected_graphs(self, s4, path4, star_plus_tail):
        for g in (s4, path4, star_plus_tail):
            lam = power_iteration(g).lambda1
            deg = g.degrees
            assert deg.mean() - 1e-9 <= lam <= deg.max() + 1e-9


class TestPowerIterationRules:
    """One pass with several stop rules equals one call per rule."""

    RULES = [
        (1e-10, 10_000),  # the lambda1 estimate
        (1e-12, 10_000),  # the EC column at the default --tol
        (1e-6, 10_000),
        (1e-8, 10_000),  # a --tol looser than 1e-10
        (1e-12, 3),  # the cap binds first
    ]

    @pytest.mark.parametrize(
        "g",
        [ba_graph(300, 3, seed=11), er_graph(300, 0.02, seed=12),
         Graph.from_edges([(i, i + 1) for i in range(29)])],
        ids=["ba", "er", "path30"],
    )
    def test_snapshots_equal_separate_runs(self, g):
        for rules in (self.RULES, self.RULES[::-1], self.RULES[:1]):
            for (tol, max_iter), est in zip(rules, power_iteration_rules(g, rules)):
                alone = power_iteration(g, tol=tol, max_iter=max_iter)
                assert est.lambda1 == alone.lambda1
                assert np.array_equal(est.eigenvector, alone.eigenvector)
                assert est.iterations == alone.iterations
                assert est.converged == alone.converged
                assert est.residual == alone.residual
                assert not est.eigenvector.flags.writeable

    def test_one_pass_costs_the_longest_rule(self, monkeypatch):
        g = ba_graph(300, 3, seed=11)
        longest = max(power_iteration(g, tol, it).iterations for tol, it in self.RULES)
        calls = []
        spmv = Graph.spmv
        monkeypatch.setattr(
            Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
        )
        power_iteration_rules(g, self.RULES)
        assert len(calls) == longest

    def test_capped_rule_flagged(self):
        path = Graph.from_edges([(i, i + 1) for i in range(99)])
        loose, capped = power_iteration_rules(path, [(1e-10, 10_000), (1e-10, 50)])
        assert loose.converged and not capped.converged
        assert capped.iterations == 50

    def test_bad_rules(self, k3):
        with pytest.raises(ParameterError):
            power_iteration_rules(k3, [(1e-10, 100), (0.0, 100)])
        with pytest.raises(ParameterError):
            power_iteration_rules(k3, [(1e-10, 100), (1e-10, 0)])
        with pytest.raises(ParameterError):
            power_iteration_rules(Graph.from_edges([]), [(1e-10, 100)])

    def test_centrality_is_the_ec_vector(self, s4):
        est = power_iteration(s4, tol=1e-12)
        v = est.centrality(1e-12)
        ec = eigenvector_centrality(s4, tol=1e-12)
        assert np.array_equal(v.scores, ec.scores)
        assert (v.metric, v.params, v.iterations_used, v.converged) == (
            ec.metric, ec.params, ec.iterations_used, ec.converged)
