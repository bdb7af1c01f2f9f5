import math

import numpy as np
import pytest

from pgain import (
    Graph,
    ParameterError,
    eigenvector_centrality,
    lanczos,
)
import oracle
from pgain.generate import complete_edges, grid_edges, ring_edges, star_edges

from conftest import ba_graph, er_graph


def solve(g, tol=1e-10, max_iter=10_000):
    [estimate] = lanczos(g, [(tol, max_iter)])
    return estimate


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def count_spmv(monkeypatch):
    calls = []
    spmv = Graph.spmv
    monkeypatch.setattr(
        Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
    )
    return calls


def top_eigenpair(g):
    """Dense reference: the largest eigenvalue and its eigenvector, with
    the sign that makes the entries sum to a positive total."""
    dense = np.zeros((g.node_count, g.node_count))
    rows = np.repeat(np.arange(g.node_count), np.diff(g.indptr))
    dense[rows, g.indices] = 1.0
    values, vectors = np.linalg.eigh(dense)
    v = vectors[:, -1]
    return values[-1], v if v.sum() > 0 else -v


class TestLambda1:
    def test_k3(self, k3):
        assert solve(k3).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_p2_bipartite(self, p2):
        # spectrum is {1, -1}; the top Ritz value must be +1
        assert solve(p2).lambda1 == pytest.approx(1.0, abs=1e-8)

    def test_star_s4(self, s4):
        assert solve(s4).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_even_cycle(self, c4):
        assert solve(c4).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_path4(self, path4):
        golden = (1 + math.sqrt(5)) / 2  # 2 cos(pi/5)
        assert solve(path4).lambda1 == pytest.approx(golden, abs=1e-8)

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            solve(Graph.from_edges([]))

    def test_bad_args(self, k3):
        # the words GainParams uses for a tolerance
        with pytest.raises(ParameterError, match="tolerance must be finite"):
            solve(k3, tol=0.0)
        with pytest.raises(ParameterError):
            solve(k3, max_iter=0)

    def test_non_convergence_flagged(self, s4):
        est = solve(s4, tol=1e-14, max_iter=2)
        assert not est.converged
        assert est.iterations == 1  # a second step would need 3 SpMVs

    def test_disconnected_takes_dominant_component(self):
        edges = complete_edges(4) + [(u + 10, v + 10) for u, v in complete_edges(6)]
        g = Graph.from_edges(edges)
        est = solve(g)
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
        est = solve(g)
        assert abs(np.linalg.norm(est.eigenvector) - 1.0) <= 1e-12
        assert np.all(est.eigenvector >= 0)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        g = er_graph(10 + 6 * seed, 0.25, seed) if seed % 2 else ba_graph(
            10 + 6 * seed, 2, seed
        )
        est = solve(g)
        assert est.converged
        assert est.lambda1 == pytest.approx(oracle.oracle_lambda1(g), abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_bound(self, seed):
        g = ba_graph(25, 3, seed)
        tol = 1e-10
        est = solve(g, tol=tol)
        assert est.converged
        assert est.residual <= 10 * tol * est.lambda1
        # the Ritz residual is an estimate; the true one is within a factor 2
        v = est.eigenvector
        assert np.linalg.norm(g.spmv(v) - est.lambda1 * v) <= 20 * tol * est.lambda1

    def test_degree_bounds_on_connected_graphs(self, s4, path4, star_plus_tail):
        for g in (s4, path4, star_plus_tail):
            lam = solve(g).lambda1
            deg = g.degrees
            assert deg.mean() - 1e-9 <= lam <= deg.max() + 1e-9


class TestAdversarial:
    """Failure modes of a Lanczos eigensolver, against closed forms or
    ``numpy.linalg.eigh``."""

    @pytest.mark.parametrize(
        "edges",
        [star_edges(4), ring_edges(6), grid_edges(3, 3), star_edges(7),
         [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]],
        ids=["s4", "c6", "grid3x3", "s7", "k23"],
    )
    def test_bipartite_gives_plus_lambda1(self, edges):
        # the spectrum holds -lambda1 too, and on S_7 the Ritz value near
        # -lambda1 is the larger in modulus by rounding: take the largest
        g = Graph.from_edges(edges)
        lam, v = top_eigenpair(g)
        est = solve(g, tol=1e-12)
        assert est.converged
        assert est.iterations <= 5  # the start's Krylov space has dimension <= 3
        assert est.lambda1 == pytest.approx(lam, abs=1e-12)
        np.testing.assert_allclose(est.eigenvector, v, atol=1e-12)

    def test_disconnected_vector_on_larger_component(self):
        edges = complete_edges(4) + [(u + 4, v + 4) for u, v in complete_edges(3)]
        est = solve(Graph.from_edges(edges), tol=1e-12)
        assert est.lambda1 == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(est.eigenvector[:4], 0.5, atol=1e-12)
        # rounding leaves the K3 part at +-1e-16 before the clip to >= 0
        assert np.all((0 <= est.eigenvector[4:]) & (est.eigenvector[4:] <= 1e-12))

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_disconnected_vector_is_nonnegative(self, seed):
        g = er_graph(60, 0.03, seed)
        lam, v = top_eigenpair(g)
        for tol in (1e-6, 1e-10):
            est = solve(g, tol=tol)
            assert est.lambda1 == pytest.approx(lam, abs=1e-8)
            assert np.all(est.eigenvector >= 0)
            assert np.linalg.norm(est.eigenvector - v) <= 1e-3

    def test_repeated_lambda1_is_projection_of_start(self):
        # two triangles: the top eigenspace is two-dimensional, and the
        # uniform start lies in it, so it is its own projection
        edges = complete_edges(3) + [(u + 3, v + 3) for u, v in complete_edges(3)]
        est = solve(Graph.from_edges(edges), tol=1e-12)
        assert est.converged
        assert est.lambda1 == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(est.eigenvector, 1 / math.sqrt(6), atol=1e-12)

    def test_p3000_stops_at_its_cap_below_lambda1(self):
        exact = 2 * math.cos(math.pi / 3001)
        est = solve(path_graph(3000))
        assert not est.converged
        assert est.iterations <= 10_000
        assert 0 < exact - est.lambda1 < 1e-6  # a Ritz value is a lower bound

    def test_restarts_reach_the_closed_form(self, monkeypatch):
        # P_500 has a relative gap of about 3e-5 and needs many restarts
        n = 500
        g = path_graph(n)
        calls = count_spmv(monkeypatch)
        est = solve(g)
        assert est.converged
        assert len(calls) == est.iterations
        assert est.iterations > 4 * 127  # each restart costs 2 * 64 - 1 SpMVs
        assert est.lambda1 == pytest.approx(2 * math.cos(math.pi / (n + 1)),
                                            abs=1e-14)
        exact = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
        np.testing.assert_allclose(est.eigenvector, exact / np.linalg.norm(exact),
                                   atol=1e-4)  # the gap limits the vector

    @pytest.mark.parametrize("cap, spent", [
        (126, 125), (127, 127), (128, 128), (129, 128), (254, 254), (255, 255),
        (256, 255),
    ])
    def test_cap_is_strict_across_restarts(self, cap, spent, monkeypatch):
        # step m of a cycle costs 2m - 1 SpMVs with its replay; a cycle of
        # 64 steps costs 127, and the first step after a restart 1 more
        g = path_graph(500)
        calls = count_spmv(monkeypatch)
        est = solve(g, max_iter=cap)
        assert not est.converged
        assert est.iterations == len(calls) == spent

    def test_edgeless_graph(self):
        g = Graph(indptr=np.zeros(4, dtype=np.int64),
                  indices=np.zeros(0, dtype=np.int64), labels=["a", "b", "c"])
        est = solve(g)
        assert (est.lambda1, est.iterations, est.converged) == (0.0, 1, True)
        np.testing.assert_allclose(est.eigenvector, 1 / math.sqrt(3))


class TestLanczosRules:
    """One Lanczos run with several stop rules equals one call per rule."""

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
         path_graph(30), path_graph(200)],
        ids=["ba", "er", "path30", "path200"],
    )
    def test_snapshots_equal_separate_runs(self, g):
        for rules in (self.RULES, self.RULES[::-1], self.RULES[:1]):
            for (tol, max_iter), est in zip(rules, lanczos(g, rules)):
                alone = solve(g, tol=tol, max_iter=max_iter)
                assert est.lambda1 == alone.lambda1
                assert np.array_equal(est.eigenvector, alone.eigenvector)
                assert est.iterations == alone.iterations
                assert est.converged == alone.converged
                assert est.residual == alone.residual
                assert not est.eigenvector.flags.writeable

    def test_one_pass_costs_the_longest_rule(self, monkeypatch):
        g = ba_graph(300, 3, seed=11)
        longest = max(solve(g, tol, it).iterations for tol, it in self.RULES)
        calls = count_spmv(monkeypatch)
        lanczos(g, self.RULES)
        assert len(calls) == longest

    def test_capped_rule_flagged(self):
        path = path_graph(100)
        loose, capped = lanczos(path, [(1e-10, 10_000), (1e-10, 50)])
        assert loose.converged and not capped.converged
        # 25 steps and a 24-SpMV replay; a 26th step would need 51 SpMVs
        assert capped.iterations == 49

    def test_bad_rules(self, k3):
        with pytest.raises(ParameterError):
            lanczos(k3, [(1e-10, 100), (0.0, 100)])
        with pytest.raises(ParameterError):
            lanczos(k3, [(1e-10, 100), (1e-10, 0)])
        with pytest.raises(ParameterError):
            lanczos(Graph.from_edges([]), [(1e-10, 100)])

    def test_centrality_is_the_ec_vector(self, s4):
        est = solve(s4, tol=1e-12)
        v = est.centrality(1e-12)
        ec = eigenvector_centrality(s4, tol=1e-12)
        assert np.array_equal(v.scores, ec.scores)
        assert (v.metric, v.params, v.iterations_used, v.converged) == (
            ec.metric, ec.params, ec.iterations_used, ec.converged)


class TestLambda1Only:
    """``eigenvectors=False`` skips the final replay: the same lambda1 from
    pass 1 alone, with only the SpMVs actually spent counted and capped."""

    @pytest.mark.parametrize(
        "g", [ba_graph(300, 3, seed=11), path_graph(30), path_graph(500)],
        ids=["ba", "path30", "path500-restarts"],
    )
    def test_same_lambda1_for_the_pass_1_steps(self, g, monkeypatch):
        rules = [(1e-10, 10_000), (1e-6, 10_000)]
        full = lanczos(g, rules)
        calls = count_spmv(monkeypatch)
        cheap = lanczos(g, rules, eigenvectors=False)
        for est, ref in zip(cheap, full):
            assert (est.lambda1, est.residual, est.converged) == (
                ref.lambda1, ref.residual, ref.converged)
            assert est.eigenvector is None
            # a cycle of m steps costs 2m - 1 SpMVs with its replay, m without
            cycles, m = divmod(ref.iterations, 2 * 64 - 1)
            assert est.iterations == cycles * (2 * 64 - 1) + (m + 1) // 2
        assert len(calls) == max(est.iterations for est in cheap)

    @pytest.mark.parametrize("cap, spent", [
        (63, 63), (64, 64), (127, 64), (128, 128), (129, 129), (191, 191),
        (254, 191), (255, 255),
    ])
    def test_cap_is_strict_across_restarts(self, cap, spent, monkeypatch):
        # step m of a cycle costs one SpMV; a restart still replays the
        # cycle's 63 SpMVs for its start vector
        g = path_graph(500)
        calls = count_spmv(monkeypatch)
        [est] = lanczos(g, [(1e-10, cap)], eigenvectors=False)
        assert not est.converged
        assert est.iterations == len(calls) == spent
