import math
from itertools import islice

import numpy as np
import pytest

from pgain import (
    Graph,
    ParameterError,
    eigenvector_centrality,
    lanczos,
)
import oracle
from pgain import spectral
from pgain.generate import complete_edges, grid_edges, ring_edges, star_edges
from pgain.spectral import _lanczos, _recurrence, _top_pair

from conftest import ba_graph, er_graph


def run_rules(g, rules, vector=True):
    """The estimates of one ``_lanczos`` run with every ``(tol, max_iter)``
    rule, each with its Ritz vector or none."""
    return _lanczos(g, [(tol, max_iter, vector) for tol, max_iter in rules])[0]


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
        assert lanczos(k3).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_p2_bipartite(self, p2):
        # spectrum is {1, -1}; the top Ritz value must be +1
        assert lanczos(p2).lambda1 == pytest.approx(1.0, abs=1e-8)

    def test_star_s4(self, s4):
        assert lanczos(s4).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_even_cycle(self, c4):
        assert lanczos(c4).lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_path4(self, path4):
        golden = (1 + math.sqrt(5)) / 2  # 2 cos(pi/5)
        assert lanczos(path4).lambda1 == pytest.approx(golden, abs=1e-8)

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            lanczos(Graph.from_edges([]))

    def test_bad_args(self, k3):
        # the words GainParams uses for a tolerance
        with pytest.raises(ParameterError, match="tolerance must be finite"):
            lanczos(k3, tol=0.0)
        with pytest.raises(ParameterError):
            lanczos(k3, max_iter=0)

    def test_non_convergence_flagged(self, s4):
        est = lanczos(s4, tol=1e-14, max_iter=2)
        assert not est.converged
        assert est.iterations == 1  # a second step would need 3 SpMVs

    def test_disconnected_takes_dominant_component(self):
        edges = complete_edges(4) + [(u + 10, v + 10) for u, v in complete_edges(6)]
        g = Graph.from_edges(edges)
        est = lanczos(g)
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
        est = lanczos(g)
        assert abs(np.linalg.norm(est.eigenvector) - 1.0) <= 1e-12
        assert np.all(est.eigenvector >= 0)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        g = er_graph(10 + 6 * seed, 0.25, seed) if seed % 2 else ba_graph(
            10 + 6 * seed, 2, seed
        )
        est = lanczos(g)
        assert est.converged
        assert est.lambda1 == pytest.approx(oracle.oracle_lambda1(g), abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_bound(self, seed):
        g = ba_graph(25, 3, seed)
        tol = 1e-10
        est = lanczos(g, tol=tol)
        assert est.converged
        assert est.residual <= 10 * tol * est.lambda1
        # the Ritz residual is an estimate; the true one is within a factor 2
        v = est.eigenvector
        assert np.linalg.norm(g.spmv(v) - est.lambda1 * v) <= 20 * tol * est.lambda1

    def test_degree_bounds_on_connected_graphs(self, s4, path4, star_plus_tail):
        for g in (s4, path4, star_plus_tail):
            lam = lanczos(g).lambda1
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
        est = lanczos(g, tol=1e-12)
        assert est.converged
        assert est.iterations <= 5  # the start's Krylov space has dimension <= 3
        assert est.lambda1 == pytest.approx(lam, abs=1e-12)
        np.testing.assert_allclose(est.eigenvector, v, atol=1e-12)

    def test_disconnected_vector_on_larger_component(self):
        edges = complete_edges(4) + [(u + 4, v + 4) for u, v in complete_edges(3)]
        est = lanczos(Graph.from_edges(edges), tol=1e-12)
        assert est.lambda1 == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(est.eigenvector[:4], 0.5, atol=1e-12)
        # rounding leaves the K3 part at +-1e-16 before the clip to >= 0
        assert np.all((0 <= est.eigenvector[4:]) & (est.eigenvector[4:] <= 1e-12))

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_disconnected_vector_is_nonnegative(self, seed):
        g = er_graph(60, 0.03, seed)
        lam, v = top_eigenpair(g)
        for tol in (1e-6, 1e-10):
            est = lanczos(g, tol=tol)
            assert est.lambda1 == pytest.approx(lam, abs=1e-8)
            assert np.all(est.eigenvector >= 0)
            assert np.linalg.norm(est.eigenvector - v) <= 1e-3

    def test_repeated_lambda1_is_projection_of_start(self):
        # two triangles: the top eigenspace is two-dimensional, and the
        # uniform start lies in it, so it is its own projection
        edges = complete_edges(3) + [(u + 3, v + 3) for u, v in complete_edges(3)]
        est = lanczos(Graph.from_edges(edges), tol=1e-12)
        assert est.converged
        assert est.lambda1 == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(est.eigenvector, 1 / math.sqrt(6), atol=1e-12)

    def test_p3000_stops_at_its_cap_below_lambda1(self):
        # the rule is met at step 1,536; a cap of 2,000 SpMVs stops it at 1,000
        exact = 2 * math.cos(math.pi / 3001)
        est = lanczos(path_graph(3000), max_iter=2_000)
        assert not est.converged
        assert est.iterations <= 2_000
        assert 0 < exact - est.lambda1 < 1e-6  # a Ritz value is a lower bound

    def test_p500_reaches_the_closed_form(self, monkeypatch):
        # P_500 has a relative gap of about 3e-5: the one recurrence runs
        # past KRYLOV_DIM, where the rule is checked every 64 steps
        n = 500
        g = path_graph(n)
        calls = count_spmv(monkeypatch)
        est = lanczos(g)
        assert est.converged
        assert len(calls) == est.iterations
        assert est.iterations > 2 * spectral.KRYLOV_DIM
        assert est.lambda1 == pytest.approx(2 * math.cos(math.pi / (n + 1)),
                                            abs=1e-14)
        exact = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
        np.testing.assert_allclose(est.eigenvector, exact / np.linalg.norm(exact),
                                   atol=1e-8)

    @pytest.mark.parametrize("rows, cols", [(1, 3000), (150, 150)],
                             ids=["p3000", "grid150x150"])
    def test_slow_gap_vector_matches_the_closed_form(self, rows, cols):
        # P_r x P_c: lambda1 = 2 cos(pi/(r+1)) + 2 cos(pi/(c+1)), and the
        # eigenvector is the outer product of sin(k pi/(r+1)) and
        # sin(l pi/(c+1)); a lost Ritz vector would show in the L2 error
        g = Graph.from_edges(grid_edges(rows, cols))
        est = lanczos(g)
        assert est.converged
        exact = (2 * math.cos(math.pi / (rows + 1))
                 + 2 * math.cos(math.pi / (cols + 1)))
        assert abs(est.lambda1 - exact) <= 1e-13 * exact
        row, col = np.divmod(np.array(g.labels, dtype=np.int64), cols)
        v = (np.sin((row + 1) * math.pi / (rows + 1))
             * np.sin((col + 1) * math.pi / (cols + 1)))
        assert np.linalg.norm(est.eigenvector - v / np.linalg.norm(v)) <= 1e-6

    def test_shared_lambda1_gives_the_projection_of_the_start(self):
        # the extended Dynkin diagram D~ (a path of 600 with two leaves at
        # each end) and the star S_4 both have lambda1 = 2, with the
        # eigenvectors (1, 1, 2, ..., 2, 1, 1) and (2, 1, 1, 1, 1); D~'s
        # slow gap keeps the pass running long after lambda1 has converged
        core = 600
        edges = [(i, i + 1) for i in range(core - 1)]
        edges += [(0, core), (0, core + 1), (core - 1, core + 2),
                  (core - 1, core + 3)]
        edges += [(core + 4, core + 4 + leaf) for leaf in range(1, 5)]
        g = Graph.from_edges(edges)
        dynkin = np.where(np.arange(g.node_count) < core, 2.0, 1.0)
        dynkin[core + 4:] = 0.0
        star = np.zeros(g.node_count)
        star[core + 4:] = [2.0, 1.0, 1.0, 1.0, 1.0]
        label = np.array(g.labels, dtype=np.int64)
        projection = sum(u.sum() / (u @ u) * u for u in (dynkin, star))[label]
        est = lanczos(g, tol=1e-12)
        assert est.converged
        assert est.lambda1 == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.norm(
            est.eigenvector - projection / np.linalg.norm(projection)) <= 1e-8

    @pytest.mark.parametrize("cap, spent", [
        (126, 125), (127, 127), (128, 127), (129, 129), (254, 253),
        (255, 255), (256, 255),
    ])
    def test_cap_is_strict_on_and_off_the_check_schedule(self, cap, spent,
                                                         monkeypatch):
        # step m costs 2m - 1 SpMVs with its replay; past KRYLOV_DIM = 64
        # steps the rule is checked every 64 steps, and at the cap step
        g = path_graph(500)
        calls = count_spmv(monkeypatch)
        est = lanczos(g, max_iter=cap)
        assert not est.converged
        assert est.iterations == len(calls) == spent

    def test_edgeless_graph(self):
        g = Graph(indptr=np.zeros(4, dtype=np.int64),
                  indices=np.zeros(0, dtype=np.int64), labels=["a", "b", "c"])
        est = lanczos(g)
        assert (est.lambda1, est.iterations, est.converged) == (0.0, 1, True)
        np.testing.assert_allclose(est.eigenvector, 1 / math.sqrt(3))


class TestTopPair:
    """``_top_pair``, the Ritz rule's O(m) eigensolve, against
    ``numpy.linalg.eigh``, and the steps at which the rule runs."""

    @pytest.mark.parametrize("m", [1, 2, 7, 60, 250])
    def test_matches_eigh(self, m):
        # the T_m of the recurrence from the uniform vector on a BA graph;
        # from m = 60 on, rounding has made copies of its top eigenvalue,
        # and s is e_1's projection onto their eigenvectors, the Ritz
        # coefficients of the start's projection onto A's top eigenvector;
        # the solves' rounding mixes the copies by about 2^-52 ||T_m|| over
        # the shift's 2^-26 theta, 3e-8
        g = ba_graph(300, 3, seed=m)
        buffers = [np.empty(300) for _ in range(3)]
        steps = list(islice(_recurrence(g, 1 / math.sqrt(300), buffers), m))
        alphas, betas = [a for a, _ in steps], [b for _, b in steps[:-1]]
        theta, s = _top_pair(alphas, betas)
        values, vectors = np.linalg.eigh(
            np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        assert abs(theta - values[-1]) <= 4e-15 * values[-1]
        top = values >= (1 - 1e-10) * values[-1]
        p = vectors[:, top] @ vectors[0, top]
        p /= np.linalg.norm(p)
        assert min(np.linalg.norm(s - p), np.linalg.norm(s + p)) <= 1e-7

    def test_rule_checked_on_the_krylov_dim_schedule(self, monkeypatch):
        # with KRYLOV_DIM = 8: every step up to 8, then every 8 steps, and
        # the cap step (a cap of 85 SpMVs affords 43 steps, 2 * 43 - 1)
        monkeypatch.setattr(spectral, "KRYLOV_DIM", 8)
        checked = []
        monkeypatch.setattr(spectral, "_top_pair", lambda a, b: checked.append(
            len(a)) or _top_pair(a, b))
        est = lanczos(path_graph(500), max_iter=85)
        assert (est.converged, est.iterations) == (False, 85)
        assert checked == [*range(1, 9), 16, 24, 32, 40, 43]


class TestLanczosRules:
    """One Lanczos run with several stop rules equals one call per rule."""

    RULES = [
        (1e-10, 10_000),  # the lambda1 estimate
        (1e-12, 10_000),  # the EC column at the default --tol
        (1e-6, 10_000),
        (1e-8, 10_000),  # a --tol looser than 1e-10
        (1e-12, 3),  # the cap binds first
        (1e-12, 201),  # a cap at step 101, off the KRYLOV_DIM schedule
    ]

    @pytest.mark.parametrize(
        "g",
        [ba_graph(300, 3, seed=11), er_graph(300, 0.02, seed=12),
         path_graph(30), path_graph(200)],
        ids=["ba", "er", "path30", "path200"],
    )
    def test_snapshots_equal_separate_runs(self, g):
        for rules in (self.RULES, self.RULES[::-1], self.RULES[:1]):
            for (tol, max_iter), est in zip(rules, run_rules(g, rules)):
                alone = lanczos(g, tol=tol, max_iter=max_iter)
                assert est.lambda1 == alone.lambda1
                assert np.array_equal(est.eigenvector, alone.eigenvector)
                assert est.iterations == alone.iterations
                assert est.converged == alone.converged
                assert est.residual == alone.residual
                assert not est.eigenvector.flags.writeable

    def test_one_pass_costs_the_longest_rule(self, monkeypatch):
        g = ba_graph(300, 3, seed=11)
        longest = max(lanczos(g, tol, it).iterations for tol, it in self.RULES)
        calls = count_spmv(monkeypatch)
        run_rules(g, self.RULES)
        assert len(calls) == longest

    def test_capped_rule_flagged(self):
        path = path_graph(100)
        loose, capped = run_rules(path, [(1e-10, 10_000), (1e-10, 50)])
        assert loose.converged and not capped.converged
        # 25 steps and a 24-SpMV replay; a 26th step would need 51 SpMVs
        assert capped.iterations == 49

    def test_bad_rules(self, k3):
        with pytest.raises(ParameterError):
            run_rules(k3, [(1e-10, 100), (0.0, 100)])
        with pytest.raises(ParameterError):
            run_rules(k3, [(1e-10, 100), (1e-10, 0)])
        with pytest.raises(ParameterError):
            run_rules(Graph.from_edges([]), [(1e-10, 100)])

    def test_centrality_is_the_ec_vector(self, s4):
        est = lanczos(s4, tol=1e-12)
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
        ids=["ba", "path30", "path500-past-krylov-dim"],
    )
    def test_same_lambda1_for_the_pass_1_steps(self, g, monkeypatch):
        rules = [(1e-10, 10_000), (1e-6, 10_000)]
        full = run_rules(g, rules)
        calls = count_spmv(monkeypatch)
        cheap = run_rules(g, rules, vector=False)
        for est, ref in zip(cheap, full):
            assert (est.lambda1, est.residual, est.converged) == (
                ref.lambda1, ref.residual, ref.converged)
            assert est.eigenvector is None
            # m steps cost 2m - 1 SpMVs with the replay, m without
            assert est.iterations == (ref.iterations + 1) // 2
        assert len(calls) == max(est.iterations for est in cheap)

    @pytest.mark.parametrize("cap, spent", [
        (63, 63), (64, 64), (127, 127), (128, 128), (129, 129), (191, 191),
        (254, 254), (255, 255),
    ])
    def test_cap_is_strict_on_and_off_the_check_schedule(self, cap, spent,
                                                         monkeypatch):
        # step m costs one SpMV, whether the cap falls on the KRYLOV_DIM
        # schedule or between its checks; P_3000 meets the rule at 1,536
        g = path_graph(3000)
        calls = count_spmv(monkeypatch)
        est = lanczos(g, 1e-10, cap, eigenvectors=False)
        assert not est.converged
        assert est.iterations == len(calls) == spent
