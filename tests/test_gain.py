import math

import numpy as np
import pytest

from pgain import (
    GainParams,
    Graph,
    ParameterError,
    PgainError,
    SeriesOverflowError,
    communicability_vector,
    crossover_delta,
    exponential_potential_gain,
    gain_with_trace,
    geometric_potential_gain,
    katz_centrality,
    lanczos,
    spearman_rho,
)
from pgain import oracle
from pgain import gain
from pgain.gain import _norm, _run_series
from pgain.generate import complete_edges

from conftest import ba_graph, er_graph, rel_err

E2 = math.e**2


class TestClosedForms:
    """On d-regular graphs: geometric = d/(1 - delta d), exponential = d e^d."""

    def test_gpg_k3(self, k3):
        v = geometric_potential_gain(k3, GainParams(delta=0.25))
        np.testing.assert_allclose(v.scores, np.full(3, 4.0), rtol=1e-9)

    def test_gpg_p2(self, p2):
        v = geometric_potential_gain(p2, GainParams(delta=0.5))
        np.testing.assert_allclose(v.scores, np.full(2, 2.0), rtol=1e-9)

    def test_epg_k3(self, k3):
        v = exponential_potential_gain(k3)
        np.testing.assert_allclose(v.scores, np.full(3, 2 * E2), rtol=1e-8)

    def test_epg_p2(self, p2):
        v = exponential_potential_gain(p2)
        np.testing.assert_allclose(v.scores, np.full(2, math.e), rtol=1e-9)


class TestOracleEquivalence:
    def test_gpg_er20_matches_truncated_oracle(self):
        g = er_graph(20, 0.25, seed=3)
        lam = lanczos(g)[0].lambda1
        params = GainParams(delta=0.5 / lam, max_walk_length=15, tolerance=None)
        v = geometric_potential_gain(g, params, lambda1=lam)
        assert v.iterations_used == 15
        ref = oracle.oracle_gain(g, "geometric", delta=0.5 / lam, k_max=15)
        assert rel_err(v.scores, ref) <= 1e-10

    def test_epg_star_matches_truncated_oracle(self, s4):
        params = GainParams(max_walk_length=60, tolerance=None)
        v = exponential_potential_gain(s4, params)
        ref = oracle.oracle_gain(s4, "exponential", k_max=60)
        assert rel_err(v.scores, ref) <= 1e-10


class TestCrossover:
    def test_formula_lambda2(self):
        assert crossover_delta(2.0) == pytest.approx(0.432332358, abs=1e-9)

    def test_formula_lambda1(self):
        assert crossover_delta(1.0) == pytest.approx(0.632120559, abs=1e-9)

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            crossover_delta(0.0)

    def test_large_lambda_no_overflow(self):
        assert crossover_delta(1000.0) == pytest.approx(1e-3, rel=1e-12)

    def test_gains_coincide_on_k3(self, k3):
        # on K3 the all-ones vector lives on the lambda=2 eigencomponent only
        delta_c = crossover_delta(2.0)
        gpg = geometric_potential_gain(k3, GainParams(delta=delta_c))
        epg = exponential_potential_gain(k3)
        assert rel_err(gpg.scores, epg.scores) <= 1e-6


class TestTraces:
    def test_k3_geometric_ratio_is_delta_lambda(self, k3):
        params = GainParams(delta_star=0.5, max_walk_length=30, tolerance=None)
        _, trace = gain_with_trace(k3, params, kind="geometric")
        eps = dict(trace.errors)
        for k in range(3, 25):
            assert eps[k + 1] / eps[k] == pytest.approx(0.5, abs=0.01)

    def test_p2_exponential_below_1e6_by_k11(self, p2):
        params = GainParams(max_walk_length=11, tolerance=None)
        _, trace = gain_with_trace(p2, params, kind="exponential")
        assert dict(trace.errors)[11] < 1e-6

    def test_error_floor_at_reference_length(self):
        g = er_graph(30, 0.2, seed=1)
        _, trace = gain_with_trace(g, GainParams(tolerance=1e-13), kind="geometric")
        assert trace.errors[-1][1] <= 1e-12

    def test_long_run_reference_above_size_guard(self):
        g = ba_graph(80, 2, seed=4)
        params = GainParams(delta_star=0.5, max_walk_length=10, tolerance=None)
        _, trace = gain_with_trace(g, params, kind="geometric")
        eps = np.array([e for _, e in trace.errors])
        assert np.all(eps[:-1] > 0)
        assert np.all(np.diff(eps[2:]) < 0)  # eventually strictly decreasing

    def test_trace_matches_series_definition(self, s4):
        # epsilon(k) against the dense oracle, recomputed here from scratch
        params = GainParams(delta=0.3, max_walk_length=8, tolerance=None)
        _, trace = gain_with_trace(s4, params, kind="geometric")
        ref = oracle.oracle_gain(s4, "geometric", delta=0.3)
        partial = np.zeros(5)
        a = oracle.dense_adjacency(s4)
        power = np.eye(5)
        for k, eps in trace.errors:
            power = power @ a if k > 1 else a
            partial = partial + 0.3 ** (k - 1) * (power @ np.ones(5))
            expected = np.linalg.norm(ref - partial) / np.linalg.norm(ref)
            assert eps == pytest.approx(expected, rel=1e-8, abs=1e-14)


class TestConvergenceRates:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("star", [0.25, 0.5, 0.75])
    def test_geometric_ratio_bounded_by_delta_lambda(self, seed, star):
        g = er_graph(20 + 5 * seed, 0.2, seed) if seed % 2 else ba_graph(
            20 + 5 * seed, 2, seed
        )
        lam = lanczos(g)[0].lambda1
        params = GainParams(delta_star=star, max_walk_length=21, tolerance=None)
        _, trace = gain_with_trace(g, params, kind="geometric", lambda1=lam)
        eps = dict(trace.errors)
        for k in range(5, 21):
            assert eps[k + 1] / eps[k] <= star + 0.05

    @pytest.mark.parametrize(
        "edges_fn,args",
        [("complete_edges", (6,)), ("star_edges", (16,)), ("ring_edges", (8,))],
    )
    def test_exponential_bound_at_2e_lambda(self, edges_fn, args):
        from pgain import generate

        g = Graph.from_edges(getattr(generate, edges_fn)(*args))
        lam = oracle.oracle_lambda1(g)
        assert lam <= 5 + 1e-9
        k = math.ceil(2 * math.e * lam)
        params = GainParams(max_walk_length=k, tolerance=None)
        _, trace = gain_with_trace(g, params, kind="exponential")
        bound = 0.5 ** (2 * math.e * lam) * lam**-0.5
        assert dict(trace.errors)[k] <= bound


class TestIdentities:
    @pytest.mark.parametrize("seed", range(3))
    def test_gpg_is_adjacency_times_katz(self, seed):
        g = er_graph(30, 0.2, seed)
        lam = lanczos(g)[0].lambda1
        delta = 0.5 / lam
        gpg = geometric_potential_gain(g, GainParams(delta=delta), lambda1=lam)
        katz = katz_centrality(g, delta, tolerance=1e-14, lambda1=lam)
        assert rel_err(gpg.scores, g.spmv(katz.scores)) <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_epg_is_adjacency_times_communicability(self, seed):
        g = ba_graph(30, 2, seed)
        epg = exponential_potential_gain(g, GainParams(tolerance=1e-14))
        comm = communicability_vector(g, tolerance=1e-14)
        assert rel_err(epg.scores, g.spmv(comm.scores)) <= 1e-8

    def test_small_delta_matches_degree_ranking(self, star_plus_tail):
        g = star_plus_tail
        gpg = geometric_potential_gain(g, GainParams(delta_star=0.01))
        assert spearman_rho(gpg.scores, g.degrees.astype(float)) == 1.0


class TestProperties:
    @pytest.mark.parametrize("seed", range(3))
    def test_positive_scores(self, seed):
        g = ba_graph(25, 2, seed)
        assert np.all(geometric_potential_gain(g).scores > 0)
        assert np.all(exponential_potential_gain(g).scores > 0)

    def test_permutation_equivariance(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
        g = Graph.from_edges(edges)
        perm = [4, 2, 0, 3, 1]
        permuted = Graph.from_edges([(perm[u], perm[v]) for u, v in edges])
        # relabeled graph: score of node perm[i] must equal score of node i
        lookup = {lab: idx for idx, lab in enumerate(permuted.labels)}
        for compute in (
            lambda gr: geometric_potential_gain(gr, GainParams(delta_star=0.4)),
            exponential_potential_gain,
        ):
            base = compute(g).scores
            other = compute(permuted).scores
            reordered = [other[lookup[str(perm[i])]] for i in range(5)]
            np.testing.assert_allclose(reordered, base, rtol=1e-9)

    def test_edgeless_graph_is_all_zero(self):
        g = Graph.from_edges([(0, 0), (1, 1)])
        assert np.array_equal(geometric_potential_gain(g).scores, np.zeros(2))
        assert np.array_equal(exponential_potential_gain(g).scores, np.zeros(2))


class TestParameterValidation:
    def test_delta_above_radius_rejected(self, k3):
        with pytest.raises(ParameterError, match="diverge"):
            geometric_potential_gain(k3, GainParams(delta=0.6))  # 1/lambda1 = 0.5

    def test_delta_at_radius_rejected(self, k3):
        with pytest.raises(ParameterError, match="diverge"):
            geometric_potential_gain(k3, GainParams(delta=0.5))

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ParameterError):
            GainParams(delta=0.0)
        with pytest.raises(ParameterError):
            GainParams(delta=-0.1)

    def test_delta_and_delta_star_exclusive(self):
        with pytest.raises(ParameterError):
            GainParams(delta=0.1, delta_star=0.5)

    def test_delta_star_domain(self):
        with pytest.raises(ParameterError):
            GainParams(delta_star=1.0)
        with pytest.raises(ParameterError):
            GainParams(delta_star=0.0)

    def test_need_some_stop_rule(self):
        with pytest.raises(ParameterError):
            GainParams(tolerance=None)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, k3, tol):
        # NaN would never stop a series, inf would stop every one after
        # its second term
        with pytest.raises(ParameterError, match="finite and positive"):
            GainParams(tolerance=tol)
        with pytest.raises(ParameterError, match="finite and positive"):
            katz_centrality(k3, 0.25, tolerance=tol)
        with pytest.raises(ParameterError, match="finite and positive"):
            lanczos(k3, [(tol, 100)])

    def test_max_walk_length_binds(self, k3):
        v = geometric_potential_gain(
            k3, GainParams(delta=0.25, max_walk_length=3, tolerance=1e-12)
        )
        assert v.iterations_used == 3
        # partial sum of the regular closed form: d * sum (delta d)^(j-1)
        expected = 2 * (1 + 0.5 + 0.25)
        np.testing.assert_allclose(v.scores, np.full(3, expected), rtol=1e-12)

    def test_tolerance_binds_before_max(self, k3):
        v = geometric_potential_gain(
            k3, GainParams(delta=0.25, max_walk_length=500, tolerance=1e-6)
        )
        assert v.iterations_used < 500
        assert v.converged


class TestLambda1Converged:
    """A result that estimated lambda1 itself is converged only if that
    estimate is. On the path P_3000 the lambda1 solve stops at its cap."""

    def test_unconverged_lambda1_reaches_the_result(self):
        g = Graph.from_edges([(i, i + 1) for i in range(2999)])
        params = GainParams(delta_star=0.5)
        gpg = geometric_potential_gain(g, params)
        assert gpg.stop_reason == "tolerance" and not gpg.converged
        assert not gain_with_trace(g, params)[0].converged
        katz = katz_centrality(g, 0.49)
        assert katz.stop_reason == "tolerance" and not katz.converged
        # a supplied lambda1 is taken as exact: the series alone decides
        lam = 2 * math.cos(math.pi / 3001)
        assert geometric_potential_gain(g, params, lambda1=lam).converged
        assert gain_with_trace(g, params, lambda1=lam)[0].converged
        assert katz_centrality(g, 0.49, lambda1=lam).converged


class TestSeriesEngine:
    @pytest.mark.parametrize("star", [0.9, 0.99])
    def test_tail_bound_holds_the_tolerance(self, star):
        # comparing the last term alone with tol * sum understated the
        # error by about 1 / (1 - delta_star): 9x at 0.9, 99x at 0.99
        g = ba_graph(300, 3, seed=5)
        lam, tol = lanczos(g)[0].lambda1, 1e-8
        adjacency = np.zeros((300, 300))
        adjacency[np.repeat(np.arange(300), np.diff(g.indptr)), g.indices] = 1
        katz = np.linalg.solve(np.eye(300) - star / lam * adjacency, np.ones(300))
        v = katz_centrality(g, star / lam, tolerance=tol, lambda1=lam)
        assert v.converged and rel_err(v.scores, katz) <= tol
        v = geometric_potential_gain(
            g, GainParams(delta_star=star, tolerance=tol), lambda1=lam)
        assert v.converged and rel_err(v.scores, adjacency @ katz) <= tol

    def test_single_decay_is_the_plain_recurrence(self):
        g = ba_graph(200, 3, seed=2)
        lam = lanczos(g)[0].lambda1
        delta, tol = 0.3 / lam, 1e-12
        q = delta * lam  # the tail after a term t is at most t q / (1 - q)
        term = g.spmv(np.ones(g.node_count))
        acc, k = term.copy(), 1
        while True:
            term = g.spmv(term, scale=delta)
            acc += term
            k += 1
            if np.linalg.norm(term) < tol * (1 - q) / q * np.linalg.norm(acc):
                break
        v = geometric_potential_gain(g, GainParams(delta=delta, tolerance=tol))
        assert np.array_equal(v.scores, acc)
        assert v.iterations_used == k


class TestStopReasons:
    def test_tolerance(self, k3):
        v = geometric_potential_gain(k3, GainParams(delta=0.25, tolerance=1e-6))
        assert (v.stop_reason, v.converged) == ("tolerance", True)

    def test_max_k_counts_as_converged(self, k3):
        v = geometric_potential_gain(
            k3, GainParams(delta=0.25, max_walk_length=3, tolerance=1e-12)
        )
        assert (v.stop_reason, v.converged, v.iterations_used) == ("max_k", True, 3)

    def test_safety_cap_is_not_converged(self, k3, monkeypatch):
        monkeypatch.setattr(gain, "SAFETY_MAX_TERMS", 4)
        v = exponential_potential_gain(k3, GainParams(tolerance=1e-12))
        assert (v.stop_reason, v.converged, v.iterations_used) == (
            "safety_cap", False, 4)

    def test_edgeless_series_is_exact(self):
        g = Graph.from_edges([(0, 0), (1, 1)])
        scores, terms, reason = _run_series(
            g, "geometric", g.spmv(np.ones(2)), 0.5, GainParams(max_walk_length=2)
        )
        assert reason == "tolerance" and not scores.any()


class TestOverflow:
    def test_norm_rescales_when_the_squares_overflow(self):
        x = np.array([3e200, -4e200])
        with np.errstate(over="ignore"):
            assert _norm(x) == pytest.approx(5e200, rel=1e-15)
        assert _norm(np.array([1.0, 2.0])) == np.linalg.norm([1.0, 2.0])
        assert _norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(_norm(np.array([np.nan, 1.0])))

    def test_k400_epg_matches_closed_form(self):
        # lambda1 = 399: the accumulator's squared norm overflows, the
        # entries do not; EPG = 399 e^399 on every node
        g = Graph.from_edges(complete_edges(400))
        v = exponential_potential_gain(g)
        assert v.converged and v.stop_reason == "tolerance"
        exact = 399 * math.exp(399)
        np.testing.assert_allclose(v.scores, np.full(400, exact), rtol=1e-9)

    def test_k400_communicability_matches_closed_form(self):
        # exp(A) 1 = e^(n-1) 1 on K_n: the series' squared norms overflow
        g = Graph.from_edges(complete_edges(400))
        v = communicability_vector(g)
        np.testing.assert_allclose(v.scores, np.full(400, math.exp(399)), rtol=1e-9)
        assert v.converged and v.stop_reason == "tolerance"

    @pytest.fixture(scope="class")
    def k760(self):
        # EPG = 759 e^759 exceeds float64
        return Graph.from_edges(complete_edges(760))

    def test_k760_epg_fails_fast(self, k760, monkeypatch):
        # the series stops at the first non-finite term instead of running
        # toward SAFETY_MAX_TERMS
        calls = []
        spmv = Graph.spmv
        monkeypatch.setattr(
            Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
        )
        with pytest.raises(SeriesOverflowError, match="overflows float64"):
            exponential_potential_gain(k760)
        assert len(calls) < 1000
        assert issubclass(SeriesOverflowError, PgainError)

    def test_k760_communicability_fails_fast(self, k760, monkeypatch):
        # exp(A) 1 = e^759 overflows too; Katz and communicability share
        # the gains' series engine and its non-finite stop
        calls = []
        spmv = Graph.spmv
        monkeypatch.setattr(
            Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
        )
        with pytest.raises(SeriesOverflowError, match="overflows float64"):
            communicability_vector(k760)
        assert len(calls) < 1000

    def test_k760_stop_reason(self, k760):
        _, terms, reason = _run_series(
            k760, "exponential", k760.spmv(np.ones(760)), None,
            GainParams(max_walk_length=10_000),
        )
        assert reason == "nonfinite" and terms < 1000

    def test_k760_trace_raises(self, k760):
        with pytest.raises(SeriesOverflowError):
            gain_with_trace(k760, GainParams(max_walk_length=5), kind="exponential")
