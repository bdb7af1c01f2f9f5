import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pgain import (
    GainParams,
    Graph,
    ParameterError,
    UndefinedCorrelationError,
    communicability_vector,
    delta_sweep,
    geometric_potential_gain,
    lanczos,
    pagerank,
    spearman_rho,
)
import oracle
from pgain import _pykernels, backend, spectral
from pgain.analysis import DEFAULT_GRID, SWEEP_COLUMNS, average_ranks
from pgain.cli import main
from pgain.gain import _gpg_from_katz
from pgain.generate import (complete_edges, edges_to_text, ring_edges,
                            star_edges)
from pgain.spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _katz_solve,
    _lanczos,
    _recurrence,
    _replay,
)

from conftest import STAR_PLUS_TAIL_EDGES, ba_graph, count_spmv, rel_err


def katz_solve(g, deltas, lambda1, tol):
    """Katz vectors and step counts from a pass and a replay of their own
    from the uniform vector, within the pass's default cap on steps, which
    the sweep's shared pass must match."""
    n = g.node_count
    uniform, buffers = 1.0 / math.sqrt(n), [np.empty(n) for _ in range(3)]
    coefficients = _katz_solve(_recurrence(g, uniform, buffers), n, deltas,
                               lambda1, tol, (DEFAULT_MAX_ITER + 1) // 2)
    katz = _replay(g, uniform, coefficients, buffers)
    return katz, [len(y) for y in coefficients]


def grid_gpg(g, katz, deltas, lambda1, tol):
    """GPG and its certificate per Katz vector, with buffers of its own."""
    free = [np.empty(g.node_count) for _ in range(2)]
    return _gpg_from_katz(g, katz, deltas, lambda1, tol, free)


class TestSpearman:
    def test_identical_ranking_is_exactly_one(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_is_exactly_minus_one(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed_example(self):
        # 1 - 6*sum(d^2)/(n(n^2-1)) with d = (1,-1,1,-1)
        assert spearman_rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)

    def test_tie_handling_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 6, size=25).astype(float)
            b = rng.integers(0, 6, size=25).astype(float) + 0.5 * a
            expected = scipy.stats.spearmanr(a, b).statistic
            assert spearman_rho(a, b) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            spearman_rho([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ParameterError):
            spearman_rho([1.0], [2.0])

    def test_non_finite_input(self):
        with pytest.raises(ParameterError, match="finite"):
            spearman_rho([1.0, math.nan], [1.0, 2.0])

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_average_ranks(self):
        np.testing.assert_array_equal(
            average_ranks(np.array([10.0, 20.0, 20.0, 30.0])), [1.0, 2.5, 2.5, 4.0]
        )

    def test_average_ranks_ignore_the_order_within_ties(self):
        # tied entries share one rank, so any sort order gives the same ranks
        rng = np.random.default_rng(5)
        v = rng.integers(0, 40, size=2000).astype(np.float64)
        p = rng.permutation(v.size)
        np.testing.assert_array_equal(average_ranks(v[p]), average_ranks(v)[p])

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_average_ranks_match_scipy(self, xs):
        # runs of ties at either end, in the middle, side by side, or none
        v = np.array(xs, dtype=np.float64)
        np.testing.assert_array_equal(average_ranks(v),
                                      scipy.stats.rankdata(v, method="average"))


# integer-valued inputs keep x -> exp(x / 1e6) strictly increasing after
# rounding (adjacent floats could collapse under the exponential)
values = st.lists(
    st.integers(-(10**6), 10**6), min_size=3, max_size=30, unique=True
)


@given(values, st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_spearman_symmetric_and_monotone_invariant(xs, seed):
    rng = np.random.default_rng(seed)
    a = np.array(xs, dtype=np.float64)
    b = rng.permutation(len(a)).astype(float)
    rho = spearman_rho(a, b)
    assert spearman_rho(b, a) == pytest.approx(rho, abs=1e-12)
    # strictly increasing transforms preserve ranks exactly
    assert spearman_rho(np.exp(a / 1e6), b) == pytest.approx(rho, abs=1e-12)
    assert spearman_rho(8.0 * a, b) == pytest.approx(rho, abs=1e-12)
    assert abs(rho) <= 1.0 + 1e-12


class TestDeltaSweep:
    def test_katz_column_is_one_everywhere(self, star_plus_tail):
        result = delta_sweep(star_plus_tail)
        np.testing.assert_array_equal(result.rho["katz"], np.ones(9))

    def test_small_delta_matches_degree(self, star_plus_tail):
        result = delta_sweep(star_plus_tail, grid=[0.01, 0.5])
        assert result.rho["deg"][0] == 1.0

    def test_large_delta_tracks_eigenvector(self, star_plus_tail):
        result = delta_sweep(star_plus_tail, grid=[0.99])
        assert result.rho["ec"][0] >= 0.95

    def test_degree_correlation_decays(self, star_plus_tail):
        result = delta_sweep(star_plus_tail, grid=[0.01, 0.99])
        assert result.rho["deg"][0] >= result.rho["deg"][1]

    def test_regular_graph_all_undefined(self):
        g = Graph.from_edges(ring_edges(6))
        warnings = []
        result = delta_sweep(g, grid=[0.3, 0.7], warn=warnings.append)
        for column in SWEEP_COLUMNS:
            assert np.all(np.isnan(result.rho[column]))
        assert warnings

    def test_csv_header_and_shape(self, tmp_path, capsys):
        # the CLI writes the sweep's CSV
        path = tmp_path / "star_plus_tail.txt"
        path.write_text(edges_to_text(STAR_PLUS_TAIL_EDGES))
        assert main(["sweep", "--grid", "0.2,0.4", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "delta_star,rho_deg,rho_ec,rho_pr,rho_katz,rho_epg"
        assert len(lines) == 3

    def test_one_series_pass_and_one_power_iteration(self, monkeypatch):
        # one Lanczos pass of max(m, max m_j, m_e) steps for lambda1 (m
        # steps), EC, the Katz vector of every grid value (m_j steps) and
        # exp(A - theta I) 1 (m_e steps), one replay for all of them,
        # PageRank, one SpMV for EPG and one per grid value for GPG = A Katz;
        # on P_200 lambda1 needs 128 steps, past the 64 checked one by one,
        # and more than every Katz solve and the exponential
        grid = [0.1, 0.5, 0.9]
        for g in (ba_graph(300, 3, seed=3),
                  Graph.from_edges([(i, i + 1) for i in range(199)])):
            spectrum = lanczos(g)
            lam = spectrum.lambda1
            _, steps = katz_solve(g, [s / lam for s in grid], lam, 1e-12)
            exp_steps = (communicability_vector(g).iterations_used + 1) // 2
            expected = (
                2 * max((spectrum.iterations + 1) // 2, *steps, exp_steps) - 1
                + pagerank(g).iterations_used
                + 1
                + len(grid)
            )
            with monkeypatch.context() as patch:
                calls = count_spmv(patch)
                result = delta_sweep(g, grid=grid)
            assert result.converged and result.lambda1 == lam
            assert len(calls) == expected

    def test_lambda1_is_the_gains_rule(self, monkeypatch):
        # on P_3000 the lambda1 rule is met at step 1,536; with the default
        # cap cut to 2,000 SpMVs the EC rule stops at step 1,000, but the
        # sweep's lambda1 is still the one of the gains' pass
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 2000)
        g = Graph.from_edges([(i, i + 1) for i in range(2999)])
        result = delta_sweep(g, grid=[0.5])
        assert not result.converged
        assert (result.lambda1
                == geometric_potential_gain(g).params["lambda1"])

    def test_solves_have_the_gains_cap(self, monkeypatch):
        # on P_3000 with the default cap cut to 200 SpMVs the lambda1 rule
        # runs 200 steps, and the Katz solve at delta_star = 0.9999 stops at
        # step 100, replayed in 99 SpMVs, in the sweep as in the gain
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 200)
        g = Graph.from_edges([(i, i + 1) for i in range(2999)])
        with monkeypatch.context() as patch:
            calls = count_spmv(patch)
            geometric_potential_gain(g, GainParams(delta_star=0.9999))
        assert len(calls) == 200 + 99 + 1  # and GPG = A Katz
        with monkeypatch.context() as patch:
            calls = count_spmv(patch)
            delta_sweep(g, grid=[0.9999])
        # and PageRank, EPG and GPG
        assert len(calls) == 200 + 99 + pagerank(g).iterations_used + 2

    def test_peak_memory(self, monkeypatch):
        # PageRank's and the EC column's vectors go once ranked, and ranking
        # a vector without ties takes about three n-vectors beside it. The
        # GPG ranking loop, where the sweep peaks, read 26.3 n-vectors with
        # both vectors kept and the ranks built from per-group arrays, 24.3
        # with the vectors dropped, 21.1 with the ranks alone, 19.1 with both
        monkeypatch.setattr(backend, "spmv_csr", _pykernels.spmv_csr)
        g = ba_graph(20_000, 3, seed=1)
        # the graph's own: the kernel's plan and the cached degrees
        g.spmv(np.ones(g.node_count))
        g.degrees
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = delta_sweep(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert result.converged
        assert peak - base <= 20.0 * 8 * g.node_count

    def test_bad_grid_rejected(self, star_plus_tail, monkeypatch):
        calls = count_spmv(monkeypatch)
        with pytest.raises(ParameterError):
            delta_sweep(star_plus_tail, grid=[0.5, 0.2])
        with pytest.raises(ParameterError):
            delta_sweep(star_plus_tail, grid=[0.0, 0.5])
        with pytest.raises(ParameterError, match="got nan"):
            delta_sweep(star_plus_tail, grid=[0.5, math.nan])
        assert calls == []  # every bad grid is rejected before any SpMV


def two_cliques():
    """K_4 and K_3 side by side: two components with different lambda1."""
    k3 = [(a + 4, b + 4) for a, b in complete_edges(3)]
    return Graph.from_edges(complete_edges(4) + k3)


class TestGridSolve:
    """The sweep's GPG at every grid value from one shifted Lanczos solve."""

    @pytest.mark.parametrize("make", [
        lambda request: request.getfixturevalue("k3"),
        lambda request: request.getfixturevalue("p2"),
        lambda request: request.getfixturevalue("s4"),
        lambda request: request.getfixturevalue("c4"),
        lambda request: request.getfixturevalue("path4"),
        lambda request: request.getfixturevalue("star_plus_tail"),
        lambda request: Graph.from_edges(ring_edges(6)),
        lambda request: Graph.from_edges(star_edges(7)),
        lambda request: two_cliques(),
    ], ids=["k3", "p2", "s4", "c4", "path4", "star_plus_tail", "c6", "s7",
            "k4+k3"])
    def test_every_grid_value_matches_the_oracle(self, make, request):
        g = make(request)
        lam = oracle.oracle_lambda1(g)
        grid = list(DEFAULT_GRID) + [0.99]
        deltas = [star / lam for star in grid]
        katz, _ = katz_solve(g, deltas, lam, 1e-12)
        for delta, (gpg, certified) in zip(
            deltas, grid_gpg(g, katz, deltas, lam, 1e-12)
        ):
            assert certified
            reference = oracle.oracle_gain(g, "geometric", delta=delta)
            assert rel_err(gpg, reference) <= 1e-12, delta

    def test_edgeless_graph_is_exact_after_one_step(self):
        # beta_1 = 0: the uniform vector spans an invariant subspace
        g = Graph.from_edges([(0, 0), (1, 1), (2, 2)])
        katz, steps = katz_solve(g, [0.1, 0.5, 0.9], 0.0, 1e-12)
        assert steps == [1, 1, 1]
        for x in katz:
            np.testing.assert_array_equal(x, np.ones(3))
        for gpg, certified in grid_gpg(g, katz, [0.1, 0.5, 0.9], 0.0, 1e-12):
            assert certified and not gpg.any()

    def test_slow_decay_on_a_path_meets_the_cg_bound(self):
        # I - delta A on P_1000 at delta_star = 0.99 has spectrum inside
        # [0.01, 1.99], kappa = 199; CG, which this solve equals in exact
        # arithmetic, has ||r_m|| <= 2 sqrt(kappa) rho^m ||r_0||, with
        # rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1) and ||r_0|| = sqrt(n).
        # The uniform start's Krylov space has dimension n / 2 = 500 here,
        # so the bound (251 steps), not exhaustion, ends the solve
        n, star, tol = 1000, 0.99, 1e-12
        g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
        lam = 2 * math.cos(math.pi / (n + 1))
        katz, [steps] = katz_solve(g, [star / lam], lam, tol)
        [(gpg, certified)] = grid_gpg(g, katz, [star / lam], lam, tol)
        assert certified
        root = math.sqrt((1 + star) / (1 - star))
        rho = (root - 1) / (root + 1)
        # the stop rule wants ||r_m|| / (1 - star) <= tol sqrt(n)
        bound = math.log(2 * root / ((1 - star) * tol)) / math.log(1 / rho)
        assert steps <= math.ceil(bound), (steps, bound)
        adjacency = np.eye(n, k=1) + np.eye(n, k=-1)
        katz = np.linalg.solve(np.eye(n) - star / lam * adjacency, np.ones(n))
        assert rel_err(1 + star / lam * gpg, katz) <= 1e-12

    def test_lambda1_far_below_the_truth_raises(self):
        # delta = delta_star / lambda1 then exceeds 1/lambda1: a pivot of
        # I - delta T_m turns non-positive and the grid solve must not return
        # finite scores
        g = ba_graph(300, 3, seed=3)
        lam = lanczos(g).lambda1
        deltas = [4 * star / lam for star in (0.5, 0.9)]
        with pytest.raises(ParameterError, match="not positive definite"):
            katz_solve(g, deltas, lam / 4, 1e-12)

    @pytest.mark.parametrize("make", [
        lambda: ba_graph(300, 3, seed=3),
        lambda: Graph.from_edges([(0, 0), (1, 1), (2, 2)]),
        two_cliques,
        lambda: Graph.from_edges([(i, i + 1) for i in range(199)]),
    ], ids=["ba300", "edgeless", "k4+k3", "p200-past-krylov-dim"])
    def test_shared_pass_matches_separate_solves(self, make):
        # the sweep's one pass returns, bit for bit, what lanczos and a Katz
        # solve of its own return, also where lambda1 runs past KRYLOV_DIM
        g = make()
        grid = [0.1, 0.5, 0.9, 0.99]

        def decays(lam):
            return [star / lam if lam > 0 else star for star in grid]

        [shared], krylov = _lanczos(g, [(DEFAULT_TOL, DEFAULT_MAX_ITER, True)],
                                    decays, 1e-12)
        katz = krylov.katz
        alone = lanczos(g, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert (shared.lambda1, shared.iterations, shared.converged,
                shared.residual) == (alone.lambda1, alone.iterations,
                                     alone.converged, alone.residual)
        np.testing.assert_array_equal(shared.eigenvector, alone.eigenvector)
        expected, _ = katz_solve(g, decays(alone.lambda1), alone.lambda1, 1e-12)
        assert len(katz) == len(grid)
        for x, y in zip(katz, expected):
            np.testing.assert_array_equal(x, y)
