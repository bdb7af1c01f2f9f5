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
    correlation_matrix,
    convergence_report,
    degree_centrality,
    delta_sweep,
    exponential_potential_gain,
    geometric_potential_gain,
    pagerank,
    power_iteration,
    spearman_rho,
)
from pgain.analysis import SWEEP_COLUMNS, average_ranks, timed
from pgain.generate import ring_edges

from conftest import ba_graph


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

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_average_ranks(self):
        np.testing.assert_array_equal(
            average_ranks(np.array([10.0, 20.0, 20.0, 30.0])), [1.0, 2.5, 2.5, 4.0]
        )


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


class TestCorrelationMatrix:
    def test_identical_vectors(self, star_plus_tail):
        deg = degree_centrality(star_plus_tail)
        report = correlation_matrix([deg, deg])
        np.testing.assert_array_equal(report.rho, np.ones((2, 2)))

    def test_uniform_metrics_reported_missing(self, k3):
        # every metric on K3 is uniform, so every pair (diagonal included)
        # has zero rank variance
        report = correlation_matrix(
            [degree_centrality(k3), exponential_potential_gain(k3)]
        )
        assert np.all(np.isnan(report.rho))
        assert len(report.missing) == 3  # (deg,deg), (deg,epg), (epg,epg)

    def test_star_degree_vs_epg(self, s4):
        report = correlation_matrix(
            [degree_centrality(s4), exponential_potential_gain(s4)]
        )
        assert report.value("deg", "epg") == 1.0

    def test_names_sorted(self, star_plus_tail):
        report = correlation_matrix(
            [exponential_potential_gain(star_plus_tail),
             degree_centrality(star_plus_tail)]
        )
        assert report.metric_names == ("deg", "epg")

    def test_needs_two_vectors(self, s4):
        with pytest.raises(ParameterError):
            correlation_matrix([degree_centrality(s4)])


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

    def test_csv_header_and_shape(self, star_plus_tail):
        result = delta_sweep(star_plus_tail, grid=[0.2, 0.4])
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "delta_star,rho_deg,rho_ec,rho_pr,rho_katz,rho_epg"
        assert len(lines) == 3

    def test_one_series_pass_and_one_power_iteration(self, monkeypatch):
        g = ba_graph(300, 3, seed=3)
        grid = [0.1, 0.5, 0.9]
        expected = (
            power_iteration(g).iterations
            + pagerank(g).iterations_used
            + exponential_potential_gain(g).iterations_used
            + geometric_potential_gain(g, GainParams(delta_star=0.9)).iterations_used
        )
        calls = []
        spmv = Graph.spmv
        monkeypatch.setattr(
            Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
        )
        result = delta_sweep(g, grid=grid)
        assert result.converged
        assert len(calls) == expected

    def test_bad_grid_rejected(self, star_plus_tail):
        with pytest.raises(ParameterError):
            delta_sweep(star_plus_tail, grid=[0.5, 0.2])
        with pytest.raises(ParameterError):
            delta_sweep(star_plus_tail, grid=[0.0, 0.5])


class TestConvergenceReport:
    def test_k3_geometric_reaches_1e6_by_20(self, k3):
        traces = convergence_report(
            k3, delta_stars=[0.5], kinds=["geometric"], max_walk_length=20,
            tolerance=None,
        )
        assert dict(traces[0].errors)[20] < 1e-6

    def test_p2_exponential_reaches_1e10_by_15(self, p2):
        traces = convergence_report(
            p2, kinds=["exponential"], max_walk_length=15, tolerance=None
        )
        assert dict(traces[0].errors)[15] < 1e-10

    def test_one_trace_per_combination(self, k3):
        traces = convergence_report(
            k3, delta_stars=[0.25, 0.5], kinds=["geometric", "exponential"],
            max_walk_length=10, tolerance=None,
        )
        # exponential ignores delta_star, so 2 geometric + 1 exponential
        assert [t.metric for t in traces] == ["gpg", "gpg", "epg"]

    def test_csv_format(self, k3):
        traces = convergence_report(
            k3, delta_stars=[0.5], kinds=["geometric"], max_walk_length=5,
            tolerance=None,
        )
        lines = traces[0].to_csv().strip().split("\n")
        assert lines[0] == "k,epsilon"
        assert len(lines) == 6


def test_timed_records_iterations(k3):
    vector, record = timed(lambda: exponential_potential_gain(k3))
    assert record.wall_seconds > 0
    assert record.iterations == vector.iterations_used
    assert record.per_iteration_seconds <= record.wall_seconds
