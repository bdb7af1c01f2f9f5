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
    delta_sweep,
    exponential_potential_gain,
    geometric_potential_gain,
    lanczos,
    pagerank,
    spearman_rho,
)
from pgain.analysis import SWEEP_COLUMNS, average_ranks
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
            lanczos(g)[0].iterations
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
