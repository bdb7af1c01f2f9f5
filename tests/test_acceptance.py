"""Acceptance suite: one test per numbered criterion, each printing a
PASS line (run with ``pytest -s`` to see them on success)."""

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from pgain import (
    GainParams,
    Graph,
    communicability_vector,
    crossover_delta,
    degree_centrality,
    delta_sweep,
    exponential_potential_gain,
    gain_with_trace,
    geometric_potential_gain,
    katz_centrality,
    lanczos,
    pagerank,
    parse_edge_list,
    spearman_rho,
)
import oracle
from pgain.cli import main
from pgain.gain import _gain
from pgain.generate import (
    barabasi_albert_edges,
    complete_edges,
    erdos_renyi_edges,
    grid_edges,
    ring_edges,
    star_edges,
)

from conftest import rel_err

E2 = math.e**2


def _passed(n, label):
    print(f"[acceptance] criterion {n} ({label}): PASS")


def _best_time(fn, repeats=3):
    fn()  # warmup
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_closed_form_regular_graphs():
    k3 = Graph.from_edges(complete_edges(3))
    p2 = Graph.from_edges([(0, 1)])
    cases = [
        ("gpg K3", lambda: geometric_potential_gain(k3, GainParams(delta=0.25)), 4.0),
        ("epg K3", lambda: exponential_potential_gain(k3), 2 * E2),
        ("gpg P2", lambda: geometric_potential_gain(p2, GainParams(delta=0.5)), 2.0),
        ("epg P2", lambda: exponential_potential_gain(p2), math.e),
    ]
    for name, fn, expected in cases:
        scores = fn().scores
        assert np.max(np.abs(scores - expected) / expected) <= 1e-8, name
        assert _best_time(fn) < 1e-3, f"{name} slower than 1 ms"
    _passed(1, "closed-form regular graphs")


def _seeded_small_graphs(count, kind):
    graphs = []
    seed = 0
    while len(graphs) < count:
        n = 5 + (7 * seed + (0 if kind == "er" else 3)) % 46  # 5..50
        if kind == "er":
            g = Graph.from_edges(erdos_renyi_edges(n, 0.4, seed=seed))
        else:
            g = Graph.from_edges(barabasi_albert_edges(max(n, 4), 2, seed=seed))
        seed += 1
        if g.edge_count > 0:
            graphs.append(g)
    return graphs


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    graphs = _seeded_small_graphs(25, "er") + _seeded_small_graphs(25, "ba")
    assert len(graphs) == 50
    for g in graphs:
        delta = 0.5 / lanczos(g).lambda1
        tight = 1e-14
        gpg = geometric_potential_gain(g, GainParams(delta=delta,
                                                     tolerance=tight))
        assert rel_err(gpg.scores, oracle.oracle_gain(g, "geometric", delta)) <= 1e-9
        epg = exponential_potential_gain(g, GainParams(tolerance=tight))
        assert rel_err(epg.scores, oracle.oracle_gain(g, "exponential")) <= 1e-9
        katz = katz_centrality(g, delta, tolerance=tight)
        assert rel_err(katz.scores, oracle.oracle_katz(g, delta)) <= 1e-9
        comm = communicability_vector(g, tolerance=tight)
        assert rel_err(comm.scores, oracle.oracle_communicability(g)) <= 1e-9
        pr = pagerank(g, alpha=0.85, tolerance=tight)
        assert rel_err(pr.scores, oracle.oracle_pagerank(g, 0.85)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    _passed(2, f"oracle equivalence, 50 graphs in {elapsed:.2f}s")


def test_criterion_3_crossover_on_k3():
    k3 = Graph.from_edges(complete_edges(3))
    delta_c = crossover_delta(2.0)
    assert delta_c == pytest.approx((E2 - 1) / (2 * E2), abs=1e-12)
    gpg = geometric_potential_gain(k3, GainParams(delta=delta_c, tolerance=1e-12))
    epg = exponential_potential_gain(k3, GainParams(tolerance=1e-12))
    assert rel_err(gpg.scores, epg.scores) <= 1e-6
    _passed(3, "crossover decay equates the gains on K3")


def test_criterion_4_geometric_rate():
    graphs = _seeded_small_graphs(5, "er") + _seeded_small_graphs(5, "ba")
    assert len(graphs) == 10
    for g in graphs:
        for star in (0.25, 0.5, 0.75):
            params = GainParams(delta_star=star, max_walk_length=21, tolerance=None)
            _, trace = gain_with_trace(g, params, kind="geometric")
            eps = dict(trace.errors)
            for k in range(5, 21):
                ratio = eps[k + 1] / eps[k]
                assert ratio <= star + 0.05, (g.node_count, star, k, ratio)
    _passed(4, "geometric error ratio bounded by delta*lambda1 + 0.05")


def test_criterion_5_exponential_bound():
    fixtures = [
        Graph.from_edges([(0, 1)]),
        Graph.from_edges(ring_edges(6)),
        Graph.from_edges(complete_edges(4)),
        Graph.from_edges(complete_edges(6)),
        Graph.from_edges(star_edges(16)),
        Graph.from_edges(grid_edges(3, 3)),
        Graph.from_edges(erdos_renyi_edges(24, 0.09, seed=3)),
        Graph.from_edges(erdos_renyi_edges(23, 0.09, seed=7)),
    ]
    for g in fixtures:
        lam = oracle.oracle_lambda1(g)
        assert lam <= 5.0 + 1e-9
        k = math.ceil(2 * math.e * lam)
        params = GainParams(max_walk_length=k, tolerance=None)
        _, trace = gain_with_trace(g, params, kind="exponential")
        bound = 0.5 ** (2 * math.e * lam) * lam ** -0.5
        assert dict(trace.errors)[k] <= bound, (g.node_count, lam)
    _passed(5, "exponential error bound at k = ceil(2 e lambda1)")


def test_criterion_6_desk_scale_error_curves(tmp_path):
    ba_file = tmp_path / "ba1000.txt"
    assert main(["generate", "ba", "1000", "3", "--seed", "1",
                 "--out", str(ba_file)]) == 0
    g = parse_edge_list(ba_file)
    lam = lanczos(g).lambda1

    gpg_csv = tmp_path / "gpg_conv.csv"
    assert main(["convergence", "--metric", "gpg", "--delta-star", "0.5",
                 "--max-k", "25", "--out", str(gpg_csv), str(ba_file)]) == 0
    rows = [line.split(",") for line in gpg_csv.read_text().strip().split("\n")[1:]]
    eps = {int(k): float(e) for k, e in rows}
    ks = np.arange(5, 21)
    logs = np.log([eps[k] for k in ks])
    assert np.all(np.diff(logs) < 0), "not strictly decreasing on [5, 20]"
    slope = float(np.polyfit(ks, logs, 1)[0])
    target = math.log(0.5)
    assert abs(slope - target) <= 0.1 * abs(target), (slope, target)

    epg_csv = tmp_path / "epg_conv.csv"
    assert main(["convergence", "--metric", "epg", "--max-k", "150",
                 "--out", str(epg_csv), str(ba_file)]) == 0
    rows = [line.split(",") for line in epg_csv.read_text().strip().split("\n")[1:]]
    k_reach = next(int(k) for k, e in rows if float(e) <= 1e-6)
    assert k_reach <= 1.5 * (2 * math.e * lam), (k_reach, lam)
    _passed(6, f"BA(1000,3): slope {slope:.4f} vs {target:.4f}, "
               f"eps_e<=1e-6 at k={k_reach} (2e*lambda1={2 * math.e * lam:.1f})")


def test_criterion_7_correlation_limits():
    edges = [(0, i) for i in range(1, 7)] + [(0, 7), (7, 8), (7, 9), (8, 9)]
    g = Graph.from_edges(edges)
    deg = degree_centrality(g).scores

    gpg_small = geometric_potential_gain(g, GainParams(delta_star=0.01))
    assert spearman_rho(gpg_small.scores, deg) == 1.0

    grid = [0.01] + list(np.linspace(0.1, 0.9, 9)) + [0.99]
    sweep = delta_sweep(g, grid=grid)
    assert np.all(sweep.rho["katz"] >= 0.999)
    assert sweep.rho["ec"][-1] >= 0.95
    _passed(7, "degree/Katz/eigenvector correlation limits on star-plus-tail")


def test_criterion_8_linear_scaling():
    import gc

    sizes = (100_000, 200_000)
    iterations = 60  # long enough that per-run setup is amortized away
    params = GainParams(delta_star=0.5, max_walk_length=iterations,
                        tolerance=None)
    runs = []
    for i, n in enumerate(sizes):
        g = Graph.from_edges(barabasi_albert_edges(n, 3, seed=1 + i))
        lam = lanczos(g, 1e-6, 200).lambda1
        # the 60-term series alone, at a decay resolved against lam
        runs.append(lambda g=g, lam=lam: _gain(g, "geometric", params, lam))
    gc.collect()
    for run in runs:
        run()  # warmup
    # interleave the measurements so machine drift hits both sizes alike,
    # and take the ratio within each pair, so one slow spell moves one ratio
    ratios = []
    for _ in range(5):
        times = []
        for run in runs:
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        ratios.append(times[1] / times[0])
    ratio = statistics.median(ratios)
    assert 1.5 <= ratio <= 3.0, (ratios, ratio)
    _passed(8, f"per-iteration time ratio 200k/100k = {ratio:.2f}")


KONECT_EXPECTED = {
    "facebook.txt": 132.57,
    "dblp.txt": 115.85,
    "youtube.txt": 210.40,
}


def _datasets_dir():
    env = os.environ.get("PGAIN_DATASETS_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "datasets"


def test_criterion_9_optional_full_datasets():
    root = _datasets_dir()
    missing = [name for name in KONECT_EXPECTED if not (root / name).exists()]
    if missing:
        pytest.skip(f"large datasets not supplied (missing {missing} in {root})")
    for name, expected in KONECT_EXPECTED.items():
        g = parse_edge_list(root / name)
        lam = lanczos(g).lambda1
        assert round(lam, 2) == pytest.approx(expected, abs=5e-3), name
    facebook = parse_edge_list(root / "facebook.txt")
    rho = spearman_rho(
        degree_centrality(facebook).scores, pagerank(facebook).scores
    )
    assert rho >= 0.99
    _passed(9, "KONECT spectral radii and degree/PageRank correlation")
