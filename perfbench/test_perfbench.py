"""Tests for the benchmark itself: ``python3 -m pytest perfbench``.

The smoke tests run every workload end to end, untraced and traced, on tiny
inputs through the same output checks as a full run. The check tests show
that the checks reject outputs a little off the reference.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    lines = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", str(trace), "--size", "tiny")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert any(line.startswith("fail_ratio = 0/") for line in lines)


def test_inputs_repeat_per_seed():
    a = inputs.make_input("konect", "tiny", 5)
    assert a.text == inputs.make_input("konect", "tiny", 5).text
    assert a.text != inputs.make_input("konect", "tiny", 6).text


def test_ba_seed_changes_presentation_not_structure():
    a, b = inputs.make_input("ba", "tiny", 5), inputs.make_input("ba", "tiny", 6)
    assert a.text != b.text and a.labels != b.labels
    assert a.structure == b.structure
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
    edges = {frozenset(line.split()) for line in a.text.splitlines()}
    assert edges == {frozenset((a.labels[u], a.labels[v]))
                     for u, v in zip(a.src.tolist(), a.dst.tolist())}


@pytest.fixture(scope="module")
def ba():
    return inputs.make_input("ba", "tiny", 4)


def scores_csv(labels, values):
    return "node,score\n" + "".join(f"{l},{v:.17g}\n" for l, v in zip(labels, values))


def test_scores_check_rejects_perturbation(ba):
    ref = reference.compute_all_reference(ba)
    for metric, values in ref.items():
        assert reference.check_scores(
            metric, scores_csv(ba.labels, values), ba.labels, values) == []
        assert reference.check_scores(
            metric, scores_csv(ba.labels, values * (1 + 1e-6)), ba.labels, values)


def sweep_csv(rho):
    rows = ["delta_star,rho_deg,rho_ec,rho_pr,rho_katz,rho_epg"]
    for star, row in zip(reference.SWEEP_GRID, rho):
        rows.append(",".join(f"{v:.17g}" for v in (star, *row)))
    return "\n".join(rows) + "\n"


def test_sweep_check_rejects_wrong_rho(ba):
    rho = reference.sweep_reference(ba)["rho"]
    assert reference.check_sweep(sweep_csv(rho), rho) == []
    wrong = rho.copy()
    wrong[4, 1] -= 1e-5
    assert reference.check_sweep(sweep_csv(wrong), rho)


def test_convergence_check_rejects_wrong_epsilon():
    eps = reference.convergence_reference(inputs.make_input("konect", "tiny", 4))["eps"]

    def csv(values):
        return "k,epsilon\n" + "".join(
            f"{k},{e:.17g}\n" for k, e in enumerate(values, start=1))

    assert reference.check_convergence(csv(eps), eps) == []
    off = eps.copy()
    off[3] += 1e-9
    assert reference.check_convergence(csv(off), eps)
    assert reference.check_convergence(csv(eps[:3]), eps)  # stopped too early


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for backend in ("python", "cython"):
        record = {"workload": "sweep-ba", "size": "full", "trace": 0,
                  "environment": {"backend": backend},
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"),
         "--base", paths[0], "--new", paths[1]],
        capture_output=True, text=True,
    )
    assert done.returncode == 2 and "refusing" in done.stderr


def test_layer_metrics_self_time_and_counts():
    import run

    spans = [
        {"layer": "cli", "name": "cli.main", "parent": -1, "start": 0.0, "end": 10.0},
        {"layer": "spectral", "name": "spectral.eigenvector_centrality",
         "parent": 0, "start": 1.0, "end": 5.0},
        {"layer": "spectral", "name": "spectral.power_iteration",
         "parent": 1, "start": 1.5, "end": 4.5},
        {"layer": "graph", "name": "graph.spmv", "parent": 2, "start": 2.0, "end": 3.0},
    ]
    record = {"spans": spans, "rss_after_parse_kb": 1024,
              "probe": {"validate_s": 1.0, "kernel_spmv_s": 1e-3, "n": 10,
                        "nnz": 20, "csr_bytes": 88 + 160}}
    metrics = run.layer_metrics(record, {"cli": 0.5})
    assert metrics["cli.self_s"] == pytest.approx(6.5)  # 10 - 4 + import
    assert metrics["spectral.self_s"] == pytest.approx(3.0)  # (4 - 3) + (3 - 1)
    assert metrics["spectral.calls"] == 1
    assert metrics["spectral.spmv_calls"] == 1
    assert metrics["graph.spmv_calls"] == 1
    assert metrics["graph.spmv_ms"] == pytest.approx(1000.0)
    assert metrics["kernel.bytes_per_spmv_computed"] == 248 + 160 + 80
    assert np.isclose(metrics["kernel.gbps_computed"], 488 / 1e-3 / 1e9)
