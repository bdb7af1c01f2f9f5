import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgain
from pgain import (
    GainParams,
    Graph,
    exponential_potential_gain,
    geometric_potential_gain,
    katz_centrality,
    lanczos,
    pagerank,
    parse_edge_list,
)
from pgain import cli
from pgain.cli import main
from pgain.generate import barabasi_albert_edges, complete_edges, edges_to_text
from pgain.vectors import CentralityVector

from conftest import rel_err


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("a b\nb c\nc a\n")
    return path


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text("u v\n")
    return path


@pytest.fixture
def star_tail_file(tmp_path):
    lines = [f"0 {i}" for i in range(1, 7)] + ["0 7", "7 8", "7 9", "8 9"]
    path = tmp_path / "star_tail.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def ba_file(tmp_path):
    path = tmp_path / "ba.txt"
    path.write_text(edges_to_text(barabasi_albert_edges(300, 3, seed=4)))
    return path


@pytest.fixture
def p500_file(tmp_path):
    # the path P_500: a slow spectral gap, so the lambda1 solve restarts often
    path = tmp_path / "p500.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(499)))
    return path


def count_spmv(monkeypatch):
    calls = []
    spmv = Graph.spmv
    monkeypatch.setattr(
        Graph, "spmv", lambda self, *a, **k: calls.append(1) or spmv(self, *a, **k)
    )
    return calls


def read_scores(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "node,score"
    return {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}


class TestCompute:
    def test_gpg_k3_closed_form(self, k3_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "compute", "--metric", "gpg", "--delta-star", "0.5",
            "--out", str(out), str(k3_file),
        ])
        assert code == 0
        scores = read_scores(out / "gpg.csv")
        assert set(scores) == {"a", "b", "c"}
        for value in scores.values():
            assert value == pytest.approx(4.0, rel=1e-8)

    def test_epg_p2(self, p2_file, tmp_path):
        out = tmp_path / "out"
        code = main(["compute", "--metric", "epg", "--out", str(out), str(p2_file)])
        assert code == 0
        scores = read_scores(out / "epg.csv")
        assert len(scores) == 2
        for value in scores.values():
            assert value == pytest.approx(math.e, rel=1e-8)

    def test_metric_all_writes_six_files(self, tmp_path):
        star = tmp_path / "star4.txt"
        star.write_text("c l1\nc l2\nc l3\nc l4\n")
        out = tmp_path / "out"
        code = main(["compute", "--metric", "all", "--out", str(out), str(star)])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["deg.csv", "ec.csv", "epg.csv", "gpg.csv", "katz.csv", "pr.csv"]

    def test_byte_identical_reruns(self, k3_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "compute", "--metric", "gpg", "--out", str(out), str(k3_file)
            ]) == 0
        assert (out_a / "gpg.csv").read_bytes() == (out_b / "gpg.csv").read_bytes()

    def test_json_format(self, k3_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "compute", "--metric", "deg", "--format", "json",
            "--out", str(out), str(k3_file),
        ])
        assert code == 0
        payload = json.loads((out / "deg.json").read_text())
        assert payload["metric"] == "deg"
        assert payload["scores"] == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_missing_file_is_io_error(self, tmp_path):
        assert main([
            "compute", "--metric", "deg", "--out", str(tmp_path), "no_such_file"
        ]) == 1

    def test_bad_delta_is_parameter_error(self, k3_file, tmp_path):
        code = main([
            "compute", "--metric", "gpg", "--delta", "0.9",
            "--out", str(tmp_path), str(k3_file),
        ])
        assert code == 2

    def test_summary_on_stderr(self, k3_file, tmp_path, capsys):
        main(["compute", "--metric", "gpg", "--out", str(tmp_path), str(k3_file)])
        err = capsys.readouterr().err
        assert "metric=gpg" in err
        assert "lambda1=2" in err
        assert "n=3 m=3" in err

    def test_non_convergence_exits_3(self, tmp_path):
        # a path graph needs more than one Lanczos step
        path_file = tmp_path / "p4.txt"
        path_file.write_text("0 1\n1 2\n2 3\n")
        code = main([
            "compute", "--metric", "ec", "--max-k", "1",
            "--out", str(tmp_path), str(path_file),
        ])
        assert code == 3

    def test_unconverged_lambda1_exits_3(self, tmp_path, capsys):
        # the path P_3000 has a tiny spectral gap: the lambda1 solve hits its cap
        path = tmp_path / "p3000.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(2999)))
        code = main(["compute", "--metric", "gpg", "--out", str(tmp_path),
                     str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert ("pgain: warning: the lambda1 solve stopped at its iteration cap"
                in err)
        assert "metric=gpg n=3000 m=2999" in err
        assert (tmp_path / "gpg.csv").exists()
        # deg does not use lambda1, so the same estimate does not matter
        assert main(["compute", "--metric", "deg", "--out", str(tmp_path),
                     str(path)]) == 0

    def test_p500_lambda1_converges(self, p500_file, tmp_path, capsys):
        assert main(["compute", "--metric", "gpg", "--format", "json",
                     "--out", str(tmp_path), str(p500_file)]) == 0
        params = json.loads((tmp_path / "gpg.json").read_text())["params"]
        assert abs(params["lambda1"] - 2 * math.cos(math.pi / 501)) <= 1e-12
        assert "warning" not in capsys.readouterr().err

    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b\nb c\nc \xff\n")
        code = main(["compute", "--metric", "deg", "--out", str(tmp_path),
                     str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("pgain: error: line 3: invalid UTF-8 byte 0xff")
        assert "Traceback" not in err


class TestComputeSharedWork:
    """``compute`` runs one Lanczos solve and one GPG series."""

    def test_metric_all_spmv_count(self, ba_file, tmp_path, monkeypatch):
        g = parse_edge_list(ba_file)
        expected = (
            max(lanczos(g)[0].iterations,
                lanczos(g, [(1e-12, 10_000)])[0].iterations)
            + pagerank(g).iterations_used
            + geometric_potential_gain(g).iterations_used
            + exponential_potential_gain(g).iterations_used
        )
        calls = count_spmv(monkeypatch)
        assert main(["compute", "--metric", "all", "--out", str(tmp_path),
                     str(ba_file)]) == 0
        assert len(calls) == expected

    def test_gpg_alone_skips_the_ec_rule(self, ba_file, tmp_path, monkeypatch):
        # a tight --tol would lengthen an EC rule, not the lambda1 rule
        g = parse_edge_list(ba_file)
        expected = (lanczos(g, eigenvectors=False)[0].iterations
                    + geometric_potential_gain(
                        g, GainParams(tolerance=1e-14)).iterations_used)
        calls = count_spmv(monkeypatch)
        assert main(["compute", "--metric", "gpg", "--tol", "1e-14",
                     "--out", str(tmp_path), str(ba_file)]) == 0
        assert len(calls) == expected

    def test_deg_needs_no_spectrum(self, p500_file, tmp_path, monkeypatch,
                                   capsys):
        calls = count_spmv(monkeypatch)
        assert main(["compute", "--metric", "deg", "--out", str(tmp_path),
                     str(p500_file)]) == 0
        assert calls == []
        assert " lambda1=nan " in capsys.readouterr().err

    def test_ec_alone_is_one_pass(self, ba_file, tmp_path, monkeypatch):
        g = parse_edge_list(ba_file)
        lam_rule = lanczos(g)[0]
        ec_rule = lanczos(g, [(1e-6, 10_000)])[0]
        calls = count_spmv(monkeypatch)
        assert main(["compute", "--metric", "ec", "--tol", "1e-6",
                     "--out", str(tmp_path), str(ba_file)]) == 0
        assert len(calls) == max(lam_rule.iterations, ec_rule.iterations)
        scores = read_scores(tmp_path / "ec.csv")
        assert np.array_equal([scores[label] for label in g.labels],
                              ec_rule.eigenvector)

    def test_katz_matches_katz_centrality(self, ba_file, tmp_path):
        assert main(["compute", "--metric", "katz", "--out", str(tmp_path),
                     str(ba_file)]) == 0
        g = parse_edge_list(ba_file)
        lam = lanczos(g)[0].lambda1
        loop = katz_centrality(g, delta=0.5 / lam, lambda1=lam)
        scores = read_scores(tmp_path / "katz.csv")
        assert rel_err([scores[label] for label in g.labels], loop.scores) <= 1e-12

    def test_katz_truncated_by_max_k_exits_3(self, k3_file, tmp_path, capsys):
        assert main(["compute", "--metric", "katz", "--max-k", "2",
                     "--out", str(tmp_path), str(k3_file)]) == 3
        assert "metric=katz n=3 m=3 lambda1=2 iterations=2" in capsys.readouterr().err
        # GPG keeps counting a --max-k cut as converged
        assert main(["compute", "--metric", "gpg", "--max-k", "2",
                     "--out", str(tmp_path), str(k3_file)]) == 0

    def test_katz_on_edgeless_graph(self, tmp_path):
        loops = tmp_path / "loops.txt"
        loops.write_text("1 1\n2 2\n")
        assert main(["compute", "--metric", "katz", "--out", str(tmp_path),
                     str(loops)]) == 0
        assert read_scores(tmp_path / "katz.csv") == {"1": 1.0, "2": 1.0}

    def test_overflowing_series_exits_3(self, tmp_path, capsys):
        k760 = tmp_path / "k760.txt"
        k760.write_text(edges_to_text(complete_edges(760)))
        assert main(["compute", "--metric", "epg", "--out", str(tmp_path),
                     str(k760)]) == 3
        err = capsys.readouterr().err
        assert "pgain: error: exponential gain: the series overflows" in err

    @pytest.mark.parametrize("n,chunk", [(5, 8192), (23, 7), (21, 7), (0, 7)])
    def test_csv_writer_bytes(self, tmp_path, monkeypatch, n, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(n)
        scores = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        labels = tuple(f"node{i}" for i in range(n))
        g = Graph(indptr=np.zeros(n + 1, dtype=np.int64),
                  indices=np.zeros(0, dtype=np.int64), labels=labels)
        path = tmp_path / "out.csv"
        cli._write_scores(path, g, CentralityVector(scores, "x"), "csv")
        lines = ["node,score"]
        lines += [f"{label},{score:.17g}" for label, score in zip(labels, scores)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestSweep:
    def test_star_tail_katz_column(self, star_tail_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out), str(star_tail_file)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "delta_star,rho_deg,rho_ec,rho_pr,rho_katz,rho_epg"
        assert len(lines) == 10  # default 9-point grid
        for row in lines[1:]:
            assert float(row.split(",")[4]) >= 0.999

    def test_regular_ring_emits_empty_fields_and_warns(self, tmp_path, capsys):
        ring = tmp_path / "ring.txt"
        ring.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0.3,0.6", "--out", str(out), str(ring)]) == 0
        for row in out.read_text().strip().split("\n")[1:]:
            assert row.split(",")[1:] == [""] * 5
        assert "undefined correlation" in capsys.readouterr().err

    def test_row_count_contract(self, tmp_path):
        er = tmp_path / "er.txt"
        assert main(["generate", "er", "100", "0.05", "--seed", "1",
                     "--out", str(er)]) == 0
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out), str(er)]) == 0
        assert len(out.read_text().strip().split("\n")) == 10

    def test_edgeless_graph_emits_empty_fields(self, tmp_path, capsys):
        loops = tmp_path / "loops.txt"
        loops.write_text("1 1\n2 2\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0.5", "--out", str(out), str(loops)]) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[1:] == [""] * 5
        assert "undefined correlation" in capsys.readouterr().err

    def test_bad_grid_is_parameter_error(self, star_tail_file, capsys):
        assert main(["sweep", "--grid", "0.2,abc", str(star_tail_file)]) == 2
        assert "pgain: error:" in capsys.readouterr().err

    def test_power_iteration_cap_exits_3(self, tmp_path, capsys):
        # the path P_3000 has a tiny spectral gap: the lambda1 solve hits its cap
        path = tmp_path / "p3000.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(2999)))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0.5", "--out", str(out), str(path)]) == 3
        assert len(out.read_text().strip().split("\n")) == 2
        assert "converg" in capsys.readouterr().err

    def test_json_format(self, star_tail_file, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--grid", "0.5", "--format", "json",
                     "--out", str(out), str(star_tail_file)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["rho_katz"] >= 0.999


class TestConvergence:
    def test_csv_shape(self, k3_file, tmp_path):
        out = tmp_path / "conv.csv"
        code = main([
            "convergence", "--metric", "gpg", "--delta-star", "0.5",
            "--max-k", "20", "--out", str(out), str(k3_file),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,epsilon"
        assert len(lines) == 21
        last_eps = float(lines[-1].split(",")[1])
        assert last_eps < 1e-6

    def test_stdout_default(self, p2_file, capsys):
        assert main(["convergence", "--metric", "epg", "--max-k", "15",
                     str(p2_file)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,epsilon"
        assert float(lines[-1].split(",")[1]) < 1e-10

    def test_json_format(self, k3_file, tmp_path):
        out = tmp_path / "conv.json"
        assert main(["convergence", "--metric", "epg", "--max-k", "5",
                     "--format", "json", "--out", str(out), str(k3_file)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metric", "params", "points"}
        assert [k for k, _ in payload["points"]] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("command", [
    ["compute", "--metric", "gpg"],
    ["convergence", "--metric", "gpg"],
    ["convergence", "--metric", "epg"],
], ids=lambda c: "-".join(a.lstrip("-") for a in c))
def test_empty_file_is_parameter_error(tmp_path, capsys, command):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main([*command, str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "pgain: error: empty graph\n"
    assert not (tmp_path / "out").is_file()


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["compute", "--metric", "gpg"],
    ["compute", "--metric", "katz"],
    ["compute", "--metric", "all"],
    ["sweep"],
    ["convergence", "--metric", "gpg"],
    ["convergence", "--metric", "epg"],
    ["spectral"],
], ids=lambda c: "-".join(a.lstrip("-") for a in c))
def test_non_finite_tol_is_parameter_error(k3_file, tmp_path, capsys,
                                           command, tol):
    args = [*command, "--tol", tol, str(k3_file)]
    if command[0] != "spectral":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "pgain: error:" in capsys.readouterr().err


class TestGenerate:
    def test_complete_three_edges(self, capsys):
        assert main(["generate", "complete", "3"]) == 0
        assert capsys.readouterr().out == "0 1\n0 2\n1 2\n"

    def test_er_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["generate", "er", "100", "0.05", "--seed", "1",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

    def test_ba_edge_count(self, tmp_path):
        out = tmp_path / "ba.txt"
        assert main(["generate", "ba", "200", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        # clique of 4 (6 edges) + 196 nodes * 3 attachments
        assert len(out.read_text().strip().split("\n")) == 594

    def test_bad_params(self, capsys):
        assert main(["generate", "grid", "3"]) == 2

    def test_ring_and_grid(self, capsys):
        assert main(["generate", "ring", "5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 5
        assert main(["generate", "grid", "2", "3"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 7


class TestSpectral:
    def test_reports_lambda1(self, k3_file, capsys):
        assert main(["spectral", str(k3_file)]) == 0
        out = capsys.readouterr().out
        assert "lambda1=2" in out
        assert "converged=True" in out

    def test_skips_the_eigenvector_replay(self, ba_file, capsys, monkeypatch):
        g = parse_edge_list(ba_file)
        full = lanczos(g)[0]
        calls = count_spmv(monkeypatch)
        assert main(["spectral", str(ba_file)]) == 0
        out = capsys.readouterr().out
        # pass 1 alone: m steps where the replay would make it 2m - 1
        assert f"lambda1={full.lambda1:.17g} " in out
        assert f" iterations={len(calls)} " in out
        assert len(calls) == (full.iterations + 1) // 2


class TestRuntime:
    def test_compute_all_imports_no_scipy(self, ba_file, tmp_path):
        # numpy is the only runtime dependency; the tests use scipy, so
        # check in a fresh interpreter
        script = (
            "import sys\n"
            "from pgain.cli import main\n"
            f"code = main(['compute', '--metric', 'all', '--out', {str(tmp_path)!r},"
            f" {str(ba_file)!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules\n"
        )
        src = str(Path(pgain.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "ec.csv").exists()
