import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pgain
from pgain import (
    GainParams,
    eigenvector_centrality,
    exponential_potential_gain,
    geometric_potential_gain,
    katz_centrality,
    lanczos,
    pagerank,
    parse_edge_list,
)
from pgain import _csvtext, cli, spectral
from pgain.cli import METRICS, main
from pgain.generate import barabasi_albert_edges, complete_edges, edges_to_text

from conftest import count_spmv


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
    # the path P_500: a slow spectral gap, so the lambda1 pass runs 256 steps,
    # past the 64 checked one by one
    path = tmp_path / "p500.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(499)))
    return path


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

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("option", [
        ["--tol", "nan"], ["--tol", "-1"], ["--max-k", "0"], ["--alpha", "2"],
        ["--delta-star", "1.5"],
    ], ids=lambda o: "".join(o).lstrip("-"))
    def test_bad_parameter_is_rejected_whatever_the_metric(
            self, k3_file, tmp_path, capsys, metric, option):
        out = tmp_path / "out"
        assert main(["compute", "--metric", metric, *option, "--out", str(out),
                     str(k3_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pgain: error:")
        if option[0] == "--max-k":  # the option, not the library's field
            assert err == "pgain: error: --max-k must be at least 1\n"
        assert not out.exists()

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

    def test_unconverged_lambda1_exits_3(self, tmp_path, capsys,
                                         monkeypatch):
        # the path P_3000 has a tiny spectral gap: the lambda1 rule is met at
        # step 1,536, so a cap of 1,000 SpMVs stops it first
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 1000)
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
    """``compute`` runs one Lanczos pass for lambda1, EC, Katz/GPG and EPG."""

    def test_metric_all_spmv_count(self, ba_file, tmp_path, monkeypatch):
        # m pass-1 steps and their replay cost 2m - 1 SpMVs; Katz and EPG
        # each count one more, the product by A after the replay
        g = parse_edge_list(ba_file)
        spectrum = lanczos(g)
        katz = katz_centrality(g, 0.5 / spectrum.lambda1).iterations_used
        epg = exponential_potential_gain(g).iterations_used
        expected = (
            max(spectrum.iterations, lanczos(g, 1e-12, 10_000).iterations,
                katz - 1, epg - 1)
            + pagerank(g).iterations_used
            + 2
        )
        calls = count_spmv(monkeypatch)
        assert main(["compute", "--metric", "all", "--out", str(tmp_path),
                     str(ba_file)]) == 0
        assert len(calls) == expected

    def test_gpg_alone_skips_the_ec_rule(self, ba_file, tmp_path, monkeypatch):
        # a tight --tol would lengthen an EC rule, not the lambda1 rule
        # pass 1 runs the longer of lambda1's m and Katz's m' steps, and
        # only Katz is replayed (m' - 1) and multiplied by A
        g = parse_edge_list(ba_file)
        steps = geometric_potential_gain(
            g, GainParams(tolerance=1e-14)).iterations_used // 2
        expected = (max(lanczos(g, eigenvectors=False).iterations, steps)
                    + steps)
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
        # pass 1 runs the longer of lambda1's m and EC's m' steps, and only
        # the EC Ritz vector is replayed (m' - 1)
        g = parse_edge_list(ba_file)
        lam_steps = lanczos(g, eigenvectors=False).iterations
        ec_rule = lanczos(g, 1e-6, 10_000)
        ec_steps = (ec_rule.iterations + 1) // 2
        calls = count_spmv(monkeypatch)
        assert main(["compute", "--metric", "ec", "--tol", "1e-6",
                     "--out", str(tmp_path), str(ba_file)]) == 0
        assert len(calls) == max(lam_steps, ec_steps) + ec_steps - 1
        scores = read_scores(tmp_path / "ec.csv")
        assert np.array_equal([scores[label] for label in g.labels],
                              ec_rule.eigenvector)

    def test_katz_matches_katz_centrality(self, ba_file, tmp_path):
        assert main(["compute", "--metric", "katz", "--out", str(tmp_path),
                     str(ba_file)]) == 0
        g = parse_edge_list(ba_file)
        loop = katz_centrality(g, delta=0.5 / lanczos(g).lambda1)
        scores = read_scores(tmp_path / "katz.csv")
        assert np.array_equal([scores[label] for label in g.labels], loop.scores)

    @pytest.mark.parametrize("max_k", [None, 20], ids=["pass", "max-k"])
    @pytest.mark.parametrize("metric", ["katz", "gpg", "epg", "ec"])
    def test_column_agrees_wherever_written(self, ba_file, tmp_path, metric,
                                            max_k, monkeypatch):
        # the file of --metric M is that of --metric all, byte for byte, and
        # holds the library's vector for the same parameters; also on P_3000
        # with the lambda1 cap cut to 2,000 SpMVs, where the lambda1 rule is
        # met at step 1,536 whether or not the EC column is wanted
        slow = tmp_path / "p3000.txt"
        slow.write_text("".join(f"{i} {i + 1}\n" for i in range(2999)))
        option = [] if max_k is None else ["--max-k", str(max_k)]
        for source in (ba_file, slow):
            if source == slow:
                for module in (spectral, cli):
                    monkeypatch.setattr(module, "DEFAULT_MAX_ITER", 2000)
            out = tmp_path / source.stem
            for name in (metric, "all"):
                main(["compute", "--metric", name, *option,
                      "--out", str(out / name), str(source)])
            alone = out / metric / f"{metric}.csv"
            assert alone.read_bytes() == (out / "all" / alone.name).read_bytes()
            g = parse_edge_list(source)
            params = GainParams(max_walk_length=max_k)
            if metric == "ec":
                expected = eigenvector_centrality(
                    g, 1e-12, max_k or spectral.DEFAULT_MAX_ITER).scores
            elif metric == "epg":
                expected = exponential_potential_gain(g, params).scores
            else:
                gpg = geometric_potential_gain(g, params)
                delta, expected = gpg.params["delta"], gpg.scores
                if metric == "katz" and max_k is None:
                    expected = katz_centrality(g, delta).scores
                elif metric == "katz":  # the series: Katz is 1 + delta GPG
                    expected = 1.0 + delta * gpg.scores
            scores = read_scores(alone)
            assert np.array_equal([scores[label] for label in g.labels],
                                  expected)

    def test_one_lambda1_per_run(self, tmp_path, monkeypatch):
        # on P_3000 with the cap cut to 2,000 SpMVs the EC rule stops at
        # step 1,000, before the lambda1 rule is met at step 1,536: every
        # column reports the lambda1 rule's estimate, not its own
        for module in (spectral, cli):
            monkeypatch.setattr(module, "DEFAULT_MAX_ITER", 2000)
        path = tmp_path / "p3000.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(2999)))
        assert main(["compute", "--metric", "all", "--format", "json",
                     "--out", str(tmp_path), str(path)]) == 3
        ec, gpg = (json.loads((tmp_path / f"{metric}.json").read_text())
                   for metric in ("ec", "gpg"))
        assert ec["converged"] is False
        assert ec["params"]["lambda1"] == gpg["params"]["lambda1"]

    @pytest.mark.parametrize("metric", ["gpg", "katz"])
    def test_max_k_with_unconverged_lambda1(self, tmp_path, monkeypatch,
                                            metric):
        # on P_3000 the lambda1 rule is met at step 1,536: cut to 1,000
        # SpMVs, the estimate does not converge, and neither does a series
        # that rests on it, as in the library
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 1000)
        path = tmp_path / "p3000.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(2999)))
        assert main(["compute", "--metric", metric, "--max-k", "50",
                     "--format", "json", "--out", str(tmp_path),
                     str(path)]) == 3
        payload = json.loads((tmp_path / f"{metric}.json").read_text())
        assert payload["converged"] is False
        assert not geometric_potential_gain(
            parse_edge_list(path), GainParams(max_walk_length=50)).converged

    def test_katz_truncated_by_max_k_exits_3(self, k3_file, tmp_path, capsys):
        assert main(["compute", "--metric", "katz", "--max-k", "2",
                     "--out", str(tmp_path), str(k3_file)]) == 3
        assert "metric=katz n=3 m=3 lambda1=2 iterations=2" in capsys.readouterr().err
        # GPG keeps counting a --max-k cut as converged
        assert main(["compute", "--metric", "gpg", "--max-k", "2",
                     "--out", str(tmp_path), str(k3_file)]) == 0

    def test_pagerank_cut_by_max_k_exits_3(self, ba_file, tmp_path, capsys):
        # BA(300, 3) needs more than 3 SpMVs to certify PageRank's error
        assert main(["compute", "--metric", "pr", "--max-k", "3",
                     "--out", str(tmp_path), str(ba_file)]) == 3
        assert "iterations=3 " in capsys.readouterr().err
        assert main(["compute", "--metric", "pr", "--out", str(tmp_path),
                     str(ba_file)]) == 0

    def test_katz_on_edgeless_graph(self, tmp_path):
        loops = tmp_path / "loops.txt"
        loops.write_text("1 1\n2 2\n")
        assert main(["compute", "--metric", "katz", "--out", str(tmp_path),
                     str(loops)]) == 0
        assert read_scores(tmp_path / "katz.csv") == {"1": 1.0, "2": 1.0}

    def test_json_is_the_indented_dump(self, tmp_path):
        # labels json must escape: a quote, a backslash, non-ASCII
        path = tmp_path / "escapes.txt"
        path.write_text('a"q b\\s\nb\\s \u00e9\u65e5\n\u00e9\u65e5 a"q\n'
                        "a\"q z\n", encoding="utf-8")
        out = tmp_path / "out"
        for metric in ("deg", "ec"):
            assert main(["compute", "--metric", metric, "--format", "json",
                         "--out", str(out), str(path)]) == 0
            text = (out / f"{metric}.json").read_text(encoding="utf-8")
            payload = json.loads(text)
            assert set(payload["scores"]) == {'a"q', "b\\s", "\u00e9\u65e5", "z"}
            assert text == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("labels", [(), ("a",), ('a"q', "b\\s", "\u00e9")])
    def test_json_scores_bytes(self, labels):
        head = {"metric": "x", "params": {"delta": None, "tolerance": 1e-12},
                "iterations": 3, "converged": True}
        scores = np.linspace(-1e300, 1e-300, len(labels))
        payload = dict(head, scores=dict(zip(labels, scores.tolist())))
        assert ("".join(cli._json_scores(head, labels, scores))
                == json.dumps(payload, indent=2) + "\n")

    @pytest.mark.parametrize("n,chunk", [(23, 7), (21, 7), (7, 7), (1, 7)])
    def test_json_scores_bytes_across_chunks(self, monkeypatch, n, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        head = {"metric": "x", "converged": False}
        labels = tuple(f'n"{i}' for i in range(n))
        scores = np.random.default_rng(n).standard_normal(n)
        pieces = list(cli._json_scores(head, labels, scores))
        assert len(pieces) == 2 + -(-n // chunk)
        payload = dict(head, scores=dict(zip(labels, scores.tolist())))
        assert "".join(pieces) == json.dumps(payload, indent=2) + "\n"

    def test_overflowing_series_exits_3(self, tmp_path, capsys):
        k760 = tmp_path / "k760.txt"
        k760.write_text(edges_to_text(complete_edges(760)))
        assert main(["compute", "--metric", "epg", "--out", str(tmp_path),
                     str(k760)]) == 3
        err = capsys.readouterr().err
        assert "pgain: error: exponential gain: the series overflows" in err
        # every column is computed before any file is written
        out = tmp_path / "all"
        assert main(["compute", "--metric", "all", "--out", str(out),
                     str(k760)]) == 3
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("n,chunk", [(5, 8192), (23, 7), (21, 7), (0, 7)])
    def test_csv_writer_bytes(self, tmp_path, monkeypatch, n, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(n)
        scores = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        labels = tuple(f"node{i}" for i in range(n))
        path = tmp_path / "out.csv"
        cli._write_csv(path, "node,score", _csvtext.LabelCells(labels), scores)
        lines = ["node,score"]
        lines += [f"{label},{score:.17g}" for label, score in zip(labels, scores)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("n,chunk", [(25, 8192), (23, 7), (21, 7), (0, 7)])
    def test_csv_writer_bytes_mixed_labels(self, tmp_path, monkeypatch, n,
                                           chunk):
        # non-ASCII labels of mixed widths, some wider than the cap, and
        # scores on both sides of the exact path's range
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(n)
        scores = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        even = scores[::2].size
        scores[::2] = rng.standard_normal(even) * 10.0 ** rng.integers(-12, 18, even)
        labels = tuple("\u00e9" * (i % 4) + f"n{i}"
                       + "_" * (40 if i % 6 == 1 else i % 3) for i in range(n))
        assert n == 0 or max(len(s.encode()) for s in labels) > _csvtext.LABEL_CAP
        path = tmp_path / "out.csv"
        cli._write_csv(path, "node,score", _csvtext.LabelCells(labels), scores)
        lines = ["node,score"]
        lines += [f"{label},{score:.17g}" for label, score in zip(labels, scores)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_csv_writer_to_stdout(self, capsysbinary):
        labels = ("a", "\u00e9", "c")
        print("before")  # text written first stays first
        cli._write_csv(None, "node,score", _csvtext.LabelCells(labels),
                       np.array([0.5, -1e-300, 1e20]))
        assert capsysbinary.readouterr().out == (
            f"before\nnode,score\na,0.5\n\u00e9,{-1e-300:.17g}\nc,1e+20\n"
            .encode())

    def test_csv_writer_keeps_pace_on_the_fallback(self, tmp_path):
        # every score takes CPython's %.17g: the writer may not fall more
        # than 10% behind the one it replaced, which formatted each chunk of
        # rows with one % operation (the best of interleaved runs, compared
        # again while it is behind, on a noisy machine)
        n = 100_000
        labels = tuple(str(i) for i in range(n))
        scores = 1e20 * (1 + np.random.default_rng(3).random(n))
        cells = _csvtext.LabelCells(labels)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        best_old = best_new = math.inf
        for _ in range(8):
            for _ in range(3):
                start = time.perf_counter()
                _percent_csv(old, labels, scores)
                best_old = min(best_old, time.perf_counter() - start)
                start = time.perf_counter()
                cli._write_csv(new, "node,score", cells, scores)
                best_new = min(best_new, time.perf_counter() - start)
            if best_new <= 1.1 * best_old:
                break
        assert new.read_bytes() == old.read_bytes()
        assert best_new <= 1.1 * best_old, (best_new, best_old)

    def test_csv_writer_memory_does_not_grow_with_rows(self, tmp_path):
        peaks = []
        for n in (20_000, 100_000):
            labels = tuple(str(i) for i in range(n))
            scores = np.random.default_rng(n).random(n) * 1e-4
            cells = _csvtext.LabelCells(labels)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli._write_csv(tmp_path / "out.csv", "node,score", cells, scores)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        # the 100k-row file is 2.3 MB; the writer holds a few chunks' rows
        assert (tmp_path / "out.csv").stat().st_size > 2_000_000
        assert peaks[1] < 1 << 20
        assert peaks[1] < 1.1 * peaks[0]


def _percent_csv(path, labels, scores):
    """The writer ``_write_csv`` replaced: one % operation per chunk."""
    with open(path, "w") as handle:
        handle.write("node,score\n")
        for i in range(0, len(labels), 8192):
            part = labels[i:i + 8192]
            cells = [None] * (2 * len(part))
            cells[0::2] = part
            cells[1::2] = scores[i:i + 8192].tolist()
            handle.write("%s,%.17g\n" * len(part) % tuple(cells))


@pytest.fixture
def k760_tail_file(tmp_path):
    # K_760 and a tail of three nodes: lambda1 = 759.000..., so exp(A) 1
    # exceeds float64
    path = tmp_path / "k760_tail.txt"
    path.write_text(edges_to_text(complete_edges(760))
                    + "0 760\n760 761\n761 762\n")
    return path


def test_epg_past_float64(k760_tail_file, tmp_path, capsys):
    # the sweep ranks exp(A - theta I) 1, which float64 holds; compute
    # cannot write the scores themselves
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), str(k760_tail_file)]) == 0
    rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 9 and all(float(row[5]) > 0.99 for row in rows)
    assert main(["compute", "--metric", "epg", "--out", str(tmp_path),
                 str(k760_tail_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pgain: error: exponential gain: the series overflows")


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

    def test_power_iteration_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # the path P_3000 has a tiny spectral gap: the lambda1 rule is met at
        # step 1,536, so a cap of 1,000 SpMVs (500 steps) stops it first
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 1000)
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


def test_json_payloads_hold_json_types_only(ba_file, tmp_path, monkeypatch):
    # the CLI hands each payload, params included, to json.dumps as it is:
    # a numpy scalar there would be written as a float or not at all
    payloads = []
    dumps = json.dumps

    def spy(obj, **kwargs):
        payloads.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    out = str(tmp_path / "out")
    for args in (
        ["compute", "--metric", "all", "--out", out],
        ["compute", "--metric", "katz", "--delta", "0.01", "--max-k", "3",
         "--out", out],
        ["sweep", "--grid", "0.5", "--out", f"{out}/sweep.json"],
        ["convergence", "--metric", "gpg", "--out", f"{out}/gpg.json"],
        ["convergence", "--metric", "epg", "--max-k", "4",
         "--out", f"{out}/epg.json"],
    ):
        assert main([*args, "--format", "json", str(ba_file)]) in (0, 3)

    def leaves(value):
        if isinstance(value, dict):
            assert all(type(key) is str for key in value)
            value = list(value.values())
        if type(value) in (list, tuple):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    # a compute file is two payloads, its head and its scores map
    assert len(payloads) == 17
    assert sum("params" in payload for payload in payloads) == 9
    types = {type(leaf) for payload in payloads for leaf in leaves(payload)}
    assert types <= {type(None), bool, int, float, str}, types


@pytest.mark.parametrize("command", [
    ["compute", "--metric", "gpg"],
    ["convergence", "--metric", "gpg"],
    ["convergence", "--metric", "epg"],
    ["sweep"],
    ["spectral"],
    ["compute", "--metric", "deg"],
], ids=lambda c: "-".join(a.lstrip("-") for a in c))
def test_empty_file_is_parameter_error(tmp_path, capsys, command):
    # every command that reads an edge list rejects an empty one in the
    # same words
    path = tmp_path / "empty.txt"
    path.write_text("")
    args = [*command, str(path)]
    if command[0] != "spectral":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == "pgain: error: empty graph\n"
    assert not (tmp_path / "out").is_file()


@pytest.mark.parametrize("case", [
    (["sweep", "--grid", "0.5,0.2"], "grid must be strictly ascending"),
    (["sweep", "--grid", "0,0.5"], "grid value must lie in (0, 1), got 0.0"),
    (["sweep", "--grid", "0.5,1"], "grid value must lie in (0, 1), got 1.0"),
    (["sweep", "--grid", "0.5,nan"], "grid value must lie in (0, 1), got nan"),
    (["sweep", "--grid", "nan"], "grid value must lie in (0, 1), got nan"),
    (["sweep", "--grid", "0.2,abc"], "--grid must be comma-separated"),
    (["sweep", "--alpha", "2"], "alpha must lie in (0, 1)"),
    (["sweep", "--tol", "-1"], "tolerance must be finite and positive"),
    (["convergence", "--metric", "gpg", "--tol", "-1"],
     "tolerance must be finite and positive"),
    (["convergence", "--metric", "epg", "--max-k", "0"],
     "--max-k must be at least 1"),
    (["convergence", "--metric", "gpg", "--delta", "-1"],
     "delta must be positive"),
    (["convergence", "--metric", "gpg", "--delta-star", "1.5"],
     "delta_star must lie in (0, 1)"),
    (["spectral", "--tol", "nan"], "tolerance must be finite and positive"),
    (["spectral", "--tol", "-1"], "tolerance must be finite and positive"),
    (["spectral", "--max-iter", "0"], "--max-iter must be at least 1"),
], ids=lambda case: "-".join(a.lstrip("-") for a in case[0]))
def test_bad_parameter_is_rejected_before_reading(tmp_path, capsys, monkeypatch,
                                                  case):
    # a missing input would exit 1 (i/o error) if it were read first
    args, message = case
    calls = count_spmv(monkeypatch)
    assert main([*args, str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pgain: error:") and message in err, err
    assert calls == []


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

    def test_er_edge_probability_bounds(self, capsys):
        for params, out in ((["5", "0"], ""), (["1", "1"], ""),
                            (["3", "1"], "0 1\n0 2\n1 2\n")):
            assert main(["generate", "er", *params]) == 0
            assert capsys.readouterr().out == out

    def test_ba_edge_count(self, tmp_path):
        out = tmp_path / "ba.txt"
        assert main(["generate", "ba", "200", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        # clique of 4 (6 edges) + 196 nodes * 3 attachments
        assert len(out.read_text().strip().split("\n")) == 594

    def test_bad_params(self, capsys):
        # one arity rule for every kind: extra parameters are an error too;
        # the library's reason, where it gave one, follows the parameters
        reasons = {"er 5 2": "edge probability must lie in [0, 1], got 2.0",
                   "ba 2 3": "need n >= m0 + 1, got n=2, m0=3"}
        for params in (["grid", "3"], ["er", "5", "0.5", "junk"], ["er", "5"],
                       ["er", "5", "2"], ["ba", "5", "2", "junk"],
                       ["ba", "2", "3"], ["star", "0"], ["complete", "x"]):
            assert main(["generate", *params]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"pgain: error: bad parameters for {params[0]!r}")
            if " ".join(params) in reasons:
                assert err.endswith(
                    f": {params[1:]}: {reasons[' '.join(params)]}\n"), err

    def test_ring_and_grid(self, capsys):
        assert main(["generate", "ring", "5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 5
        assert main(["generate", "star", "4"]) == 0
        assert capsys.readouterr().out == "0 1\n0 2\n0 3\n0 4\n"
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
        full = lanczos(g)
        calls = count_spmv(monkeypatch)
        assert main(["spectral", str(ba_file)]) == 0
        out = capsys.readouterr().out
        # pass 1 alone: m steps where the replay would make it 2m - 1
        assert f"lambda1={full.lambda1:.17g} " in out
        assert f" iterations={len(calls)} " in out
        assert len(calls) == (full.iterations + 1) // 2


def fresh_env(**variables):
    """The environment of a fresh interpreter that imports this pgain."""
    src = str(Path(pgain.__file__).resolve().parents[1])
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
        result = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "ec.csv").exists()

    def test_outputs_do_not_depend_on_the_blas_threads(self, tmp_path):
        # every dot product sums in one order; threaded BLAS would split
        # the long ones of BA(20000, 3) by the thread count
        ba = tmp_path / "ba.txt"
        main(["generate", "ba", "20000", "3", "--seed", "1", "--out", str(ba)])
        written = []
        for threads in ("1", "2"):
            env = fresh_env(OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / threads
            outputs = {}
            for args in (["compute", "--metric", "all", "--out", str(out)],
                         ["convergence", "--metric", "gpg"], ["spectral"]):
                result = subprocess.run(
                    [sys.executable, "-m", "pgain.cli", *args, str(ba)],
                    env=env, capture_output=True, timeout=300)
                assert result.returncode == 0, result.stderr
                outputs[args[0]] = result.stdout
            outputs.update((f.name, f.read_bytes()) for f in out.iterdir())
            written.append(outputs)
        assert len(written[0]) == 3 + 6  # stdout and the six columns
        assert written[0] == written[1]
