"""The compiled and numpy kernels must agree bit for bit on every graph
shape."""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgain import Graph, backend, delta_sweep, _pykernels
from pgain.analysis import SWEEP_COLUMNS
from pgain.generate import barabasi_albert_edges, erdos_renyi_edges
from pgain.graph import _csr

from oracle import neighbors

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "pgain" / "_ckernels.c"


@pytest.fixture(scope="module")
def ckernels(tmp_path_factory):
    """The compiled kernel: the built extension if it imports, else
    ``_ckernels.c`` compiled into a temporary directory (nothing is written
    into the checkout). Skips only when it cannot be compiled here."""
    try:
        from pgain import _ckernels
        return _ckernels
    except ImportError:
        pass
    setuptools = pytest.importorskip("setuptools")
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import CompileError, LinkError, PlatformError

    ext = setuptools.Extension("pgain._ckernels", [str(KERNEL_SOURCE)],
                               extra_compile_args=["-O3"])
    cmd = build_ext(setuptools.Distribution({"ext_modules": [ext]}))
    cmd.build_lib = cmd.build_temp = str(tmp_path_factory.mktemp("ckernels"))
    cmd.ensure_finalized()
    try:
        cmd.run()
    except (CompileError, LinkError, PlatformError) as exc:
        pytest.skip(f"cannot compile the kernel here: {exc}")
    spec = importlib.util.spec_from_file_location(
        ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_kernel(kernel, g, x, scale):
    out = np.empty(g.node_count)
    kernel(g.indptr, g.indices, np.ascontiguousarray(x), scale, out)
    return out


def sum_rows_in_order(g, x, scale):
    """scale * (A @ x), each row summed from 0.0 over its sorted neighbours
    one addition at a time: the order both kernels keep."""
    expected = np.empty(g.node_count)
    for i in range(g.node_count):
        acc = 0.0
        for j in neighbors(g, i).tolist():
            acc += float(x[j])
        expected[i] = scale * acc
    return expected


def test_backend_selected():
    assert backend.BACKEND in ("cython", "python")


@pytest.mark.parametrize("seed", range(4))
def test_python_kernel_matches_graph_spmv(seed):
    g = Graph.from_edges(erdos_renyi_edges(40, 0.15, seed=seed))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.node_count)
    got = run_kernel(_pykernels.spmv_csr, g, x, 1.7)
    np.testing.assert_allclose(got, g.spmv(x, scale=1.7), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_backends_agree(ckernels, seed):
    g = Graph.from_edges(barabasi_albert_edges(60, 2, seed=seed))
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal(g.node_count)
    fast = run_kernel(ckernels.spmv_csr, g, x, 0.31)
    slow = run_kernel(_pykernels.spmv_csr, g, x, 0.31)
    assert np.array_equal(fast, slow)


def test_backends_agree_on_delta_sweep(ckernels, monkeypatch):
    # the whole sweep, Lanczos and Katz solves included, on each kernel
    g = Graph.from_edges(barabasi_albert_edges(2000, 3, seed=1))
    results = []
    for kernel in (ckernels.spmv_csr, _pykernels.spmv_csr):
        monkeypatch.setattr(backend, "spmv_csr", kernel)
        results.append(delta_sweep(g))
    fast, slow = results
    assert fast.converged and slow.converged
    assert fast.lambda1 == slow.lambda1
    for column in SWEEP_COLUMNS:
        np.testing.assert_allclose(fast.rho[column], slow.rho[column],
                                   rtol=0, atol=0)


@pytest.mark.parametrize("edges", [
    barabasi_albert_edges(300, 3, seed=2),
    erdos_renyi_edges(200, 0.05, seed=3),
    [(0, 2), (0, 3), (1, 1), (2, 3), (4, 4)],  # nodes 1 and 4 have no edges
], ids=["ba", "er", "empty-rows"])
def test_compiled_kernel_sums_rows_in_order(ckernels, edges):
    # the numpy kernel too: both sum each row from 0.0 over its sorted
    # neighbours, one addition at a time
    g = Graph.from_edges(edges)
    x = np.random.default_rng(7).standard_normal(g.node_count)
    expected = sum_rows_in_order(g, x, 0.37)
    for kernel in (ckernels.spmv_csr, _pykernels.spmv_csr):
        assert np.array_equal(run_kernel(kernel, g, x, 0.37), expected)


WINDOW = _pykernels.WINDOW


def assert_same_bits(got, want):
    # np.array_equal calls -0.0 equal to 0.0; the kernels' bits must match
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("edges", [
    # a star whose hub row is longer than a window, between short rows; its
    # leaves spill into the second window
    [(0, 1), (1, 2)] + [(2, leaf) for leaf in range(3, WINDOW + 100)],
    # more than two windows of loop-only (empty) rows, between edges: the
    # second window has only empty rows
    [(0, 1)] + [(v, v) for v in range(2, 70_002)] + [(70_002, 1), (70_003, 0)],
    # rows of exactly COLUMNS, COLUMNS + 1 and 3 * COLUMNS neighbours
    [(0, leaf) for leaf in range(1, _pykernels.COLUMNS + 1)]
    + [(100, leaf) for leaf in range(1, _pykernels.COLUMNS + 2)]
    + [(200, leaf) for leaf in range(50, 50 + 3 * _pykernels.COLUMNS)],
    # a hub in the third window only, after two windows of a path
    [(v, v + 1) for v in range(2 * WINDOW + 10)]
    + [(2 * WINDOW + 20, leaf) for leaf in range(2 * WINDOW + 30, 2 * WINDOW + 500)],
    # a last window of only empty rows, after a hub in the first
    [(0, leaf) for leaf in range(1, 200)]
    + [(v, v) for v in range(200, 2 * WINDOW + 5)],
], ids=["row-longer-than-block", "70k-empty-rows", "degree-32-and-33",
        "hub-in-a-later-window", "empty-last-window"])
def test_python_kernel_block_edges(edges):
    g = Graph.from_edges(edges)
    x = np.random.default_rng(3).standard_normal(g.node_count)
    assert_same_bits(run_kernel(_pykernels.spmv_csr, g, x, 0.37),
                     sum_rows_in_order(g, x, 0.37))


def test_python_kernel_hub_with_a_negative_partial_sum():
    # the bincount that ends a long row starts from its partial sum over
    # the neighbour columns, here negative, and adds the rest in order
    cols = _pykernels.COLUMNS
    g = Graph.from_edges([(0, leaf) for leaf in range(1, 3 * cols)])
    x = np.full(g.node_count, 0.1)
    x[1:cols + 1] = -np.random.default_rng(4).uniform(1.0, 3.0, cols)
    x[cols + 1:] = np.random.default_rng(5).uniform(0.0, 1e-3, 2 * cols - 1)
    got = run_kernel(_pykernels.spmv_csr, g, x, 1.3)
    assert got[0] < 0
    assert_same_bits(got, sum_rows_in_order(g, x, 1.3))


def test_kernels_sum_signed_zeros_from_zero(ckernels):
    # 0.0 + -0.0 is 0.0: a row of -0.0 neighbours sums to 0.0, not -0.0
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)] + [(4, v) for v in range(5, 45)])
    x = np.full(g.node_count, -0.0)
    want = sum_rows_in_order(g, x, 2.0)
    assert not np.signbit(want).any()
    for kernel in (ckernels.spmv_csr, _pykernels.spmv_csr):
        assert_same_bits(run_kernel(kernel, g, x, 2.0), want)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(WINDOW + 1, 5 * WINDOW // 2),
       mean_degree=st.floats(0.0, 4.0),
       hubs=st.lists(st.integers(0, 3 * _pykernels.COLUMNS), max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_python_kernel_sums_rows_in_order_across_windows(n, mean_degree, hubs, seed):
    # random shapes over two or three windows: sparse rows, empty rows and
    # hubs on either side of COLUMNS, anywhere
    rng = np.random.default_rng(seed)
    m = int(mean_degree * n / 2)
    us = [rng.integers(0, n, m)] + [np.full(d, rng.integers(0, n)) for d in hubs]
    vs = [rng.integers(0, n, m)] + [rng.integers(0, n, d) for d in hubs]
    g = Graph(labels=tuple(map(str, range(n))),
              **_csr(np.concatenate(us), np.concatenate(vs), n))
    x = rng.standard_normal(n)
    assert_same_bits(run_kernel(_pykernels.spmv_csr, g, x, 0.37),
                     sum_rows_in_order(g, x, 0.37))


def test_python_kernel_replans_a_writeable_indptr():
    # a writeable indptr may change between calls: no plan may outlive it
    indptr = np.array([0, 1, 2, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    x = np.array([2.0, 3.0, 5.0])
    out = np.empty(3)
    _pykernels.spmv_csr(indptr, indices, x, 1.0, out)
    np.testing.assert_array_equal(out, [3.0, 2.0, 0.0])
    indptr[1:] = [0, 1, 2]  # node 0 loses its edge, node 2 takes it
    indices[:] = [2, 1]
    _pykernels.spmv_csr(indptr, indices, x, 1.0, out)
    np.testing.assert_array_equal(out, [0.0, 5.0, 3.0])


def test_python_kernel_replans_a_writeable_indices():
    # the plan copies the neighbour ids: a writeable indices may change
    # between calls under a read-only indptr, and no plan may outlive it
    indptr = _read_only(np.array([0, 1, 2, 2], dtype=np.int64))
    indices = np.array([1, 0], dtype=np.int64)
    x = np.array([2.0, 3.0, 5.0])
    out = np.empty(3)
    _pykernels.spmv_csr(indptr, indices, x, 1.0, out)
    np.testing.assert_array_equal(out, [3.0, 2.0, 0.0])
    indices[:] = [2, 2]  # nodes 0 and 1 now point at node 2
    _pykernels.spmv_csr(indptr, indices, x, 1.0, out)
    np.testing.assert_array_equal(out, [5.0, 5.0, 0.0])


def test_python_kernel_keeps_a_plan_per_graph(monkeypatch):
    # products alternating between two graphs plan each graph once, and a
    # dropped graph's plan goes with it
    builds = []
    build = _pykernels._build_plan
    monkeypatch.setattr(_pykernels, "_build_plan",
                        lambda *arrays: builds.append(1) or build(*arrays))
    graphs = [Graph.from_edges(barabasi_albert_edges(3000, 3, seed=seed))
              for seed in (1, 2)]
    xs = [np.random.default_rng(k).standard_normal(g.node_count)
          for k, g in enumerate(graphs)]
    for _ in range(3):
        for g, x in zip(graphs, xs):
            assert_same_bits(run_kernel(_pykernels.spmv_csr, g, x, 0.5),
                             sum_rows_in_order(g, x, 0.5))
    assert len(builds) == 2
    keys = [id(g.indices) for g in graphs]
    assert all(key in _pykernels._plans for key in keys)
    del g, graphs[1]
    assert keys[0] in _pykernels._plans and keys[1] not in _pykernels._plans
    run_kernel(_pykernels.spmv_csr, graphs[0], xs[0], 0.5)
    assert len(builds) == 2


def test_concurrent_spmv_on_one_graph(monkeypatch):
    # more threads than cores, switching often, on one graph and one plan
    # of the numpy kernel: a buffer shared between calls would mix their
    # products
    monkeypatch.setattr(backend, "spmv_csr", _pykernels.spmv_csr)
    g = Graph.from_edges(barabasi_albert_edges(20_000, 3, seed=4))
    xs = np.random.default_rng(8).standard_normal((4, g.node_count))
    expected = [g.spmv(x, scale=0.5) for x in xs]
    got = [[] for _ in xs]

    def work(k):
        for _ in range(20):
            got[k].append(g.spmv(xs[k], scale=0.5))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(xs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, runs in zip(expected, got):
        assert len(runs) == 20
        assert all(np.array_equal(want, r) for r in runs)


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("bad", [
    lambda g, x, out: (g.indptr.astype(np.int32), g.indices, x, out),
    lambda g, x, out: (g.indptr, g.indices.astype(np.float64), x, out),
    lambda g, x, out: (g.indptr, g.indices, np.repeat(x, 2)[::2], out),
    lambda g, x, out: (g.indptr, g.indices, x, _read_only(out)),
    lambda g, x, out: (g.indptr, g.indices, x[:-1], out),
], ids=["int32-indptr", "float64-indices", "strided-x", "read-only-out",
         "short-x"])
def test_compiled_kernel_rejects_bad_calls(ckernels, bad):
    g = Graph.from_edges(barabasi_albert_edges(50, 2, seed=1))
    indptr, indices, x, out = bad(g, np.ones(g.node_count), np.empty(g.node_count))
    with pytest.raises((ValueError, BufferError)):
        ckernels.spmv_csr(indptr, indices, x, 1.0, out)


def test_python_kernel_empty_rows():
    # a trailing isolated node ends the last block with an empty row
    g = Graph.from_edges([(0, 1), (2, 2)])
    assert g.node_count == 3
    x = np.array([2.0, 3.0, 5.0])
    got = run_kernel(_pykernels.spmv_csr, g, x, 1.0)
    np.testing.assert_array_equal(got, [3.0, 2.0, 0.0])


def test_python_kernel_isolated_node_between_rows():
    # regression: an empty row must not truncate its neighbors' segments
    g = Graph.from_edges([(0, 2), (0, 3), (1, 1), (2, 3)])
    got = run_kernel(_pykernels.spmv_csr, g, np.ones(4), 1.0)
    np.testing.assert_array_equal(got, [2.0, 2.0, 2.0, 0.0])


def test_python_kernel_empty_graph():
    g = Graph.from_edges([(0, 0)])
    got = run_kernel(_pykernels.spmv_csr, g, np.array([7.0]), 2.0)
    np.testing.assert_array_equal(got, [0.0])


def test_kernel_bitwise_deterministic():
    g = Graph.from_edges(erdos_renyi_edges(50, 0.2, seed=9))
    x = np.random.default_rng(5).standard_normal(g.node_count)
    runs = [g.spmv(x, scale=0.125) for _ in range(3)]
    assert all(np.array_equal(runs[0], r) for r in runs[1:])
