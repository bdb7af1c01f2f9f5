#!/usr/bin/env python3
"""Benchmark the compiled CSR kernel against the numpy fallback.

The SpMV kernel is the hot inner loop of every metric here (each series term
is one product), so this is the number that decides end-to-end runtime.

Usage:
    python benchmarks/bench_spmv.py [--sizes 10000,100000,300000] [--m0 3]
                                    [--iters 50] [--repeats 5]
"""

import argparse
import time

import numpy as np

from pgain import Graph, GainParams, geometric_potential_gain
from pgain import _pykernels
from pgain.generate import barabasi_albert_edges

try:
    from pgain import _ckernels
except ImportError:
    _ckernels = None


def bench_kernel(kernel, g, iters, repeats):
    x = np.ones(g.node_count)
    out = np.empty(g.node_count)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            kernel(g.indptr, g.indices, x, 0.03, out)
            x, out = out, x
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def bench_end_to_end(g, iters, repeats):
    params = GainParams(delta_star=0.5, max_walk_length=iters, tolerance=None)
    from pgain.spectral import lanczos

    [estimate] = lanczos(g, [(1e-6, 200)])
    lam = estimate.lambda1
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        geometric_potential_gain(g, params, lambda1=lam)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10000,100000,300000")
    parser.add_argument("--m0", type=int, default=3)
    parser.add_argument("--iters", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]

    header = f"{'n':>8} {'nnz':>9} {'python ms':>10} {'cython ms':>10} {'speedup':>8} {'gain run ms':>12}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        g = Graph.from_edges(barabasi_albert_edges(n, args.m0, seed=1))
        t_py = bench_kernel(_pykernels.spmv_csr, g, args.iters, args.repeats)
        if _ckernels is not None:
            t_cy = bench_kernel(_ckernels.spmv_csr, g, args.iters, args.repeats)
            speedup = f"{t_py / t_cy:7.2f}x"
            cy_ms = f"{t_cy * 1e3:10.3f}"
        else:
            speedup, cy_ms = "      n/a", "       n/a"
        t_run = bench_end_to_end(g, args.iters, args.repeats)
        print(
            f"{n:8d} {g.indices.size:9d} {t_py * 1e3:10.3f} {cy_ms} {speedup}"
            f" {t_run * 1e3:12.1f}"
        )
    if _ckernels is None:
        print("\ncompiled kernels not built; showing the numpy fallback only")


if __name__ == "__main__":
    main()
