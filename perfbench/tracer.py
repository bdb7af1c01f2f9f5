"""Run one ``pgain`` CLI command with spans around every layer's public
functions, then dump the spans and two layer probes as JSON.

Usage: python -X importtime perfbench/tracer.py SPANS.json -- <pgain args>

Every public function of a layer module is wrapped wherever it is bound,
including names other modules imported with ``from ... import``, so a call
is attributed to the module that owns the function. ``Graph.spmv`` gets a
span of its own: a layer's SpMV count is the number of SpMV spans whose
parent span belongs to it. A name the benchmark expects but the program no
longer has is recorded in ``missing`` instead of failing, so the trace
survives refactors. Spans stay in memory until the command returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time

LAYERS = ("graph", "spectral", "gain", "baselines", "analysis", "cli")
EXPECTED = {
    "graph": ("parse_edge_list",),
    "spectral": ("power_iteration", "eigenvector_centrality"),
    "gain": ("geometric_potential_gain", "exponential_potential_gain",
             "gain_with_trace"),
    "baselines": ("degree_centrality", "katz_centrality", "pagerank"),
    "analysis": ("delta_sweep", "spearman_rho"),
    "cli": ("main",),
}
PROBE_REPEATS = 30


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.graph = None  # the last graph parse_edge_list returned
        self.rss_after_parse_kb = 0

    def wrap(self, layer: str, name: str, fn, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = {"layer": layer, "name": name,
                    "parent": stack[-1] if stack else -1}
            spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = __import__(f"pgain.{layer}", fromlist=["_"])
            except ImportError:
                self.missing.append(f"pgain.{layer}")
        originals = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    hook = self._parsed if name == "parse_edge_list" else None
                    originals[id(fn)] = self.wrap(
                        layer, f"{layer}.{name}", fn, hook)
        for layer, names in EXPECTED.items():
            module = modules.get(layer)
            for name in names:
                if not hasattr(module, name):
                    self.missing.append(f"{layer}.{name}")
        # Rebind every alias, in every loaded pgain module.
        for modname, module in list(sys.modules.items()):
            if modname == "pgain" or modname.startswith("pgain."):
                for name, value in list(vars(module).items()):
                    if id(value) in originals:
                        setattr(module, name, originals[id(value)])
        graph_cls = getattr(modules.get("graph"), "Graph", None)
        if graph_cls is not None and hasattr(graph_cls, "spmv"):
            graph_cls.spmv = self.wrap("graph", "graph.spmv", graph_cls.spmv)
        else:
            self.missing.append("graph.Graph.spmv")

    def _parsed(self, graph) -> None:
        self.graph = graph
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.rss_after_parse_kb = usage.ru_maxrss


def probe(graph) -> dict:
    """Time the Graph constructor on the parsed arrays (median of 5) and
    the raw kernel on the parsed CSR (median of PROBE_REPEATS)."""
    import numpy as np

    from pgain import backend
    from pgain.graph import Graph

    validate = []
    for _ in range(5):
        start = time.perf_counter()
        Graph(indptr=graph.indptr, indices=graph.indices, labels=graph.labels)
        validate.append(time.perf_counter() - start)
    x = np.random.default_rng(0).random(graph.node_count)
    out = np.empty_like(x)
    kernel = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        backend.spmv_csr(graph.indptr, graph.indices, x, 1.0, out)
        kernel.append(time.perf_counter() - start)
    return {
        "validate_s": float(np.median(validate)),
        "kernel_spmv_s": float(np.median(kernel)),
        "n": graph.node_count,
        "nnz": int(graph.indices.size),
        "csr_bytes": int(graph.indptr.nbytes + graph.indices.nbytes),
    }


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <pgain args>")
    import pgain
    import pgain.cli

    tracer = Tracer()
    tracer.install()
    code = pgain.cli.main(sys.argv[3:])
    record = {
        "exit_code": code,
        "pgain_file": pgain.__file__,
        "backend": pgain.BACKEND,
        "missing": tracer.missing,
        "spans": tracer.spans,
        "rss_after_parse_kb": tracer.rss_after_parse_kb,
        "probe": probe(tracer.graph) if tracer.graph is not None else None,
    }
    with open(spans_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
