#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``pgain`` CLI.

    python3 perfbench/run.py --workload compute-all-ba --seed 1 --seconds 25 --trace 0

Runs the checkout's own ``pgain`` (``python -m pgain.cli`` with ``src`` on
the path) as child processes, one at a time (a closed loop with one client),
on inputs generated from ``--seed``. Every invocation's outputs are checked
against an independent scipy reference. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics. Without ``--workload``/``--trace`` it runs
every workload both ways. Every metric is printed by name with its unit;
the last line of standard output is one JSON object, and the full record
goes to ``.perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
SETUP_PER_INVOCATION = 4  # set-up probes after every untraced invocation
SETUP_PROBES = 12  # at least, per untraced run
SETUP_CODE = (
    "import sys, pgain.cli, pgain.backend;"
    " sys.stdout.write(pgain.__file__ + '\\n' + pgain.backend.BACKEND)"
)
LAYER_MODULES = ("graph", "spectral", "gain", "baselines", "analysis", "cli")
# Per-layer metrics that are exact counts: they must repeat between runs.
COUNTS = ("graph.spmv_calls", "spectral.calls", "spectral.spmv_calls",
          "gain.calls", "gain.spmv_calls", "baselines.calls",
          "baselines.spmv_calls", "analysis.spearman_calls", "cli.bytes_written")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no pgain, wrong pgain, ...)."""


# One BLAS thread: the program's own work is single-threaded, and on a shared
# 2-core machine an idle-spinning BLAS pool made `compute --metric all` run
# 3-4x slower whenever anything else used the second core.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs children through launcher.py, so their peak RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        """Run one child to completion; wall time is spawn to exit."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "env": child_env(), "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def check_pgain_file(path: str) -> None:
    if Path(path).resolve() != (ROOT / "src" / "pgain" / "__init__.py").resolve():
        raise SetupError(f"imported pgain from {path}, not the checkout under test")


def setup_probe(launcher, scratch: Path) -> tuple[float, str]:
    """Interpreter start + ``import pgain.cli`` + backend selection, then
    exit; also checks that the checkout's pgain is the one imported."""
    sample = launcher.spawn([sys.executable, "-c", SETUP_CODE],
                            scratch / "setup.out", scratch / "setup.err")
    if sample["exit_code"] != 0:
        raise SetupError("cannot import pgain.cli: "
                         + (scratch / "setup.err").read_text()[-2000:])
    path, backend = (scratch / "setup.out").read_text().split("\n")
    check_pgain_file(path)
    return sample["wall_s"], backend


def environment(backend: str) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pgain").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    try:  # glibc takes the cache size from cpuid
        done = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                              capture_output=True, text=True)
        l3 = int(done.stdout) if done.returncode == 0 else None
    except (OSError, ValueError):
        l3 = None
    return {
        "backend": backend,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "l3_bytes": l3,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def load_reference(workload, edges) -> dict:
    path = WORK / "reference" / f"{workload.name}-{edges.structure}.npz"
    if path.exists():
        with np.load(path) as data:
            return dict(data)
    ref = reference.REFERENCES[workload.name](edges)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.stem + ".tmp.npz")
    np.savez(tmp, **ref)
    os.replace(tmp, path)
    return ref


class Bench:
    """One workload on one input: runs invocations and checks their outputs
    against the reference. Outputs whose bytes already passed are accepted
    by digest."""

    def __init__(self, launcher, workload, input_path, edges, ref, scratch):
        self.launcher = launcher
        self.workload = workload
        self.input_path = input_path
        self.edges = edges
        self.ref = ref
        self.scratch = scratch
        self.passed: set[str] = set()

    def argv(self, out_dir: Path) -> list[str]:
        fill = {"input": str(self.input_path), "out": str(out_dir)}
        return [arg.format(**fill) for arg in self.workload.argv]

    def check(self, out_dir: Path) -> tuple[list[str], str]:
        texts = {}
        for name in self.workload.outputs:
            path = out_dir / name
            if not path.exists():
                return [f"missing output {name}"], ""
            texts[name] = path.read_bytes()
        digest = hashlib.sha256(b"\0".join(texts[n] for n in sorted(texts))).hexdigest()
        if digest in self.passed:
            return [], digest
        problems = reference.check(
            self.workload.name, {n: t.decode() for n, t in texts.items()},
            self.edges.labels, self.ref)
        if not problems:
            self.passed.add(digest)
        return problems, digest

    def invoke(self, prefix: list[str], out_dir: Path, tag: str) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in out_dir.iterdir():
            path.unlink()
        sample = self.launcher.spawn(prefix + self.argv(out_dir),
                                     self.scratch / f"{tag}.out",
                                     self.scratch / f"{tag}.err")
        code = sample["exit_code"]
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            problems, sample["digest"] = self.check(out_dir)
        sample["problems"] = problems
        sample["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        return sample

    def untraced(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Invocations until their wall times add up to ``seconds``. Set-up
        probes run between them, so that ``setup_s`` samples the same
        stretch of time as ``wall_s``."""
        out_dir = WORK / "out" / self.workload.name
        cli = [sys.executable, "-m", "pgain.cli"]
        samples, setup = [], []
        while not samples or sum(s["wall_s"] for s in samples) < seconds:
            samples.append(self.invoke(cli, out_dir, "cli"))
            setup += [setup_probe(self.launcher, self.scratch)[0]
                      for _ in range(SETUP_PER_INVOCATION)]
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(self.launcher, self.scratch)[0])
        return samples, setup

    def traced(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Alternate untraced and traced invocations; the traced outputs must
        be byte-identical to the untraced ones, and the counts must repeat."""
        plain_dir = WORK / "out" / self.workload.name
        traced_dir = WORK / "out" / f"{self.workload.name}-traced"
        cli = [sys.executable, "-m", "pgain.cli"]
        spans_path = self.scratch / "spans.json"
        tracer = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
                  str(spans_path), "--"]
        samples, layer_runs = [], []
        while not samples or sum(s["wall_s"] for s in samples) < seconds:
            base = self.invoke(cli, plain_dir, "cli")
            spans_path.unlink(missing_ok=True)
            sample = self.invoke(tracer, traced_dir, "traced")
            samples += [base, sample]
            if sample["problems"]:
                continue
            if not base["problems"] and sample["digest"] != base["digest"]:
                sample["problems"].append("traced outputs differ from untraced outputs")
            if not spans_path.exists():
                sample["problems"].append("traced run wrote no spans")
                continue
            record = json.loads(spans_path.read_text())
            check_pgain_file(record["pgain_file"])
            sample["missing"] = record["missing"]
            if record["probe"] is None:
                sample["problems"].append("traced run parsed no graph")
                continue
            imports = import_self_s((self.scratch / "traced.err").read_text())
            metrics = layer_metrics(record, imports)
            metrics["cli.bytes_written"] = sample["bytes_written"]
            metrics["proc.cpu_s"] = base["cpu_s"]
            metrics["trace.overhead_s"] = sample["wall_s"] - base["wall_s"]
            layer_runs.append(metrics)
            if any(metrics[c] != layer_runs[0][c] for c in COUNTS):
                sample["problems"].append("counts differ between traced runs")
        return samples, layer_runs


# -- per-layer aggregation ---------------------------------------------------------


def import_self_s(stderr_text: str) -> dict:
    """Import self time of each layer's module, from ``-X importtime``."""
    modules = {f"pgain.{layer}": layer for layer in LAYER_MODULES}
    out = {}
    for line in stderr_text.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            self_us, _, module = (part.strip() for part in line[12:].split("|"))
            if module in modules:
                out[modules[module]] = int(self_us) * 1e-6
    return out


def layer_metrics(record: dict, imports: dict) -> dict:
    """Aggregate one traced run's spans into the per-layer metrics.

    A layer's self time is its spans' time minus their child spans, plus
    the import of its module; calls count entries into the layer from
    outside it; spmv_calls count SpMV spans whose parent is in the layer.
    """
    spans = record["spans"]
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]] += span["end"] - span["start"]
    layers = {layer: {"self_s": imports.get(layer, 0.0), "calls": 0, "spmv_calls": 0}
              for layer in LAYER_MODULES}
    parse_s = spmv_s = 0.0
    spearman = spmv_calls = 0
    for i, span in enumerate(spans):
        layer = layers[span["layer"]]
        duration = span["end"] - span["start"]
        layer["self_s"] += duration - children[i]
        parent = spans[span["parent"]] if span["parent"] >= 0 else None
        if parent is None or parent["layer"] != span["layer"]:
            layer["calls"] += 1
        if span["name"] == "graph.spmv":
            spmv_calls += 1
            spmv_s += duration
            if parent is not None:
                layers[parent["layer"]]["spmv_calls"] += 1
        elif span["name"] == "graph.parse_edge_list" and (
                parent is None or parent["name"] != span["name"]):
            parse_s += duration
        elif span["name"] == "analysis.spearman_rho":
            spearman += 1
    probe = record["probe"]
    # indptr + indices, x gathered once per nonzero, out written once
    bytes_per_spmv = probe["csr_bytes"] + 8 * probe["nnz"] + 8 * probe["n"]
    metrics = {
        "graph.parse_s": parse_s,
        "graph.validate_s": probe["validate_s"],
        "graph.rss_after_parse_mb": record["rss_after_parse_kb"] / 1024.0,
        "graph.spmv_calls": spmv_calls,
        "graph.spmv_ms": 1e3 * spmv_s / max(spmv_calls, 1),
        "kernel.spmv_ms": 1e3 * probe["kernel_spmv_s"],
        "kernel.bytes_per_spmv_computed": bytes_per_spmv,
        "kernel.gbps_computed": bytes_per_spmv / probe["kernel_spmv_s"] / 1e9,
    }
    for name in ("spectral", "gain", "baselines"):
        for key in ("self_s", "calls", "spmv_calls"):
            metrics[f"{name}.{key}"] = layers[name][key]
    metrics["analysis.self_s"] = layers["analysis"]["self_s"]
    metrics["analysis.spearman_calls"] = spearman
    metrics["cli.self_s"] = layers["cli"]["self_s"]
    return metrics


# -- one run -----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def run_one(launcher, units, workload, seed, seconds, trace, size) -> dict:
    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    _, backend = setup_probe(launcher, scratch)
    env = environment(backend)
    input_path, edges, digest = inputs.cached_input(
        WORK / "inputs", workload.source, size, seed)
    bench = Bench(launcher, workload, input_path, edges,
                  load_reference(workload, edges), scratch)
    print(f"perfbench: workload={workload.name} seed={seed} size={size}"
          f" trace={trace} backend={backend} nproc={env['nproc']}"
          f" l3_bytes={env['l3_bytes']} numpy={env['numpy']} git={env['git_sha']}")
    print(f"perfbench: input {input_path.relative_to(ROOT)} sha256={digest}",
          flush=True)

    if trace:
        samples, layer_runs = bench.traced(seconds)
        setup_times = []
        metrics = ({name: first if name in COUNTS
                    else median([run[name] for run in layer_runs])
                    for name, first in layer_runs[0].items()} if layer_runs else {})
        count = len(layer_runs)
    else:
        samples, setup_times = bench.untraced(seconds)
        walls = [s["wall_s"] for s in samples]
        metrics = {
            "wall_s": median(walls),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
            "setup_s": median(setup_times),
        }
        count = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    for sample in samples:
        for problem in sample["problems"]:
            print(f"perfbench: FAILED {problem}")
    for name, value in metrics.items():
        n = len(setup_times) if name == "setup_s" else count
        print(f"{name} = {value:.6g} {units[name]} (median of {n})")
    print(f"fail_ratio = {failed}/{len(samples)} = {failed / len(samples):.3g}")
    if not trace:
        print(f"wall_s max = {max(walls):.6g} s over {len(walls)} samples"
              " (diagnostic)")
    missing = sorted({m for s in samples for m in s.get("missing", ())})
    if missing:
        print(f"perfbench: not traced (missing): {', '.join(missing)}")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=seed, size=size,
                  trace=trace, seconds=seconds, input_sha256=digest,
                  environment=env, setup_s_samples=setup_times,
                  samples=samples, missing=missing)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-{size}-s{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer (default both)")
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="'tiny' shrinks every input for a smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pgain" / "__init__.py").is_file():
        print(f"perfbench: no pgain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = [(name, trace)
            for name in (sorted(inputs.WORKLOADS) if args.workload == "all"
                         else [args.workload])
            for trace in ((0, 1) if args.trace is None else (args.trace,))]
    try:
        with Launcher() as launcher:
            results = [run_one(launcher, units, inputs.WORKLOADS[name], args.seed,
                               args.seconds, trace, args.size)
                       for name, trace in runs]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        for (name, trace), result in zip(runs, results):
            print(json.dumps({"workload": name, "trace": trace, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
