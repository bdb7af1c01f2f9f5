"""Seeded benchmark inputs, generated here rather than by ``pgain.generate``
so that a change to the program cannot change what it is measured on.

Each generator returns the edge-list text plus the edge set it encodes, as
integer endpoint arrays over ``labels``. The reference solvers in
``reference.py`` build their matrices from those arrays and never parse the
file, so the check is independent of ``pgain``'s parser.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np


BA_STRUCTURE_SEED = 0


@dataclass(frozen=True)
class EdgeInput:
    text: str
    labels: list[str]  # label of each node index used by ``src``/``dst``
    src: np.ndarray  # one entry per distinct undirected edge, src != dst
    dst: np.ndarray
    structure: str  # names the edge set; references are cached by it


def _uniforms(rng, batch=1 << 16):
    while True:
        yield from rng.random(batch).tolist()


def barabasi_albert(n: int, m0: int, seed: int) -> EdgeInput:
    """Preferential attachment with integer labels.

    The edge set is fixed (``BA_STRUCTURE_SEED``): a clique on m0 + 1 nodes,
    then every new node joins m0 distinct earlier nodes drawn with
    probability proportional to degree. ``seed`` draws the presentation: the
    labels (a permutation of 0..n-1), the line order and each line's
    orientation. So every seed costs the program the same solver work; the
    power-iteration count alone ranges over 160-236 across BA graphs, which
    would hide a 10% regression in the run-to-run spread.
    """
    structure_rng = np.random.default_rng([BA_STRUCTURE_SEED, 1])
    src, dst = _preferential_attachment(n, m0, structure_rng)
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(n)
    order = rng.permutation(src.size)
    flip = rng.random(src.size) < 0.5
    first = np.where(flip, dst, src)[order]
    second = np.where(flip, src, dst)[order]
    text = "".join(f"{perm[a]} {perm[b]}\n"
                   for a, b in zip(first.tolist(), second.tolist()))
    return EdgeInput(text, [str(label) for label in perm.tolist()], src, dst,
                     f"ba-{n}-{m0}-{BA_STRUCTURE_SEED}")


def _preferential_attachment(n: int, m0: int, rng) -> tuple[np.ndarray, np.ndarray]:
    src: list[int] = []
    dst: list[int] = []
    for a in range(m0 + 1):
        for b in range(a + 1, m0 + 1):
            src.append(a)
            dst.append(b)
    # ``ends`` lists every edge endpoint, so a uniform pick from it is a
    # degree-proportional pick of a node.
    ends = np.empty(2 * (len(src) + (n - m0 - 1) * m0), dtype=np.int64)
    ends[: 2 * len(src)] = np.ravel(np.column_stack([src, dst]))
    filled = 2 * len(src)
    draws = _uniforms(rng)
    for node in range(m0 + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m0:
            chosen.add(int(ends[int(next(draws) * filled)]))
        for target in sorted(chosen):
            src.append(node)
            dst.append(target)
            ends[filled] = node
            ends[filled + 1] = target
            filled += 2
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def konect_er(n: int, mean_degree: float, seed: int) -> EdgeInput:
    """Uniform random graph in KONECT's ``out.*`` layout.

    The file has ``%`` header lines, hashed string labels, trailing weight
    and timestamp fields, about 1% of edges repeated reversed, a few
    self-loops, and lines in random order, so the parser's general path,
    comment skipping, duplicate collapsing and loop dropping all run.
    """
    rng = np.random.default_rng([seed, 2])
    m = int(n * mean_degree / 2)
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    u, v = u[u != v], v[u != v]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    lo, hi = np.unique(np.column_stack([lo, hi]), axis=0).T
    edges_u, edges_v = lo.copy(), hi.copy()
    flip = rng.random(lo.size) < 0.5
    edges_u[flip], edges_v[flip] = hi[flip], lo[flip]

    dup = rng.choice(lo.size, size=max(1, lo.size // 100), replace=False)
    loops = rng.choice(n, size=7, replace=False)
    line_u = np.concatenate([edges_u, edges_v[dup], loops])
    line_v = np.concatenate([edges_v, edges_u[dup], loops])
    order = rng.permutation(line_u.size)
    line_u, line_v = line_u[order], line_v[order]
    weights = rng.integers(1, 10, size=line_u.size).tolist()
    stamps = rng.integers(1_000_000_000, 1_700_000_000, size=line_u.size).tolist()

    labels = [
        hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).hexdigest()
        for i in range(n)
    ]
    if len(set(labels)) != n:
        raise RuntimeError("label hash collision; pick another seed")
    head = f"% sym unweighted\n% {line_u.size} {n} {n}\n"
    body = "".join(
        f"{labels[a]} {labels[b]} {w} {t}\n"
        for a, b, w, t in zip(line_u.tolist(), line_v.tolist(), weights, stamps)
    )
    return EdgeInput(head + body, labels, lo, hi, f"konect-{n}-{mean_degree}-{seed}")


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # name of the input the workload reads
    argv: tuple[str, ...]  # CLI arguments; {input} and {out} are filled in
    outputs: tuple[str, ...]  # files under {out} that the check reads


SIZES = {
    # size -> input -> generator parameters; "tiny" is for the smoke test
    "full": {"ba": (100_000, 3), "konect": (300_000, 6.0)},
    "tiny": {"ba": (2_000, 3), "konect": (5_000, 6.0)},
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compute-all-ba", "ba",
            ("compute", "--metric", "all", "{input}", "--out", "{out}"),
            ("deg.csv", "ec.csv", "pr.csv", "katz.csv", "gpg.csv", "epg.csv"),
        ),
        Workload(
            "sweep-ba", "ba",
            ("sweep", "{input}", "--out", "{out}/sweep.csv"),
            ("sweep.csv",),
        ),
        Workload(
            "convergence-konect", "konect",
            ("convergence", "--metric", "epg", "{input}",
             "--out", "{out}/convergence.csv"),
            ("convergence.csv",),
        ),
    )
}


def make_input(source: str, size: str, seed: int) -> EdgeInput:
    params = SIZES[size][source]
    if source == "ba":
        return barabasi_albert(*params, seed)
    return konect_er(*params, seed)


CACHE_ENTRIES = 8  # the oldest inputs beyond this many are deleted


def cached_input(cache: Path, source: str, size: str, seed: int):
    """Write the input once per (source, size, seed); return its path, its
    edge set and the SHA-256 of the file."""
    folder = cache / f"{source}-{size}-{seed}"
    path = folder / "edges.txt"
    arrays = folder / "edges.npz"
    meta = folder / "meta.json"
    if meta.exists():
        info = json.loads(meta.read_text())
        if hashlib.sha256(path.read_bytes()).hexdigest() == info["sha256"]:
            with np.load(arrays) as data:
                edges = EdgeInput("", info["labels"], data["src"], data["dst"],
                                  info["structure"])
            return path, edges, info["sha256"]
    folder.mkdir(parents=True, exist_ok=True)
    edges = make_input(source, size, seed)
    raw = edges.text.encode()
    path.write_bytes(raw)
    np.savez(arrays, src=edges.src, dst=edges.dst)
    digest = hashlib.sha256(raw).hexdigest()
    tmp = meta.with_suffix(".tmp")
    tmp.write_text(json.dumps({"labels": edges.labels, "sha256": digest,
                               "structure": edges.structure}))
    os.replace(tmp, meta)  # written last: its presence marks a complete entry
    entries = sorted(cache.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_ENTRIES:]:
        shutil.rmtree(old)
    return path, edges, digest
