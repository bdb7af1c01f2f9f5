"""Independent scipy references for the workloads' outputs, and the checks.

References are built from the generator's edge arrays (never from
``pgain``'s parser or solvers) with textbook scipy methods: ``eigsh`` for
the leading eigenpair, conjugate gradients for Katz, ``expm_multiply`` for
exp(A)1, a plain power iteration for PageRank, and ``spearmanr`` for rank
correlations. They are computed once per input and cached; they are not
timed.

Each ``check_*`` function returns a list of problems, empty when the output
passes. The tolerances leave about three orders of magnitude over the
errors measured at the commit that added this benchmark; do not loosen
them to pass a defect.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.stats import spearmanr

SCORE_RTOL = 1e-8  # relative L2 error per compute metric
RHO_ATOL = 1e-6  # absolute error per sweep correlation
EPS_ATOL = 1e-10  # absolute error per convergence epsilon(k)
EPS_LAST_MAX = 1e-11  # the last epsilon must reach this
SWEEP_GRID = np.linspace(0.1, 0.9, 9)
SWEEP_COLUMNS = ("deg", "ec", "pr", "katz", "epg")
DELTA_STAR = 0.5  # the CLI's default for katz and gpg
ALPHA = 0.85  # the CLI's default PageRank damping


def adjacency(edges) -> sp.csr_matrix:
    n = len(edges.labels)
    ones = np.ones(2 * edges.src.size)
    rows = np.concatenate([edges.src, edges.dst])
    cols = np.concatenate([edges.dst, edges.src])
    return sp.csr_matrix((ones, (rows, cols)), shape=(n, n))


def _lambda1_ec(a):
    vals, vecs = sla.eigsh(a, k=1, which="LA", tol=0)
    v = vecs[:, 0]
    v = v * np.sign(v.sum())
    return float(vals[0]), v / np.linalg.norm(v)


def _katz(a, delta):
    m = sp.identity(a.shape[0], format="csr") - delta * a
    x, info = sla.cg(m, np.ones(a.shape[0]), rtol=1e-14, atol=0.0, maxiter=10_000)
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return x


def _pagerank(a, alpha=ALPHA):
    n = a.shape[0]
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    dangling = deg == 0
    p = np.full(n, 1.0 / n)
    for _ in range(10_000):
        new = (1.0 - alpha) / n + alpha * (a @ (p * inv) + p[dangling].sum() / n)
        done = np.abs(new - p).sum() < 1e-15
        p = new
        if done:
            break
    return p / p.sum()


def _epg(a):
    return a @ sla.expm_multiply(a, np.ones(a.shape[0]))


def compute_all_reference(edges) -> dict:
    a = adjacency(edges)
    lam, ec = _lambda1_ec(a)
    katz = _katz(a, DELTA_STAR / lam)
    return {
        "deg": np.asarray(a.sum(axis=1)).ravel(),
        "ec": ec,
        "pr": _pagerank(a),
        "katz": katz,
        "gpg": a @ katz,
        "epg": _epg(a),
    }


def sweep_reference(edges) -> dict:
    a = adjacency(edges)
    lam, ec = _lambda1_ec(a)
    fixed = {
        "deg": np.asarray(a.sum(axis=1)).ravel(),
        "ec": ec,
        "pr": _pagerank(a),
        "epg": _epg(a),
    }
    rho = np.empty((SWEEP_GRID.size, len(SWEEP_COLUMNS)))
    for row, star in enumerate(SWEEP_GRID):
        katz = _katz(a, star / lam)
        gpg = a @ katz
        for col, name in enumerate(SWEEP_COLUMNS):
            other = katz if name == "katz" else fixed[name]
            rho[row, col] = spearmanr(gpg, other).statistic
    return {"rho": rho}


def convergence_reference(edges) -> dict:
    """epsilon(k) = ||EPG - S_k|| / ||EPG|| for the partial sums S_k of
    sum_k A^k 1 / (k-1)!, until S_k stops changing in float64."""
    a = adjacency(edges)
    limit = _epg(a)
    norm = np.linalg.norm(limit)
    term = a @ np.ones(a.shape[0])
    partial = term.copy()
    eps = [np.linalg.norm(limit - partial) / norm]
    k = 1
    while np.linalg.norm(term) > 1e-18 * np.linalg.norm(partial) and k < 10_000:
        term = (a @ term) / k
        partial += term
        k += 1
        eps.append(np.linalg.norm(limit - partial) / norm)
    return {"eps": np.asarray(eps)}


REFERENCES = {
    "compute-all-ba": compute_all_reference,
    "sweep-ba": sweep_reference,
    "convergence-konect": convergence_reference,
}


# -- checks -------------------------------------------------------------------


def check(workload: str, texts: dict, labels: list[str], ref: dict) -> list[str]:
    """Problems with one invocation's outputs (``texts``: file name -> text)."""
    if workload == "compute-all-ba":
        problems = []
        for name, text in texts.items():
            metric = name.split(".")[0]
            problems += check_scores(metric, text, labels, ref[metric])
        return problems
    if workload == "sweep-ba":
        return check_sweep(texts["sweep.csv"], ref["rho"])
    return check_convergence(texts["convergence.csv"], ref["eps"])


def read_scores(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != "node,score":
        raise ValueError("missing node,score header")
    labels, values = [], []
    for line in lines[1:]:
        label, value = line.split(",")
        labels.append(label)
        values.append(float(value))
    return labels, np.asarray(values)


def check_scores(metric: str, text: str, labels: list[str],
                 ref: np.ndarray) -> list[str]:
    """Scores for every node of the input, within SCORE_RTOL relative L2."""
    try:
        got_labels, got = read_scores(text)
    except ValueError as exc:
        return [f"{metric}: unreadable output ({exc})"]
    position = {label: i for i, label in enumerate(labels)}
    if len(got_labels) != len(labels) or set(got_labels) != set(labels):
        return [f"{metric}: node set differs from the input"]
    expected = ref[[position[label] for label in got_labels]]
    err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
    if not err <= SCORE_RTOL:
        return [f"{metric}: relative L2 error {err:.3g} > {SCORE_RTOL:g}"]
    return []


def check_sweep(text: str, rho: np.ndarray) -> list[str]:
    lines = text.splitlines()
    header = "delta_star," + ",".join(f"rho_{c}" for c in SWEEP_COLUMNS)
    if not lines or lines[0] != header or len(lines) != 1 + SWEEP_GRID.size:
        return ["sweep: unexpected layout"]
    problems = []
    for row, line in enumerate(lines[1:]):
        cells = line.split(",")
        try:
            values = [float(cell) for cell in cells]
        except ValueError:
            return [f"sweep: row {row + 1} has an empty or bad cell"]
        if len(values) != 1 + len(SWEEP_COLUMNS):
            return [f"sweep: row {row + 1} has {len(values)} cells"]
        if abs(values[0] - SWEEP_GRID[row]) > 1e-12:
            problems.append(f"sweep: row {row + 1} delta_star {values[0]}")
        for col, name in enumerate(SWEEP_COLUMNS):
            err = abs(values[1 + col] - rho[row, col])
            if not err <= RHO_ATOL:
                problems.append(
                    f"sweep: delta_star={SWEEP_GRID[row]:g} rho_{name} off by {err:.3g}"
                )
    return problems


def check_convergence(text: str, eps_ref: np.ndarray) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "k,epsilon" or len(lines) < 3:
        return ["convergence: unexpected layout"]
    try:
        rows = [line.split(",") for line in lines[1:]]
        ks = [int(k) for k, _ in rows]
        eps = np.asarray([float(e) for _, e in rows])
    except ValueError:
        return ["convergence: unreadable row"]
    if ks != list(range(1, len(ks) + 1)):
        return ["convergence: k is not 1, 2, 3, ..."]
    # Past the end of the reference the partial sums no longer change.
    ref = eps_ref[np.minimum(np.arange(len(ks)), eps_ref.size - 1)]
    problems = []
    worst = int(np.argmax(np.abs(eps - ref)))
    err = abs(eps[worst] - ref[worst])
    if not err <= EPS_ATOL:
        problems.append(f"convergence: epsilon({worst + 1}) off by {err:.3g}")
    if not eps[-1] <= EPS_LAST_MAX:
        problems.append(f"convergence: last epsilon {eps[-1]:.3g} > {EPS_LAST_MAX:g}")
    return problems
