"""Pure-numpy CSR kernels, used when the compiled extension is unavailable.

``spmv_csr`` sums each row with ``np.bincount``, which adds its weights in
input order starting from 0.0: every row is summed sequentially over its
sorted neighbours, exactly as the compiled kernel's loop does, so the two
kernels give bit-identical results.

The rows are cut into blocks of about ``BLOCK`` stored entries (a row is
never split; a longer row is a block of its own) and at most 65,536 rows.
The plan of a CSR holds, for every stored entry, its row's index within its
block as ``uint16``: 2 bytes per stored entry, built once per ``indptr``.
A call then gathers one block of ``x`` at a time into a buffer of one
block's length, so nothing of the size of ``indices`` is allocated per
call.
"""

import weakref

import numpy as np

BLOCK = 1 << 14  # stored entries per block of the numpy SpMV
_MAX_ROWS = 1 << 16  # rows per block, so local row ids fit uint16

# (weakref to the last cached indptr, its plan): one slot, replaced whole
_cached = (None, None)


def spmv_csr(indptr, indices, x, scale, out):
    """out = scale * (A @ x) for a CSR adjacency with unit values."""
    cuts, local, width = _plan(indptr)
    # per-call buffers, so concurrent calls on one graph share no state
    w = np.empty(width)
    ids = np.empty(width, dtype=np.intp)
    for r0, r1, a, b in cuts:
        k = b - a
        # Graph() has checked the indices; mode="raise" would buffer
        np.take(x, indices[a:b], out=w[:k], mode="clip")
        ids[:k] = local[a:b]
        sums = np.bincount(ids[:k], weights=w[:k], minlength=r1 - r0)
        np.multiply(sums, scale, out=out[r0:r1])


def _plan(indptr):
    """The blocks ``(r0, r1, a, b)`` of rows ``r0:r1`` and entries ``a:b``,
    every entry's row within its block, and the longest block's length.

    An ``indptr`` that is read-only and owns its data cannot change under
    the plan, so the last one's plan is kept; any other is planned anew on
    every call. Threads that race here at worst plan the same ``indptr``
    twice, and either plan is right."""
    global _cached
    ref, plan = _cached
    if ref is not None and ref() is indptr:
        return plan
    plan = _build_plan(indptr)
    if not indptr.flags.writeable and indptr.flags.owndata:
        _cached = (weakref.ref(indptr), plan)
    return plan


def _build_plan(indptr):
    n = indptr.size - 1
    cuts = []
    r0 = 0
    while r0 < n:
        a = int(indptr[r0])
        r1 = int(np.searchsorted(indptr, a + BLOCK, side="right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + _MAX_ROWS, n)
        cuts.append((r0, r1, a, int(indptr[r1])))
        r0 = r1
    local = np.empty(int(indptr[-1]), dtype=np.uint16)
    for r0, r1, a, b in cuts:
        local[a:b] = np.repeat(np.arange(r1 - r0, dtype=np.uint16),
                               np.diff(indptr[r0:r1 + 1]))
    width = max((b - a for _, _, a, b in cuts), default=0)
    return cuts, local, width
