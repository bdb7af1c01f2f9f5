"""Pure-numpy CSR kernels, used when the compiled extension is unavailable.

``spmv_csr`` runs on a sliced-ELL plan of the CSR: Saad's jagged diagonals
(1989, SIAM J. Sci. Stat. Comput. 10) in windows of rows, as in SELL-C-sigma
(Kreutzer et al. 2014, SIAM J. Sci. Comput. 36). The rows are cut into
windows of ``WINDOW``, so a row's place in its window fits ``uint16``, and
each window's rows are sorted by degree, descending and stable. For j <
``COLUMNS``, the j-th neighbour of every row with more than j neighbours
is stored contiguously (``int32``, or ``int64`` when n >= 2**31). A call
then runs one ``np.take`` of ``x`` and one contiguous ``np.add`` per
neighbour column, so each sorted row adds its neighbours one at a time,
from 0.0, in their sorted order. Rows longer than ``COLUMNS`` finish in one
``np.bincount`` per window, whose weights start with each row's partial
sum and then run over its remaining neighbours in order; ``np.bincount``
adds its weights in input order, starting from 0.0. So every row is summed
sequentially over its sorted neighbours, exactly as the compiled kernel's
loop does, and the two kernels give bit-identical results. The sums go
back to row order through each row's ``uint16`` place in the sorted
window.

The plan holds about 4 bytes per stored entry and 2 per row. It is built
once per CSR that cannot change and freed with it. A call allocates
buffers of one window's length, so nothing of the size of ``indices`` is
allocated per call.
"""

import weakref

import numpy as np

WINDOW = 1 << 15  # rows per window of the numpy SpMV, so places fit uint16
COLUMNS = 32  # neighbour columns per window; longer rows end in a bincount

# id(indices) -> (weakref to its indptr, their plan), for every live CSR
# that cannot change; an entry is dropped when its indices is freed
_plans: dict = {}


def spmv_csr(indptr, indices, x, scale, out):
    """out = scale * (A @ x) for a CSR adjacency with unit values."""
    windows, rows = _plan(indptr, indices)
    # per-call buffers, so concurrent calls on one graph share no state
    acc = np.empty(rows)
    w = np.empty(rows)
    for r0, r1, place, columns, tail in windows:
        s = acc[:r1 - r0]
        s[:] = 0.0
        for column in columns:
            k = column.size
            # Graph() has checked the indices; mode="raise" would buffer
            np.take(x, column, out=w[:k], mode="clip")
            np.add(s[:k], w[:k], out=s[:k])
        if tail is not None:
            ids, far = tail
            long = ids.size - far.size
            weights = np.empty(ids.size)
            weights[:long] = s[:long]
            np.take(x, far, out=weights[long:], mode="clip")
            s[:long] = np.bincount(ids, weights=weights, minlength=long)
        s *= scale
        np.take(s, place, out=out[r0:r1], mode="clip")


def _plan(indptr, indices):
    """The windows ``(r0, r1, place, columns, tail)`` of rows ``r0:r1``
    and the longest window's row count.

    ``place`` gives each row's position in its window's sorted order,
    ``columns`` the neighbour columns, and ``tail`` (None when no row is
    longer than ``COLUMNS``) the bincount's row ids and the neighbours past
    the last column. A CSR whose ``indptr`` and ``indices`` are both
    read-only and own their data cannot change under the plan, so its plan
    is kept until ``indices`` is freed, one per such CSR; any other is
    planned anew on every call. Threads that race here at worst plan the
    same CSR twice, and either plan is right."""
    key = id(indices)  # no other live array has it
    entry = _plans.get(key)
    if entry is not None and entry[0]() is indptr:
        return entry[1]
    plan = _build_plan(indptr, indices)
    if all(not a.flags.writeable and a.flags.owndata for a in (indptr, indices)):
        if entry is None:
            weakref.finalize(indices, _plans.pop, key, None)
        _plans[key] = (weakref.ref(indptr), plan)
    return plan


def _build_plan(indptr, indices):
    n = indptr.size - 1
    id_type = np.int32 if n < 1 << 31 else np.int64
    windows = []
    for r0 in range(0, n, WINDOW):
        r1 = min(r0 + WINDOW, n)
        degree = np.diff(indptr[r0:r1 + 1])
        order = np.argsort(-degree, kind="stable")
        place = np.empty(r1 - r0, dtype=np.uint16)
        place[order] = np.arange(r1 - r0, dtype=np.uint16)
        degree = degree[order]
        starts = indptr[r0:r1][order]
        # the rows of more than j neighbours lead the sorted window
        counts = np.searchsorted(-degree, -np.arange(min(COLUMNS, degree[0])))
        columns = [indices[starts[:k] + j].astype(id_type)
                   for j, k in enumerate(counts.tolist())]
        tail = None
        long = int(np.count_nonzero(degree > COLUMNS))
        if long:
            # the long rows' neighbours past the columns, row after row:
            # the tail's t-th entry is at its row's start + COLUMNS + t,
            # less the number of tail entries of the rows before it
            extra = degree[:long] - COLUMNS
            shift = np.repeat(starts[:long] + COLUMNS - (np.cumsum(extra) - extra),
                              extra)
            far = indices[shift + np.arange(shift.size)].astype(id_type)
            rows = np.arange(long, dtype=np.uint16)
            tail = (np.concatenate([rows, np.repeat(rows, extra)]), far)
        windows.append((r0, r1, place, columns, tail))
    return windows, min(n, WINDOW)
