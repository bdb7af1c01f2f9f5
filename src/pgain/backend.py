"""Kernel backend selection.

The compiled kernel, ``_ckernels`` (plain C built from ``_ckernels.c`` by
``setup.py``), is used when it imports, and the numpy kernel otherwise.
``BACKEND`` and the benchmark records name the compiled kernel ``cython``,
after the toolchain that used to build it. The compiled kernel loops over
the CSR rows; the numpy kernel adds one neighbour column of a sliced-ELL
plan at a time, built once per CSR (see ``_pykernels``). Both sum each row
from 0.0 over its sorted neighbours, one addition at a time, so their
products are bit-identical and no result depends on the backend, nor on
the BLAS thread count: the solvers' dot products use ``vectors.dot``, not
BLAS.
"""

try:
    from pgain import _ckernels as _impl

    BACKEND = "cython"
except ImportError:
    from pgain import _pykernels as _impl

    BACKEND = "python"

spmv_csr = _impl.spmv_csr
