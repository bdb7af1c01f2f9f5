"""Kernel backend selection.

The compiled kernel, ``_ckernels`` (plain C built from ``_ckernels.c`` by
``setup.py``), is used when it imports, and the numpy kernel otherwise.
``BACKEND`` and the benchmark records name the compiled kernel ``cython``,
after the toolchain that used to build it.
"""

try:
    from pgain import _ckernels as _impl

    BACKEND = "cython"
except ImportError:
    from pgain import _pykernels as _impl

    BACKEND = "python"

spmv_csr = _impl.spmv_csr
