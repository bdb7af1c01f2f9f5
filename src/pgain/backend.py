"""Kernel backend selection.

The compiled kernel, ``_ckernels`` (plain C built from ``_ckernels.c`` by
``setup.py``), is used when importable. Set PGAIN_BACKEND to ``python`` to
force the numpy fallback, or ``cython`` to fail loudly when the extension is
missing (default ``auto``). ``BACKEND`` and the benchmark records name the
compiled kernel ``cython``, after the toolchain that used to build it.
"""

import os

_requested = os.environ.get("PGAIN_BACKEND", "auto").lower()
if _requested not in {"auto", "cython", "python"}:
    raise ImportError(
        f"PGAIN_BACKEND must be one of auto|cython|python, got {_requested!r}"
    )

if _requested == "python":
    from pgain import _pykernels as _impl

    BACKEND = "python"
else:
    try:
        from pgain import _ckernels as _impl

        BACKEND = "cython"
    except ImportError:
        if _requested == "cython":
            raise
        from pgain import _pykernels as _impl

        BACKEND = "python"

spmv_csr = _impl.spmv_csr
