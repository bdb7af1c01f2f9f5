"""Build script: compiles the C SpMV kernel when a C compiler is available.

``src/pgain/_ckernels.c`` needs only a compiler and the Python headers;
``python setup.py build_ext --inplace`` builds it next to the sources. The
package works without it (a numpy fallback is selected at import time), so
build failures are demoted to warnings.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            warnings.warn(f"skipping compiled kernels: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping compiled kernel {ext.name}: {exc}")


setup(
    cmdclass={"build_ext": OptionalBuildExt},
    ext_modules=[Extension("pgain._ckernels", ["src/pgain/_ckernels.c"],
                           extra_compile_args=["-O3"])],
)
