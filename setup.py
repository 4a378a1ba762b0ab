"""Build script: pure-python package + the optional native kernel tier.

The ``repro.native._hubjoin`` C extension is a *strictly optional*
accelerator (the native tier behind :mod:`repro.backend`: the hub-label
query kernels, the AH region search and the AH query; the pure-python
code answers bit-identically).
Without a build here, :mod:`repro.native` compiles the same source on
first import when a compiler is present; a module built here imports
first.  The build therefore must never fail on a box without a working
C toolchain: every compile/link error is caught and reported as a
warning, the install completes as a pure build and :mod:`repro.native`
degrades at import time.  ``REPRO_NATIVE=0`` turns a built extension
off at run time.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """A build_ext that downgrades toolchain failures to warnings."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler at all
            warnings.warn(
                f"skipping the repro.native._hubjoin extension ({exc!r}); "
                "the pure-python kernels remain fully functional"
            )

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure
            warnings.warn(
                f"could not build {ext.name} ({exc!r}); "
                "the pure-python kernels remain fully functional"
            )


setup(
    ext_modules=[
        Extension(
            "repro.native._hubjoin",
            sources=["src/repro/native/_hubjoin.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
