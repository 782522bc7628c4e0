from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    # No Cython: the pure-Python kernel is selected at import time.
    ext_modules = []
else:
    ext_modules = cythonize(
        [
            Extension(
                "qotp_lab.backends._tableau_core",
                ["src/qotp_lab/backends/_tableau_core.pyx"],
                optional=True,
            )
        ],
        language_level="3",
    )

setup(ext_modules=ext_modules)
