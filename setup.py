from setuptools import Extension, setup

# The compiled tableau kernel is optional: when it does not build, the
# pure-Python kernel is selected at import time.
setup(ext_modules=[
    Extension("qotp_lab.backends._tableau_core",
              ["src/qotp_lab/backends/_tableau_core.c"], optional=True),
])
