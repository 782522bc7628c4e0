"""Fixtures shared by the test modules: the compiled tableau kernel and the
choice of kernel lane."""

import importlib.machinery
import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from qotp_lab.backends import _tableau_pure


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, built from the committed ``_tableau_core.c``
    with the system C compiler, warning-free under strict C99, and loaded
    from a temp dir."""
    cc = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not (Path(include) / "Python.h").exists():
        pytest.skip("building the compiled kernel needs cc and Python.h")
    source = Path(_tableau_pure.__file__).with_name("_tableau_core.c")
    target = tmp_path_factory.mktemp("kernel") / (
        "_tableau_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-O2",
                    "-shared", "-fPIC", f"-I{include}",
                    str(source), "-o", str(target)],
                   check=True, capture_output=True)
    loader = importlib.machinery.ExtensionFileLoader("_tableau_core",
                                                     str(target))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("_tableau_core", loader))
    loader.exec_module(module)
    return module.TableauKernel


@pytest.fixture
def select_lane(request, monkeypatch):
    """``select_lane("pure")`` or ``select_lane("compiled")`` points
    ``TableauState`` at that kernel lane for the rest of the test."""
    from qotp_lab.backends import tableau

    def select(lane):
        kernel = (request.getfixturevalue("compiled_kernel")
                  if lane == "compiled" else _tableau_pure.TableauKernel)
        monkeypatch.setattr(tableau, "TableauKernel", kernel)

    return select
