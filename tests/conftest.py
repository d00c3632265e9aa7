import os
import shutil

import pytest

from rotor import _kernels


@pytest.fixture
def backends():
    """The kernel backends a test runs on in turn: "c" wherever a compiler
    and Python.h are found, so a broken build fails the test, and "numpy".
    The backend set before the test is restored after it."""
    before = _kernels.get_backend()
    buildable = shutil.which("cc") and os.path.exists(
        os.path.join(_kernels._INCLUDE, "Python.h"))
    yield (["c"] if buildable else []) + ["numpy"]
    _kernels.set_backend(before)


@pytest.fixture(scope="session")
def suite_report():
    """One run of the whole verification suite at threads=1, shared by
    every test that reads its results."""
    from rotor.verify import run_suite
    return run_suite(threads=1)
