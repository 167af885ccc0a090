"""Each module imports on its own, in a fresh interpreter, so that no
import cycle hides behind the order in which another module loads them."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "vaxcred").glob("*.py") if p.stem != "__init__")


def test_the_modules_are_found():
    assert "cli" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    done = subprocess.run([sys.executable, "-c", f"import vaxcred.{module}"],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
