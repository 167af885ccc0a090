"""Each module imports on its own, in a fresh interpreter, so that no
import cycle hides behind the order in which another module loads them;
and only ``crypto`` imports the ``cryptography`` package."""

import ast
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


def _imports_cryptography(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "cryptography" for name in names):
            return True
    return False


def test_only_crypto_imports_cryptography():
    importers = [name for name in MODULES
                 if _imports_cryptography(ast.parse((SRC / "vaxcred" / f"{name}.py").read_text()))]
    assert importers == ["crypto"]


def test_the_import_scan_sees_both_forms():
    assert _imports_cryptography(ast.parse("import cryptography.exceptions"))
    assert _imports_cryptography(ast.parse("from cryptography.hazmat import primitives"))
    assert not _imports_cryptography(ast.parse("from .crypto import verify\nimport hashlib"))
