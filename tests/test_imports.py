"""Each module imports on its own, in a fresh interpreter, so that no
import cycle hides behind the order in which another module loads them;
only ``crypto`` imports the ``cryptography`` package, and within it only
``crypto.verify`` calls an Ed25519 verify; ``service`` imports neither
``socketserver`` nor ``asyncio``; no module but ``canonical`` checks a
map's key set by hand."""

import ast
import os
import pathlib
import re
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


def _imports(tree, package: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == package for name in names):
            return True
    return False


def _source(module):
    return ast.parse((SRC / "vaxcred" / f"{module}.py").read_text())


def test_only_crypto_imports_cryptography():
    importers = [name for name in MODULES if _imports(_source(name), "cryptography")]
    assert importers == ["crypto"]


def _sites(tree, match) -> list:
    """The dotted name of the function or class around each node of
    ``tree`` that ``match`` accepts ("" at module level)."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if match(child):
                sites.append(where)
            visit(child, where)

    visit(tree, "")
    return sites


def _verify_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "verify")


def _public_key_use(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "Ed25519PublicKey"


def test_crypto_verifies_ed25519_in_one_place():
    """``crypto.verify`` remembers the triples it has verified. A second
    Ed25519 verify call site would bypass that memory or duplicate it."""
    tree = _source("crypto")
    assert _sites(tree, _verify_call) == ["verify"]
    assert _sites(tree, _public_key_use) == ["verify"]


def test_the_call_site_scan_sees_nested_calls():
    tree = ast.parse("class A:\n    def f(self):\n        key.verify(s, m)\n"
                     "k = Ed25519PublicKey.from_public_bytes(b)\nverify(vk, m, s)\n")
    assert _sites(tree, _verify_call) == ["A.f"]
    assert _sites(tree, _public_key_use) == [""]


@pytest.mark.parametrize("package", ["socketserver", "asyncio"])
def test_service_imports_no_server_framework(package):
    """The signing server is one selector loop. ``socketserver`` would
    bring back a thread per connection, and ``asyncio`` would weigh on
    every ``vaxcred`` command, since ``cli`` imports ``service``."""
    assert not _imports(_source("service"), package)


def test_the_import_scan_sees_both_forms():
    assert _imports(ast.parse("import cryptography.exceptions"), "cryptography")
    assert _imports(ast.parse("from cryptography.hazmat import primitives"), "cryptography")
    assert not _imports(ast.parse("from .crypto import verify\nimport hashlib"), "cryptography")


# a map's key set checked by hand, or a per-field helper beside it
_HAND_SHAPE_CHECK = re.compile(r"\bset\(\w+\)\s*[!=]=\s*\{|\b_expect_\w*")


def _hand_shape_checks(text: str) -> list:
    return [number for number, line in enumerate(text.splitlines(), 1)
            if _HAND_SHAPE_CHECK.search(line)]


def test_map_shapes_are_checked_only_by_canonical_fields():
    """Every reader of a map from outside checks its keys with
    ``canonical.fields``, so the rule is written once."""
    found = {module: _hand_shape_checks((SRC / "vaxcred" / f"{module}.py").read_text())
             for module in MODULES if module != "canonical"}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_the_shape_scan_sees_each_form():
    text = ('if set(obj) != {"a"}:\nif set(inner) == {"b"}:\n'
            'x = _expect_bytes(obj, "k")\nkeys = set(obj)\n')
    assert _hand_shape_checks(text) == [1, 2, 3]
