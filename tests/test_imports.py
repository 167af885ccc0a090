"""Each module imports on its own, in a fresh interpreter, so that no
import cycle hides behind the order in which another module loads them;
only ``crypto`` imports the ``cryptography`` package, and within it only
``crypto.verify`` calls an Ed25519 verify; no module imports ``hashlib``,
``hmac`` or ``secrets``, and running vaxcred loads none of them;
``service`` imports neither ``socketserver`` nor ``asyncio``; no module
but ``canonical`` checks a map's key set by hand; only the two handlers
that answer a fault on purpose catch every exception; and every public
name is referenced by a deployed path."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"
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


@pytest.mark.parametrize("package", ["hashlib", "hmac", "secrets"])
def test_no_module_imports_a_second_openssl(package):
    """``hashlib`` and ``hmac`` load the system's libcrypto, a second
    OpenSSL beside the one ``cryptography`` carries (``secrets`` imports
    both): about 4 MB of resident memory in every process."""
    assert [name for name in MODULES if _imports(_source(name), package)] == []


def test_running_vaxcred_loads_one_openssl():
    """Imports, a scenario, a sealed key and a signing round trip, in a
    fresh interpreter, load none of ``hashlib``, ``hmac`` or ``secrets``,
    which a stdlib module imported on the way could load unseen by the
    source scan above."""
    done = subprocess.run([sys.executable, str(pathlib.Path(__file__).parent / "one_openssl.py")],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


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


# -- catch-alls ----------------------------------------------------------------

# the handlers that answer any fault on purpose: the signing server's reply
# "internal" and the command line's "internal error:" (ROADMAP item 3 logs both)
CATCH_ALL_SITES = ["cli.main", "service.handle_request_bytes"]
_BROAD = ("Exception", "BaseException")


def _catch_all(node) -> bool:
    """An ``except`` of Exception, of BaseException or bare, that does not
    end by re-raising: clean-up that re-raises masks nothing."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    broad = node.type is None or any(
        isinstance(name, ast.Name) and name.id in _BROAD for name in caught)
    last = node.body[-1]
    return broad and not (isinstance(last, ast.Raise) and last.exc is None)


def test_only_the_fault_answering_handlers_catch_everything():
    """Anywhere else a catch-all reports a fault as refused input (a
    ``decode`` or ``garbled`` answer for a bug in a reader), so a fault
    must propagate there."""
    found = sorted(f"{module}.{site}" for module in MODULES
                   for site in _sites(_source(module), _catch_all))
    assert found == CATCH_ALL_SITES


def test_the_catch_all_scan_sees_each_form():
    tree = ast.parse(
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "def g():\n"
        "    try:\n        f()\n    except:\n        return 1\n"
        "    try:\n        f()\n    except (ValueError, BaseException) as exc:\n        log(exc)\n"
        "    try:\n        f()\n    except BaseException:\n        undo()\n        raise\n"
        "    try:\n        f()\n    except ValueError:\n        pass\n")
    assert _sites(tree, _catch_all) == ["", "g", "g"]


# -- every public name has a deployed caller -------------------------------------

# public names that no deployed path (``src/`` or ``perfbench/``) references,
# each kept for its reason; the list may only shrink
UNREFERENCED = {
    "registry.Registry.dismantle":
        "the privacy model erases the registry once a campaign ends; "
        "its command comes with ROADMAP item 3's registry commands",
    "registry.Registry.dismantled": "the state dismantle leaves; goes with that command",
}


def _public_defs(tree) -> list:
    """The public functions and classes at the top of ``tree`` and the
    public methods of those classes, as dotted names; ``cmd_*`` handlers,
    which the CLI reaches through its table, are left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return [name for name in names if not name.startswith("cmd_")]


def _referenced(sources) -> set:
    """Every name read, every attribute taken and every name imported in
    ``sources``."""
    found = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_every_public_name_has_a_deployed_caller():
    """A public function, class or method that only tests call belongs in
    ``tests/``. A name counts as referenced when its last part is read,
    taken as an attribute or imported anywhere in ``src/`` or
    ``perfbench/``, the benchmark's tests left out."""
    deployed = sorted(SRC.rglob("*.py")) + sorted(
        path for path in PERFBENCH.glob("*.py") if not path.name.startswith("test_"))
    used = _referenced(path.read_text() for path in deployed)
    unreferenced = {f"{module}.{name}" for module in MODULES
                    for name in _public_defs(_source(module))
                    if name.rsplit(".", 1)[-1] not in used}
    assert sorted(unreferenced) == sorted(UNREFERENCED)


def test_the_reference_scan_sees_each_form():
    tree = ast.parse("def f():\n    pass\nclass C:\n    def m(self):\n        pass\n"
                     "    def _p(self):\n        pass\ndef _g():\n    pass\n"
                     "def cmd_x(args):\n    pass\n")
    assert _public_defs(tree) == ["f", "C", "C.m"]
    assert _referenced(["import a.b\nfrom c import d as e\nx.y(z)\n"]) == {"b", "d", "x", "y", "z"}
