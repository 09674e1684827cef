"""Lint with the standard library: no module imports a name it never uses, no
pinchlab module imports scipy when it loads, and only ``spectral.load_scipy``
imports it at all."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports only to re-export
SOURCES = sorted({*(ROOT / "src" / "pinchlab").glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")} - {ROOT / "src" / "pinchlab" / "__init__.py"})


def unused_imports(text: str) -> list[str]:
    """Names an import binds and no expression reads, except on ``# noqa: F401`` lines."""
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            and not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names
            if (alias.asname or alias.name.partition(".")[0]) not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_lint_finds_an_unused_import():
    text = "import math\nimport os  # noqa: F401\nfrom sys import argv, path\nprint(argv)\n"
    assert unused_imports(text) == ["math", "path"]


def scipy_modules(nodes) -> list[str]:
    """Modules named by the ``import scipy...`` and ``from scipy... import`` among ``nodes``."""
    modules = []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [name for name in modules if name.partition(".")[0] == "scipy"]


def module_level_scipy_imports(text: str) -> list[str]:
    """Modules named by the top-level ``import scipy...`` and ``from scipy... import``."""
    return scipy_modules(ast.parse(text).body)


def scipy_imports_outside_the_loader(text: str) -> list[str]:
    """scipy modules imported at any depth, except in the body of a ``def load_scipy``."""
    def walk(node):
        for child in ast.iter_child_nodes(node):
            if not (isinstance(child, ast.FunctionDef) and child.name == "load_scipy"):
                yield child
                yield from walk(child)
    return scipy_modules(walk(ast.parse(text)))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pinchlab").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_scipy_import(path):
    # scipy is imported at the first solve (spectral.load_scipy)
    assert module_level_scipy_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pinchlab").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_loader_imports_scipy(path):
    # the loader gives the OpenBLAS that scipy maps the command's thread count
    assert scipy_imports_outside_the_loader(path.read_text()) == []


def test_lint_finds_a_module_level_scipy_import():
    text = ("import numpy, scipy\nfrom scipy.sparse import csr_array\nimport scipyx\n"
            "from . import scipy_shim\ndef f():\n    import scipy.linalg\n")
    assert module_level_scipy_imports(text) == ["scipy", "scipy.sparse"]


def test_lint_finds_a_scipy_import_outside_the_loader():
    text = ("def load_scipy():\n    import scipy.linalg\n"
            "class Form:\n    def tocsr(self):\n        if True:\n"
            "            from scipy import sparse\n")
    assert scipy_imports_outside_the_loader(text) == ["scipy"]
