"""Lint with the standard library: no module imports a name it never uses, no
pinchlab module imports scipy when it loads, only ``spectral.load_scipy``
imports it at all, the CLI imports no layer module when it loads, no layer
imports names from another layer when it loads, least-squares lines are
fitted in one place, one method places points against segment ends, and every
public function and class of the package, and every field, public method and
property of its classes, has a user besides the tests; the package stays below
its line baseline."""

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


def outside_functions(node):
    """The nodes under ``node`` that no function body contains."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from outside_functions(child)


def module_level_pinchlab_imports(text: str) -> list[str]:
    """pinchlab modules imported outside function bodies, by relative or ``pinchlab.`` name."""
    modules = []
    for node in outside_functions(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is one from the package
            base = ".".join(filter(None, ["pinchlab" if node.level else "", node.module]))
            names = ([f"{base}.{alias.name}" for alias in node.names] if base == "pinchlab"
                     else [base])
        else:
            continue
        modules += [name.split(".")[1] for name in names if name.startswith("pinchlab.")]
    return modules


def test_cli_imports_no_layer_module_when_it_loads():
    # cli.py registers the layers lazily (cli._lazy), so a command runs only
    # the ones it reads; errors and blas serve every command
    text = (ROOT / "src" / "pinchlab" / "cli.py").read_text()
    assert set(module_level_pinchlab_imports(text)) <= {"errors", "blas"}


def test_lint_finds_a_module_level_layer_import():
    text = ("from . import errors, spectral\nfrom .blas import blas_threads\n"
            "import numpy, pinchlab.geometry\nfrom pinchlab.potential import solve_direct\n"
            "from pinchlab import dynamics\nif True:\n    from .configfile import load_config\n"
            "def run():\n    from .pairing import pairing_sweep\n")
    assert module_level_pinchlab_imports(text) == [
        "errors", "spectral", "blas", "geometry", "potential", "dynamics", "configfile"]


def module_level_name_imports(text: str) -> list[str]:
    """pinchlab modules that a ``from <module> import <names>`` outside function bodies
    reads names from, by relative or ``pinchlab.`` name (``from . import <module>``
    binds modules)."""
    modules = []
    for node in outside_functions(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if node.level:
                modules.append(parts[0])
            elif parts[0] == "pinchlab" and len(parts) > 1:
                modules.append(parts[1])
    return modules


@pytest.mark.parametrize("path", sorted(set((ROOT / "src" / "pinchlab").glob("*.py"))
                                        - {ROOT / "src" / "pinchlab" / "__init__.py"}),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_layers_bind_their_sibling_layers_as_modules(path):
    # ``from . import spectral`` binds the module the CLI registered lazily, and
    # ``spectral.full_spectrum`` runs it when a command first calls it; a
    # ``from .spectral import`` would run it when the importing layer loads.
    # errors and blas serve every command.
    assert set(module_level_name_imports(path.read_text())) <= {"errors", "blas"}


def test_lint_finds_a_module_level_name_import():
    text = ("from . import geometry, spectral\nfrom .errors import ValidationError\n"
            "from .spectral import full_spectrum\nimport pinchlab.potential\n"
            "from pinchlab.geometry import TWO_PI\nfrom pinchlab import pairing\n"
            "from numpy.linalg import eigh\nif True:\n    from .dualgraph import DualGraph\n"
            "def run():\n    from .spectral import load_scipy\n")
    assert module_level_name_imports(text) == ["errors", "spectral", "geometry", "dualgraph"]


def enclosed_matches(text: str, match) -> list[tuple[str, str]]:
    """(innermost enclosing function or ``<module>``, expression) of each node that
    ``match`` accepts."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((where, ast.unparse(child)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, child.name if inner else where)

    walk(ast.parse(text), "<module>")
    return found


def line_fit_reads(text: str) -> list[tuple[str, str]]:
    """Where and what each ``polyfit`` or ``lstsq`` attribute read is, such as
    ``np.polyfit`` or ``np.linalg.lstsq``."""
    return enclosed_matches(text, lambda node: isinstance(node, ast.Attribute)
                            and node.attr in {"polyfit", "lstsq"})


# the functions allowed a least-squares line of their own: geometry.line_fit, and
# dynamics.pushforward_growth, as the dynamics commands run no geometry
OWN_LINE_FITS = {"geometry.py": "line_fit", "dynamics.py": "pushforward_growth"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pinchlab").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_lines_are_fitted_by_line_fit(path):
    reads = line_fit_reads(path.read_text())
    assert [read for read in reads if read[0] != OWN_LINE_FITS.get(path.name)] == []


def test_lint_finds_a_line_fit_outside_line_fit():
    text = ("import numpy as np\nslope = np.polyfit(x, y, 1)[0]\n"
            "def line_fit(x, y):\n    return np.linalg.lstsq(A, y, rcond=None)\n"
            "class Probe:\n    def fit(self):\n        def inner():\n"
            "            return numpy.polyfit(x, y, 1)\n        return np.lstsq\n"
            "def other():\n    return np.polyval(p, x)\n")
    assert line_fit_reads(text) == [("<module>", "np.polyfit"), ("line_fit", "np.linalg.lstsq"),
                                    ("inner", "numpy.polyfit"), ("fit", "np.lstsq")]


def segment_bound_comparisons(text: str) -> list[tuple[str, str]]:
    """Where and what each comparison reading an ``x0`` or ``x1`` attribute is, such as
    ``x >= seg.x0 - 1e-15``."""
    return enclosed_matches(text, lambda node: isinstance(node, ast.Compare) and any(
        isinstance(sub, ast.Attribute) and sub.attr in {"x0", "x1"} for sub in ast.walk(node)))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pinchlab").glob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_segments_are_looked_up_by_segment_at(path):
    # one boundary rule, [x0, x1): WarpedChain.segment_at is the only function
    # that may place a point against a segment's ends
    found = segment_bound_comparisons(path.read_text())
    assert [f for f in found if (path.name, f[0]) != ("geometry.py", "segment_at")] == []


def test_lint_finds_a_segment_bound_comparison():
    text = ("def profile(seg, x):\n    return (x >= seg.x0 - 1e-15) & (x < seg.x1)\n"
            "class WarpedChain:\n    def segment_at(self, x):\n"
            "        return x < self.segments[0].x1\n"
            "def length(seg):\n    return seg.x1 - seg.x0\nok = seg.length > 0\n")
    assert segment_bound_comparisons(text) == [
        ("profile", "x >= seg.x0 - 1e-15"), ("profile", "x < seg.x1"),
        ("segment_at", "x < self.segments[0].x1")]


def names_read(node) -> set[str]:
    """Names read under ``node``: names, attributes, imported names, and strings (perfbench's
    tracer looks the layer functions up by name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unreferenced_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` of each public top-level function or class of ``modules`` (module
    name -> source) that no code in ``modules`` or ``users`` reads outside its own
    definition."""
    trees = {module: ast.parse(text) for module, text in modules.items()}
    read = set().union(*(names_read(ast.parse(text)) for text in users))
    found = []
    for module, tree in trees.items():
        elsewhere = read.union(*(names_read(other) for name, other in trees.items()
                                 if name != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = set().union(*(names_read(top) for top in tree.body if top is not node))
                if node.name not in elsewhere | own:
                    found.append(f"{module}.{node.name}")
    return found


# public definitions kept for the ROADMAP item that will use them
AWAITING_USE = {
    "nodeintegral.check_quadrature_convergence": "item 8, the run records",
    "nodeintegral.gap_to_limit": "item 2, c_fit's L-remainder bar",
}


def test_every_public_definition_has_a_user_besides_the_tests():
    # the package's __init__ only re-exports; tests do not count as users
    package = ROOT / "src" / "pinchlab"
    modules = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"}
    users = [path.read_text() for path in sorted({*(ROOT / "demos").glob("*.py"),
                                                  *(ROOT / "perfbench").glob("*.py")})]
    assert sorted(unreferenced_definitions(modules, users)) == sorted(AWAITING_USE)


def test_lint_finds_an_unreferenced_definition():
    modules = {
        "a": ("def used():\n    pass\ndef recursive(n):\n    return recursive(n - 1)\n"
              "class Dead:\n    pass\ndef _private():\n    pass\n"
              "def caller():\n    return used()\n"),
        "b": "from .a import caller\nLOOKUP = 'by_name'\ndef by_name():\n    pass\n",
    }
    users = ["import pinchlab.a as a\na.caller()\n"]
    assert unreferenced_definitions(modules, users) == ["a.recursive", "a.Dead"]


def attributes_loaded(tree) -> set[str]:
    """Attribute names ``tree`` loads: each ``x.name`` read, and each ``getattr(x, "name")``."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            loaded.add(node.args[1].value)
    return loaded


def classes_read_whole(tree) -> set[str]:
    """Names passed to ``fields``, ``astuple`` or ``asdict``: such a class's fields are
    read by reflection, as the columns of a table."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return {name(arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name(node.func) in {"fields", "astuple", "asdict"}
            for arg in node.args}


def unread_members(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.Class.member`` of each annotated field, public method and property of a
    top-level class of ``modules`` (module name -> source) whose name no code in
    ``modules`` or ``users`` loads as an attribute."""
    trees = [ast.parse(text) for text in [*modules.values(), *users]]
    loaded = set().union(*(attributes_loaded(tree) for tree in trees))
    whole = set().union(*(classes_read_whole(tree) for tree in trees))
    found = []
    for module, text in modules.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef) or cls.name in whole:
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not node.name.startswith("_")):
                    name = node.name
                else:
                    continue
                if name not in loaded:
                    found.append(f"{module}.{cls.name}.{name}")
    return found


# class members kept for the ROADMAP item that will read them
MEMBERS_AWAITING_USE: dict[str, str] = {}


def test_every_class_member_has_a_user_besides_the_tests():
    # a name-level check: a member whose name some other attribute shares
    # (``mean`` and ``ndarray.mean``) passes unread
    package = ROOT / "src" / "pinchlab"
    modules = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    users = [path.read_text() for path in sorted({*(ROOT / "demos").glob("*.py"),
                                                  *(ROOT / "perfbench").glob("*.py")})]
    assert sorted(unread_members(modules, users)) == sorted(MEMBERS_AWAITING_USE)


def test_lint_finds_an_unread_member():
    modules = {
        "a": ("from dataclasses import astuple, dataclass\n"
              "@dataclass\nclass Report:\n    value: float\n    unread: float\n"
              "    def used(self):\n        return self.value\n"
              "    def dead(self):\n        self.unread = 0.0\n"
              "    def _private(self):\n        pass\n"
              "    @property\n    def by_name(self):\n        return 1\n"
              "    @property\n    def dead_view(self):\n        return 2\n"
              "class Row:\n    column: int\n"
              "def table(rows):\n    return [astuple(r) for r in rows], Row\n"
              "TOLERANCE: float = 1e-9\n"),
        "b": "from . import a\ndef run(r):\n    return r.used() + getattr(r, 'by_name')\n",
    }
    users = ["def run(rows):\n    return dataclasses.fields(a.Row)\n"]
    assert unread_members(modules, users) == ["a.Report.unread", "a.Report.dead",
                                              "a.Report.dead_view"]


# the lines of src/pinchlab/*.py when the line baseline was measured
# (ROADMAP item 9): deletions pay for every addition
SRC_LINE_BASELINE = 3935


def test_src_stays_below_its_baseline():
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "pinchlab").glob("*.py"))
    assert lines <= SRC_LINE_BASELINE
