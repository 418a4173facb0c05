"""Static checks on the package source, with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import percograph

PACKAGE_DIR = Path(percograph.__file__).parent


def _imported_names(tree):
    """Each name an import statement binds, with the line it is bound on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """(name, line) of every import that the module never reads and does
    not list in ``__all__``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    kept = read | _exported_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in kept]


def test_the_guard_flags_an_import_nothing_reads():
    source = ("import math\nimport os.path\nfrom .errors import ConfigError, DomainError\n"
              "__all__ = ['ConfigError']\nprint(os.path.sep, math.pi)\n")
    assert unused_imports(source) == [("DomainError", 3)]


def test_every_package_import_is_used():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def module_level_imports(source, package):
    """(module, line) of every import of ``package`` or its submodules
    that runs when the module is imported, not inside a function."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
        pending.extend(ast.iter_child_nodes(node))
    return sorted((name, line) for name, line in found
                  if name == package or name.startswith(package + "."))


def test_the_scipy_guard_flags_only_imports_at_module_level():
    source = ("import numpy\nimport scipy.sparse\nif True:\n    from scipy import stats\n"
              "class A:\n    from scipy.special import gammaln\n"
              "def f():\n    from scipy.optimize import brentq\n"
              "from .scipy import x\nimport scipyx\n")
    assert module_level_imports(source, "scipy") == [
        ("scipy", 4), ("scipy.sparse", 2), ("scipy.special", 6)]


def test_no_package_module_imports_scipy_at_module_level():
    # scipy is imported only inside the solvers that need it, on first use
    found = {path.name: module_level_imports(path.read_text(encoding="utf-8"), "scipy")
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
