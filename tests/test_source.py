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
