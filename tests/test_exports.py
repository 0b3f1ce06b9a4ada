"""Every name a `wsdetect` subpackage exports in `__all__` resolves, so a
re-export left behind by a deleted function fails here, at import; and
every public function, class and method of a public class under
src/wsdetect is read by runtime code, so one that only tests or the
bench call fails here too."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wsdetect

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(wsdetect.__path__)
                     if info.ispkg)


def test_subpackages_found():
    assert {"flowmeter", "inspector", "rulelang", "tensornet"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(f"wsdetect.{name}")
    exported = package.__all__
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(package, n)] == []


# Public names that only bench/ or tests/ call, each until the benchmark
# change that moves bench/ off it removes that caller.
UNREFERENCED = {
    "compute_features",  # bench/prepare.py
    "TabularDataset.from_records",  # bench/prepare.py
    "CnnConfig.php",  # bench/prepare.py and bench/workloads.py
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree):
    """Every name a module reads, as a `Name`, an attribute or an import
    alias, leaving out a definition's reads of its own name: a function,
    class or method that only calls itself is not referenced."""
    referenced = set()

    def visit(node, own):
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        if name is not None and name not in own:
            referenced.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return referenced


def _definitions_and_references():
    """The public top-level functions and classes under src/wsdetect, and
    the public methods of the public classes as `Class.method`, each with
    its module's file name; and every name the package's modules other
    than `__init__.py` read."""
    defined, referenced = {}, set()
    for path in sorted(Path(wsdetect.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                defined[node.name] = path.name
                methods = node.body if isinstance(node, ast.ClassDef) else ()
                for method in methods:
                    if isinstance(method, DEFINITIONS[:2]) and not method.name.startswith("_"):
                        defined[f"{node.name}.{method.name}"] = path.name
        if path.name != "__init__.py":
            referenced |= _references(tree)
    return defined, referenced


def test_every_public_definition_has_a_runtime_reference():
    """A public function, class or method that no runtime module reads
    is test or bench code living in src/. A method counts as read where
    any module reads its name."""
    defined, referenced = _definitions_and_references()

    def read(name):
        return name.rpartition(".")[2] in referenced

    assert UNREFERENCED <= set(defined)
    assert sorted(filter(read, UNREFERENCED)) == [], "stale allowlist entry"
    assert sorted(f"{module}:{name}" for name, module in defined.items()
                  if not read(name) and name not in UNREFERENCED) == []


def test_a_definition_does_not_reference_itself():
    tree = ast.parse(
        "def walk(n):\n    return walk(n - 1)\n"
        "class Node:\n    def copy(self) -> Node:\n        return Node()\n"
        "def root():\n    return Node()\n")
    referenced = _references(tree)
    assert "walk" not in referenced
    assert "Node" in referenced
    assert "Node" not in _references(ast.parse(
        "class Node:\n    def copy(self) -> Node:\n        return Node()\n"))
    # a method that only calls itself
    assert "walk" not in _references(ast.parse(
        "class Node:\n    def walk(self):\n        return self.walk()\n"))
