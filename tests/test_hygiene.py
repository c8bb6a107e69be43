"""Static checks on the package source, in place of a linter."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hybridcast"
WORD = re.compile(r"[A-Za-z_]\w*")


def unused_imports(source: str) -> list:
    """Names a module imports and never uses.  A name listed in
    ``__all__`` is used: the module re-exports it."""
    tree = ast.parse(source)
    imported = {}  # name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(sys.argv, d)\n")
    assert unused_imports(source) == [(2, "os")]


def test_no_unused_imports_in_the_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert found and {name: names for name, names in found.items()
                      if names} == {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree) -> list:
    """(line, name) of a module's functions, classes, methods and module
    constants, dunder names left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            found += [(node.lineno, name.id) for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [(line, name) for line, name in found if not _is_dunder(name)]


def uses(tree) -> Counter:
    """Every name a module reads: names, attributes, imports, and the
    identifiers inside string literals, since code may reach a method by
    its name.  A docstring or any other bare string statement is no use."""
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in bare):
            used.update(WORD.findall(node.value))
    return used


def unreferenced(package: dict, elsewhere: list) -> list:
    """(module, line, name) of each name the ``package`` sources define
    and no package or ``elsewhere`` source reads."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    used = Counter()
    for tree in [*trees.values(), *map(ast.parse, elsewhere)]:
        used += uses(tree)
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in definitions(tree) if not used[name])


def test_scan_finds_an_unreferenced_name():
    package = {
        "m.py": ('"""Mentions gone() and KEPT."""\n'
                 "LIMIT = 3\n"
                 "KEPT = 4\n"
                 "def gone():\n"
                 "    return LIMIT\n"
                 "def by_name():\n"
                 "    pass\n"
                 "class Node:\n"
                 "    def __init__(self):\n"
                 "        self.step()\n"
                 "    def step(self):\n"
                 "        pass\n"
                 "    def idle(self):\n"
                 "        pass\n"),
    }
    elsewhere = ["import m\n"
                 "m.Node()\n"
                 "getattr(m, 'by_name')\n"]
    assert unreferenced(package, elsewhere) == [
        ("m.py", 3, "KEPT"), ("m.py", 4, "gone"), ("m.py", 13, "idle")]


def test_every_package_name_is_read_somewhere():
    package = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    elsewhere = [path.read_text()
                 for folder in ("tests", "bench")
                 for path in sorted((ROOT / folder).rglob("*.py"))]
    assert package and unreferenced(package, elsewhere) == []
