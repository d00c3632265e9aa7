"""Every public name of a rotor module is reached from outside the tests,
and every imported name is used.

A name in the __all__ of a rotor submodule passes when one of these holds:
it is re-exported in rotor.__all__; it appears as a word in README.md;
another rotor module or a perfbench script refers to it (imports it by
name, reads it as an attribute x.name, or loads it as a bare name); or
its own module loads it outside its own definition.  A name that only
tests reach is either deleted or moved into the test that uses it.

A name that a rotor module or a test file imports passes when the file
loads it or lists it in its __all__.
"""

import ast
import importlib
import re
from pathlib import Path

import rotor

PACKAGE = Path(rotor.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _referenced(tree: ast.Module) -> set:
    """Names the module imports by name, reads as attributes or loads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
    return found


def _loaded_outside(tree: ast.Module, name: str) -> bool:
    """Whether the module loads name anywhere but inside its definition."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS) and node.name == name:
            continue
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_is_reached():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees = {path.stem: _parse(path) for path in PACKAGE.glob("*.py")}
    scripts = [_parse(path) for path in (ROOT / "perfbench").glob("*.py")]
    unreached = []
    for stem, tree in sorted(trees.items()):
        if stem == "__init__":
            continue
        module = importlib.import_module("rotor." + stem)
        outside = set().union(*(_referenced(t) for s, t in trees.items()
                                if s != stem),
                              *(_referenced(t) for t in scripts))
        for name in getattr(module, "__all__", ()):
            if not (name in rotor.__all__
                    or re.search(r"\b%s\b" % re.escape(name), readme)
                    or name in outside
                    or _loaded_outside(tree, name)):
                unreached.append("%s.%s" % (stem, name))
    assert not unreached, "reached only from tests: " + ", ".join(unreached)


def _imported(tree: ast.Module) -> dict:
    """The names a module binds by import, with the line of each; the
    compiler directives of __future__ bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set:
    """The strings of a module-level __all__ list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_imported_name_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = _parse(path)
        used = _exported(tree) | {node.id for node in ast.walk(tree)
                                  if isinstance(node, ast.Name)
                                  and isinstance(node.ctx, ast.Load)}
        for name, line in sorted(_imported(tree).items()):
            if name not in used:
                unused.append("%s:%d %s" % (path.relative_to(ROOT), line,
                                            name))
    assert not unused, "imported and never used: " + ", ".join(unused)
