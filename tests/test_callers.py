"""Nothing in `fourbody` without a caller.

Every function, class and method defined in src/fourbody must be named
somewhere else in src/fourbody or in perfbench/, or be one of the names the
benchmark's tracer patches.  A method counts as named only as an attribute
(`x.name`), so a local variable of the same name does not keep it.  A
definition named only by the tests is test code and belongs under tests/.
Dunder methods are called by the language and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "fourbody").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# `width` is how the tests read the size of an interval.
ALLOWED = {"interval.Interval.width"}


def uses(tree):
    """(every identifier, every attribute name) that a tree uses."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names + attrs, attrs


def definitions(tree, prefix, method=False):
    """(qualified name, node, is a method) of every function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + node.name, node, method
            if isinstance(node, ast.ClassDef):
                yield from definitions(node, prefix + node.name + ".", True)


def traced_names() -> set:
    """The strings of `Tracer.install`: the names it patches."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return {node.value for node in ast.walk(install)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_definition_has_a_caller():
    names, attrs = Counter(), Counter()
    defs = []
    for path in SRC + BENCH:
        tree = ast.parse(path.read_text())
        n, a = uses(tree)
        names += n
        attrs += a
        if path in SRC:
            defs += definitions(tree, path.stem + ".")
    traced = traced_names()
    unused = []
    for qualname, node, method in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        # a name used only inside its own body (recursion) has no caller
        used = (attrs if method else names)[name] - uses(node)[method][name]
        if used > 0 or name in traced or qualname in ALLOWED:
            continue
        unused.append(qualname)
    assert unused == []
