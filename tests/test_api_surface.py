"""Every public name in ``src/qrollout`` has a caller outside the tests.

A public module-level function or class counts as used when its name is
referenced (a Name, an Attribute or an import alias) somewhere in
``src/qrollout`` outside its own definition, or in ``perfbench/*.py``, or
when the CI workflow mentions it.  A public method counts only through an
Attribute (``.name``) in those places or a mention in the CI workflow: a
bare Name of the same spelling is a local variable, not a call.
Test-only API belongs in the test referees.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qrollout"


def _references(tree: ast.AST):
    """(name, line, is an Attribute) of every Name, Attribute and import
    alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            for name in (node.name.split(".")[-1], node.asname):
                if name:
                    yield name, node.lineno, False


def _public_definitions(tree: ast.Module):
    """(qualified name, name, first line, last line, is a method) of every
    public module-level function or class and every public method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if (not isinstance(node, (*funcs, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno, True)


def unused_public_names() -> list[str]:
    """The public names of ``src/qrollout`` that nothing outside the
    tests reaches, as ``module.name`` or ``module.Class.method``."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    src_refs = defaultdict(list)        # name -> [(module, line, attr)]
    for mod, tree in trees.items():
        for name, line, attr in _references(tree):
            src_refs[name].append((mod, line, attr))
    ci = set(re.findall(
        r"\w+", (ROOT / ".github" / "workflows" / "tests.yml").read_text()))
    bench = set()                       # (name, is an Attribute)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench.update((n, attr) for n, _, attr
                     in _references(ast.parse(path.read_text())))
    unused = []
    for mod, tree in trees.items():
        for qual, name, first, last, method in _public_definitions(tree):
            if name in ci or (name, True) in bench or (
                    not method and (name, False) in bench):
                continue
            if all((m == mod and first <= line <= last)
                   or (method and not attr)
                   for m, line, attr in src_refs[name]):
                unused.append(f"{mod}.{qual}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []
