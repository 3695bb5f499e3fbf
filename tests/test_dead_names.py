"""Every function, method and class defined under ``src/`` has a use,
and so does every name a module under ``src/`` imports.

A definition whose name occurs nowhere but in its own ``def`` or
``class`` statement -- across src, tests, benchmarks, perfbench and
examples -- has lost its consumer.  A name counts as used wherever it
appears as a word, in code, strings or comments alike, so the guard
errs towards keeping a definition.

Skipped: dunder names, which the interpreter calls, and definitions
carrying a decorator other than ``property``, ``staticmethod``,
``classmethod`` or ``dataclass``, which are reached through that
decorator (a registering decorator, an exit hook).

An imported name is used only where its module reads it as code (a
word in a comment or string does not count) or lists it in its
``__all__``.  Package ``__init__`` modules are skipped: importing is
how they re-export.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "perfbench", "examples")
PLAIN_DECORATORS = {"property", "staticmethod", "classmethod", "dataclass"}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def _checked_definitions(tree):
    """``(name, line)`` of each definition the guard checks."""
    for node in ast.walk(tree):
        if not isinstance(node, _DEFINITIONS):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if any(_decorator_name(decorator) not in PLAIN_DECORATORS
               for decorator in node.decorator_list):
            continue
        yield node.name, node.lineno


def test_every_definition_under_src_is_referenced():
    words = Counter()
    definitions = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            words.update(re.findall(r"\w+", text))
            if top == "src":
                where = path.relative_to(ROOT)
                definitions.extend(
                    (name, f"{where}:{line}")
                    for name, line in _checked_definitions(ast.parse(text)))
    assert len(definitions) > 500  # the scan found the sources
    # One occurrence is the definition itself.
    dead = [f"{where}: {name}" for name, where in definitions
            if words[name] < 2]
    assert dead == [], (
        "defined under src/ but referenced nowhere; delete them:\n  "
        + "\n  ".join(dead))


def _bound_imports(tree):
    """``(name, line)`` of each name an import statement binds;
    ``from __future__`` imports and ``*`` bind none to check."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The names a module lists in its ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def test_no_unused_imports_under_src():
    unused = []
    modules = [path for path in sorted((ROOT / "src").rglob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) > 50  # the scan found the sources
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        kept = read | _exported(tree)
        where = path.relative_to(ROOT)
        unused.extend(f"{where}:{line}: {name}"
                      for name, line in _bound_imports(tree)
                      if name not in kept)
    assert unused == [], (
        "imported under src/ but never read; delete the imports:\n  "
        + "\n  ".join(unused))
