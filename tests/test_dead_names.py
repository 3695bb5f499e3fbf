"""Every function, method and class defined under ``src/`` has a use.

A definition whose name occurs nowhere but in its own ``def`` or
``class`` statement -- across src, tests, benchmarks, perfbench and
examples -- has lost its consumer.  A name counts as used wherever it
appears as a word, in code, strings or comments alike, so the guard
errs towards keeping a definition.

Skipped: dunder names, which the interpreter calls, and definitions
carrying a decorator other than ``property``, ``staticmethod``,
``classmethod`` or ``dataclass``, which are reached through that
decorator (a registering decorator, an exit hook).
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
