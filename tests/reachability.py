"""Reachability audit: every function under ``src/`` is entered by a
product path, or the allowlist names its role.

Run from the repository root::

    PYTHONPATH=src python tests/reachability.py

A ``sys.setprofile`` hook goes in before the first ``import repro``
and records every code object entered while this one process drives
the product paths:

* ``repro`` command lines: a cold and a warm full ``run``, a quick
  ``run --telemetry`` and its ``report`` (text and JSON), the chaos
  fault plan that CI runs, a failed run and its ``--resume``, the
  three store actions, ``trace --stats`` and ``trace --set``,
  ``sweep`` with ``--opt --full --plot``, with
  ``--compare-semantics`` and on the grid engine with the random
  policy, ``list``, ``list --engines``, ``--version`` and two
  bad-input runs;
* ``repro trace`` and ``repro sweep --cache both --full`` on each
  registered scenario;
* the example scripts.

Every path starts from an empty trace store and run directory
(``REPRO_TRACE_DIR`` and ``REPRO_RUN_DIR`` point into a temporary
directory), and the sweeps run with the result cache off, so what is
entered does not depend on what an earlier run left in a store.

Every function and method defined under ``src/`` (found with
:mod:`ast`) is then either entered, or listed in
``reachability_allowlist.txt`` as ``module:qualname`` under one of the
role headings, with a note naming the test, input or paper section.
The audit fails when an unreached function is not listed, when an
entry names no function, and when an entry sits under no role heading
or carries no note.  Listed functions that were entered are reported,
so the list can shrink.

The name does not start with ``test_``: the audit takes about half a
minute under the profiler, so tier-1 does not collect it and CI runs
it as its own step.
"""

import sys

_ENTERED = set()


def _note_call(frame, event, arg):
    if event == "call":
        _ENTERED.add(frame.f_code)


sys.setprofile(_note_call)

import ast  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import repro.cli  # noqa: E402
from repro.workloads import specs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("reachability_allowlist.txt")
ROLES = (
    "oracle for a named test",
    "error path for a named input",
    "paper mechanism",
    "test-only, pending item 8",
)
CHAOS_PLAN = ("worker.task:error:times=1,store.read:corrupt:times=1,"
              "worker.task:error:p=0.2:times=1,"
              "store.result_cache:corrupt:times=1")


def _repro(*argv, status=0):
    """One ``repro`` command line, its output discarded; the exit
    status must be ``status``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = repro.cli.main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    if code != status:
        sys.exit(f"repro {' '.join(argv)}: exit {code}, expected "
                 f"{status}\n{out.getvalue()}")


def drive_product_paths(scratch: Path) -> None:
    _repro("run")                                     # cold store
    _repro("run")                                     # warm store
    _repro("run", "--quick", "--telemetry")
    _repro("report")
    _repro("report", "--format", "json")
    _repro("run", "--quick", "--telemetry", "--retries", "3",
           "--retry-backoff", "0", "--faults", CHAOS_PLAN,
           "--fault-seed", "1985", "--run-dir", str(scratch / "chaos"))
    resume = ("run", "--quick", "--only", "TAB-CCACHE,TAB-ADDR",
              "--telemetry", "--run-dir", str(scratch / "resume"))
    _repro(*resume, "--retries", "0", "--faults",
           "worker.task:error:times=99", "--fault-seed", "5", status=1)
    _repro(*resume, "--resume")
    _repro("run", "--only", "NOSUCH", status=2)
    _repro("run", "--faults", "bogus", status=2)
    _repro("list")
    _repro("list", "--engines")
    _repro("--version")
    with mock.patch.dict(os.environ, REPRO_RESULT_CACHE="0"):
        for spec in specs():
            _repro("trace", spec.name, "--quick")
            _repro("sweep", spec.name, "--quick", "--cache", "both",
                   "--full")
        _repro("sweep", "--quick", "--opt", "--full", "--plot")
        _repro("sweep", "--quick", "--semantics", "v2", "--warmup", "0.25",
               "--compare-semantics")
        _repro("sweep", "--quick", "--engine", "grid", "--policy", "random",
               "--sizes", "8,64", "--assoc", "1,full")
    _repro("trace", "paper", "--quick", "--stats")
    _repro("trace", "monomorphic", "--quick", "--set", "length=400")
    for action in ("verify", "stats", "gc"):
        _repro("store", action)
    for script in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def _functions(tree, prefix=""):
    """``(qualname, first line, last line)`` of every function in
    ``tree``, nested ones as ``outer.inner``.  The first line is a
    decorator's when there is one, as in ``co_firstlineno``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            first = min([node.lineno]
                        + [line.lineno for line in node.decorator_list])
            yield name, first, node.end_lineno
            yield from _functions(node, name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def src_functions():
    """``("module:qualname", path, first line, last line)`` of every
    function under src."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend((f"{module}:{name}", path.resolve(), first, last)
                     for name, first, last in _functions(tree))
    return found


def read_allowlist():
    """``(entries, problems)``: the listed names, and malformed lines."""
    entries, problems, role = set(), [], None
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if line.startswith("## "):
            role = line[3:].strip()
            if not role.startswith(ROLES):
                problems.append(f"line {number}: unknown role {role!r}")
            continue
        if not text:
            continue
        name, _, note = text.partition(" ")
        if role is None:
            problems.append(f"line {number}: {name} is under no role")
        if not note.strip():
            problems.append(f"line {number}: {name} has no note")
        entries.add(name)
    return entries, problems


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch, \
            mock.patch.dict(os.environ,
                            REPRO_TRACE_DIR=str(Path(scratch, "traces")),
                            REPRO_RUN_DIR=str(Path(scratch, "runs"))):
        drive_product_paths(Path(scratch))
    sys.setprofile(None)
    entered = {(Path(code.co_filename).resolve(), code.co_firstlineno)
               for code in _ENTERED}
    functions = src_functions()
    unreached = [(name, path, first, last)
                 for name, path, first, last in functions
                 if (path, first) not in entered]
    names = {name for name, *_ in functions}
    unreached_names = {name for name, *_ in unreached}
    lines = {(path, line) for _, path, first, last in unreached
             for line in range(first, last + 1)}
    entries, problems = read_allowlist()
    print(f"{len(functions)} src functions, {len(unreached)} never "
          f"entered ({len(lines)} lines)")
    for name in sorted(entries & names - unreached_names):
        print(f"note: allowlisted but entered: {name}")
    failures = (
        [f"unreached and not allowlisted: {name}"
         for name in sorted(unreached_names - entries)]
        + [f"allowlist entry names no function: {name}"
           for name in sorted(entries - names)]
        + problems)
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
