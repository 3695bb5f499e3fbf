"""Span tracing of the program's layers, installed from outside.

A traced iteration wraps the entry points of each layer at run time:
methods are replaced on their class, module-level functions on their
module *and* on every ``repro`` module that imported them by name
(``from repro.smalltalk import compile_program``).  No source file is
edited.  Modules that are not imported yet are patched the moment they
finish executing, through a meta-path hook, so the traced run imports
exactly what the untraced run imports, in the same order.

Spans live in memory as ``[name, start_ns, end_ns, parent, counts]``
and are written out once, when the iteration ends.  ``counts`` holds
the exact work counters read at the same boundary (instructions
simulated, Fith steps, references replayed, cache hits ...).

:func:`layer_metrics` turns one iteration's spans into the per-layer
metrics named in ``BENCHMARK.json``.  A span's self time is its
duration minus the time its child spans cover.
"""

import importlib.machinery
import sys
import time
from collections import defaultdict


def now_ns():
    """CLOCK_MONOTONIC: system-wide on Linux, so the parent's spawn
    stamp and the child's spans share one time base."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self):
        self.spans = []
        #: Entry points in PATCHES this program does not have (renamed
        #: or removed); their metrics read 0.
        self.missing = []
        self._stack = []

    def add(self, name, start_ns, end_ns):
        """Record a span measured by the caller (e.g. an import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, None])

    def wrap(self, fn, name, snapshot=None, count=None):
        """*fn* wrapped in a span.

        ``name`` is a string or ``name(args) -> str``.  ``snapshot(args)``
        is read before and after the call; ``count(args, kwargs, result,
        before, after)`` returns the span's counters.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            record = [name(args) if callable(name) else name, 0, 0,
                      stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            before = snapshot(args) if snapshot is not None else None
            record[1] = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now_ns()
                stack.pop()
            if count is not None:
                after = snapshot(args) if snapshot is not None else None
                record[4] = count(args, kwargs, result, before, after)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced


# -- what to wrap ---------------------------------------------------------

def _deltas(names):
    def count(args, kwargs, result, before, after):
        return {key: b - a for key, a, b in zip(names, before, after)}
    return count


_CORE_COUNTS = ("core.instructions", "core.cycles", "core.itlb_accesses",
                "core.itlb_misses", "core.icache_accesses",
                "core.icache_misses")


def _core_snapshot(args):
    machine = args[0]
    itlb, icache = machine.itlb.stats, machine.icache.stats
    return (machine.cycles.instructions, machine.cycles.cycles,
            itlb.accesses, itlb.misses, icache.accesses, icache.misses)


def _replayed(args, kwargs, result, before, after):
    blocks = args[1] if len(args) > 1 else kwargs["blocks"]
    start = args[3] if len(args) > 3 else kwargs.get("start", 0)
    stop = args[4] if len(args) > 4 else kwargs.get("stop")
    stop = len(blocks) if stop is None else stop
    return {"sweep.refs": max(0, stop - start)}


def _result_get(args, kwargs, result, before, after):
    return {"workloads.result_hits": int(result is not None),
            "workloads.result_misses": int(result is None)}


#: module -> [(attribute path, span name, snapshot, count)]
PATCHES = {
    "repro.cli": [
        ("main", "cli.main", None, None),
    ],
    "repro.experiments.registry": [
        ("load_all", "experiments.load_all", None, None),
    ],
    "repro.experiments.harness": [
        ("run_all", "experiments.harness", None, None),
        ("_serial_task", lambda args: "experiments." + args[0], None,
         None),
    ],
    "repro.core.machine": [
        ("COMMachine.run_program", "core.run", _core_snapshot,
         _deltas(_CORE_COUNTS)),
    ],
    "repro.smalltalk.compiler": [
        ("compile_program", "smalltalk.compile", None, None),
    ],
    "repro.smalltalk.stackgen": [
        ("StackCompiler.compile_program", "smalltalk.compile", None, None),
        ("StackVM.run_main", "smalltalk.stack_run",
         lambda args: (args[0].instructions,),
         _deltas(("smalltalk.stack_instructions",))),
    ],
    "repro.fith.interp": [
        ("FithMachine.run", "fith.run", lambda args: (args[0].steps,),
         _deltas(("fith.steps",))),
    ],
    "repro.workloads.spec": [
        ("WorkloadSpec.generate", "fith.generate", None,
         lambda args, kwargs, result, before, after:
         {"trace.events": len(result)}),
    ],
    "repro.workloads.store": [
        ("TraceStore.ensure", "workloads.ensure",
         lambda args: (args[0].hits, args[0].misses),
         _deltas(("workloads.store_hits", "workloads.store_misses"))),
        ("TraceStore.load", "workloads.load",
         lambda args: (args[0].hits, args[0].misses),
         _deltas(("workloads.store_hits", "workloads.store_misses"))),
    ],
    "repro.workloads.library": [
        ("ResultCache.get", "workloads.result_get", None, _result_get),
        ("ResultCache.put", "workloads.result_put", None, None),
    ],
    "repro.sweep.runner": [
        ("run_sweep", "sweep.run", None, None),
        ("_dispatch", "sweep.dispatch", None,
         lambda args, kwargs, result, before, after:
         {"sweep.trace_passes": result.meta["trace_passes"]}),
        ("_itlb_ref_columns", "sweep.ref_build", None, None),
        ("_icache_ref_columns", "sweep.ref_build", None, None),
    ],
    "repro.sweep.planner": [
        ("run_batch", "sweep.batch", None, None),
    ],
    "repro.sweep.engine": [
        ("MultiConfigLRU.replay_columns", "sweep.replay", None,
         _replayed),
    ],
    "repro.sweep.np_engine": [
        ("NumpyMultiConfigLRU.replay_columns", "sweep.replay", None,
         _replayed),
        ("NumpyMultiConfigLRU._replay_full", "sweep.full_column", None,
         None),
    ],
}


def _patch_module(tracer, module):
    for path, name, snapshot, count in PATCHES[module.__name__]:
        owner = module
        *outer, attribute = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except AttributeError:
            tracer.missing.append(f"{module.__name__}.{path}")
            continue
        traced = tracer.wrap(original, name, snapshot, count)
        setattr(owner, attribute, traced)
        if owner is module:
            _rebind(original, traced)


def _rebind(original, traced):
    """Point every loaded ``repro`` module's name for *original* at
    *traced* (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, traced)


class _PatchOnImport:
    """Meta-path hook: patch a listed module right after it executes."""

    def __init__(self, tracer, pending):
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, name, path=None, target=None):
        if name not in self.pending:
            return None
        self.pending.discard(name)
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_then_patch(module):
            exec_module(module)
            _patch_module(tracer, module)

        spec.loader.exec_module = exec_then_patch
        return spec


def install(tracer):
    """Wrap every entry point in :data:`PATCHES` (now or on import)."""
    pending = set()
    for module_name in PATCHES:
        module = sys.modules.get(module_name)
        if module is None:
            pending.add(module_name)
        else:
            _patch_module(tracer, module)
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(tracer, pending))


# -- per-layer metrics ----------------------------------------------------

#: Counters that are simulated or exact: they must repeat bit-for-bit.
EXACT_COUNTS = (
    "core.instructions", "core.cycles", "core.itlb_accesses",
    "core.itlb_misses", "core.icache_accesses", "core.icache_misses",
    "smalltalk.stack_instructions", "fith.steps", "trace.events",
    "workloads.store_hits", "workloads.store_misses",
    "workloads.result_hits", "workloads.result_misses",
    "sweep.refs", "sweep.trace_passes",
)


def layer_metrics(spans, wall_s, experiment_ids):
    """One traced iteration's per-layer metrics (seconds and counts).

    ``wall_s`` is the iteration's process wall time, the whole the
    self times must reconcile to: ``unattributed_s`` is what no
    program span covers -- interpreter start-up and exit, and the
    benchmark's own ``bench.*`` spans, which ``bench.self_s`` also
    reports on their own.  Returns ``(metrics, {layer: self seconds})``
    over the program's layers.
    """
    count = len(spans)
    covered = [0] * count
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    inclusive_s = defaultdict(float)
    counts = defaultdict(int)
    store_self = {"load": 0.0, "write": 0.0}
    for index, (name, start, end, parent, span_counts) in enumerate(spans):
        own = (end - start - covered[index]) / 1e9
        self_s[name] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # outermost span of this name
            inclusive_s[name] += (end - start) / 1e9
        for key, value in (span_counts or {}).items():
            counts[key] += value
        if name in ("workloads.ensure", "workloads.load"):
            # A store call that generated is the write path (ensure
            # minus generation); one that did not is a load.
            missed = (span_counts or {}).get("workloads.store_misses", 0)
            store_self["write" if missed else "load"] += own

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    layers = defaultdict(float)
    for name, seconds in self_s.items():
        layers[name.split(".", 1)[0]] += seconds
    bench_s = layers.pop("bench", 0.0)
    metrics = {
        "cli.import_s": inclusive_s["cli.import"],
        "cli.lazy_import_s": inclusive_s["cli.lazy_import"],
        "cli.main_self_s": self_s["cli.main"],
        "experiments.harness_self_s": self_s["experiments.harness"],
        "experiments.load_all_s": inclusive_s["experiments.load_all"],
        "core.run_s": inclusive_s["core.run"],
        "core.instr_per_s": rate(counts["core.instructions"],
                                 inclusive_s["core.run"]),
        "smalltalk.compile_s": inclusive_s["smalltalk.compile"],
        "smalltalk.stack_run_s": inclusive_s["smalltalk.stack_run"],
        "fith.generate_s": inclusive_s["fith.generate"],
        "fith.steps_per_s": rate(counts["fith.steps"],
                                 inclusive_s["fith.run"]),
        "workloads.write_s": store_self["write"],
        "workloads.load_s": store_self["load"],
        "workloads.result_get_s": inclusive_s["workloads.result_get"],
        "workloads.result_put_s": inclusive_s["workloads.result_put"],
        "sweep.ref_build_s": inclusive_s["sweep.ref_build"],
        "sweep.replay_s": self_s["sweep.replay"],
        "sweep.full_column_s": inclusive_s["sweep.full_column"],
        "sweep.self_s": (self_s["sweep.batch"] + self_s["sweep.run"]
                         + self_s["sweep.dispatch"]),
        "sweep.refs_per_s": rate(counts["sweep.refs"],
                                 inclusive_s["sweep.replay"]),
        "bench.self_s": bench_s,
        "unattributed_s": wall_s - sum(layers.values()),
    }
    for exp_id in experiment_ids:
        metrics[f"experiments.{exp_id}_s"] = \
            inclusive_s[f"experiments.{exp_id}"]
    for key in EXACT_COUNTS:
        metrics[key] = counts[key]
    return metrics, dict(layers)

