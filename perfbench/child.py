"""One benchmark iteration, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The first thing it
does is ``import repro.cli``, timed from the parent's spawn stamp
(``PERFBENCH_SPAWN_NS``, CLOCK_MONOTONIC), because every ``repro``
command pays that import.  Then it runs one workload body and writes
what the parent checks to ``--out`` as JSON:

* ``reproduce`` -- ``repro run`` through ``repro.cli.main``; the claim
  table goes to stdout, where the parent reads it;
* ``sweep`` -- the query set of ``plans.sweep_queries`` through
  ``repro.sweep.run_batch``, one batch per trace, as ``repro sweep``
  drives it; writes every surface's hit ratios;
* ``trace-build`` -- ``TraceStore.ensure`` of every scenario into the
  (empty) store, then a reload of each from a fresh store object;
  writes each reloaded trace's digests.

``--setup`` runs a workload's one-time preparation instead, writes how
long it took after ``import repro.cli`` returned (the interpreter start
is ``startup_s``'s) and then the environment stamp.  ``--trace``
installs the span tracer (``tracer.py``) before the body and adds the
spans to the output.
"""

import os
import time

_SPAWN_NS = int(os.environ.get("PERFBENCH_SPAWN_NS", "0"))
_IMPORT_START = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
import repro.cli  # noqa: E402  -- timed: every repro command pays it
_IMPORT_END = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

import plans  # noqa: E402
import tracer as tracing  # noqa: E402


# Each body gets ``span(fn, name)``, which returns *fn* unchanged when
# the iteration is untraced.  The modules a body imports on first use
# are the program's cost, as in a ``repro`` subcommand handler, and get
# a ``cli.lazy_import`` span; the benchmark's own output extraction gets
# ``bench.check``.

def _reproduce(args, span):
    code = repro.cli.main(["run", "--trace-dir", args.store,
                           "--run-dir", args.runs])
    return code, None


def _sweep_imports():
    from repro.sweep import Query, SweepSpec, run_batch
    from repro.workloads.store import TraceStore
    return Query, SweepSpec, run_batch, TraceStore


def _sweep(args, span):
    Query, SweepSpec, run_batch, TraceStore = \
        span(_sweep_imports, "cli.lazy_import")()
    ratios = span(plans.surface_ratios, "bench.check")
    answers = {}
    for trace, queries in plans.sweep_order(args.seed):
        # One store object per trace, as one `repro sweep TRACE` has,
        # so peak memory does not depend on the order of the traces.
        store = TraceStore(args.store)
        batch = run_batch([Query(spec=SweepSpec(**fields))
                           for _, fields in queries], store.load(trace))
        for (query, _), surface in zip(queries, batch.surfaces):
            answers[query] = {"engine": surface.meta["engine"],
                              "ratios": ratios(surface)}
        del batch
        store.close()
    return 0, answers


def _store_import():
    from repro.workloads.store import TraceStore
    return TraceStore


def _trace_build(args, span):
    TraceStore = span(_store_import, "cli.lazy_import")()
    # One store object per scenario and step, as one `repro trace
    # NAME` has, so peak memory does not depend on the order.
    order = plans.scenario_order(args.seed)
    for name in order:
        writer = TraceStore(args.store)
        writer.ensure(name)
        writer.close()
    digest = span(plans.trace_digest, "bench.check")
    digests = {}
    for name in order:
        reader = TraceStore(args.store)
        digests[name] = digest(reader.load(name))
        reader.close()
    return 0, digests


def _setup(args):
    """The one-time preparation before a run's timed iterations."""
    if args.workload == "reproduce":
        # A cold `repro run`: generates the trace into the empty store
        # and fills the sweep-result cache.
        return _reproduce(args, None)[0]
    TraceStore = _store_import()
    store = TraceStore(args.store)
    if args.workload == "sweep":
        for name in plans.SCENARIOS:
            store.ensure(name)
    # trace-build needs nothing: opening the empty store is its set-up.
    store.close()
    return 0


def _stamp():
    from repro.sweep import numpy_available
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(),
            "numpy": numpy_version,
            "repro": getattr(repro, "__version__", "unknown"),
            # What engine="auto" resolves to for an eligible sweep.
            "engine": "numpy" if numpy_available() else "single-pass"}


def _untraced(fn, name):
    return fn


_BODIES = {"reproduce": _reproduce, "sweep": _sweep,
           "trace-build": _trace_build}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(_BODIES),
                        required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--runs", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args()

    record = {"startup_s": (_IMPORT_END - _SPAWN_NS) / 1e9}
    if args.setup:
        code = _setup(args)
        record["setup_s"] = (tracing.now_ns() - _IMPORT_END) / 1e9
        record["env"] = _stamp()  # after the clock: not set-up work
    else:
        body = _BODIES[args.workload]
        span = _untraced
        if args.trace:
            tracer = tracing.Tracer()
            tracer.add("cli.import", _IMPORT_START, _IMPORT_END)
            tracing.install(tracer)
            span = tracer.wrap
            # The body's own glue (building queries, looping) is the
            # benchmark's, not the program's.
            body = tracer.wrap(body, "bench.body")
        code, record["output"] = body(args, span)
        if args.trace:
            record["spans"] = tracer.spans
            record["missing"] = tracer.missing
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
