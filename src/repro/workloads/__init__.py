"""Named, parameterized, cached workloads (the scenario registry).

This package is the workload layer the harness, benchmarks, tests and
examples share:

* :mod:`repro.workloads.spec` -- the :class:`WorkloadSpec` registry of
  scenario generators;
* :mod:`repro.workloads.store` -- the on-disk trace store
  (``.repro_traces/``), content-keyed by spec name + parameters +
  generator version, so a trace is generated once per machine and
  loaded thereafter;
* :mod:`repro.workloads.scenarios` -- the registered catalogue
  (imported here for its registration side effects).

Typical use::

    from repro.workloads import TraceStore

    store = TraceStore()                      # .repro_traces/
    events = store.load("paper")              # store-cached
    storm = store.load("megamorphic", classes=32)
"""

from repro.workloads.spec import WorkloadSpec, get, names, register, specs
from repro.workloads.store import TraceStore
from repro.workloads import scenarios as _scenarios  # noqa: F401 (registers)

__all__ = [
    "TraceStore",
    "WorkloadSpec",
    "get",
    "names",
    "register",
    "specs",
]
