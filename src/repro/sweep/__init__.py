"""Single-pass multi-configuration cache sweeps (the section-5 grids).

The classic design-space methodology -- replay one trace, read off
the whole hit-ratio surface -- as a subsystem:

* :mod:`repro.sweep.spec` -- :class:`SweepSpec` / :class:`HierarchySpec`,
  declarative descriptions of what to sweep;
* :mod:`repro.sweep.engine` -- the Mattson-style stack-distance
  engine: every LRU (size, associativity) point from one trace
  replay, plus the OPT/Belady reference stack;
* :mod:`repro.sweep.np_engine` -- the vectorized numpy twin of the
  stack-distance engine (optional extra, bitwise-identical, an order
  of magnitude faster on the paper trace);
* :mod:`repro.sweep.runner` -- engine selection (single-pass when
  eligible, per-configuration grid otherwise) and the warm-up window
  drivers, bitwise-equivalent to the ``simulate_*`` functions;
* :mod:`repro.sweep.surface` -- :class:`ResultSurface`: grid queries,
  iso-ratio thresholds, figure-shaped extraction.

Typical use::

    from repro.sweep import SweepSpec, run_sweep

    surface = run_sweep(SweepSpec(cache="itlb", double_pass=True),
                        events)
    surface.ratio(2, 512)                  # one grid point
    surface.smallest_size_reaching(0.99, 2)  # iso-ratio query

or, for the paper's figure pair in one declared object::

    from repro.sweep import paper_hierarchy, run_hierarchy

    itlb, icache = run_hierarchy(paper_hierarchy(include_opt=True),
                                 events)
"""

from repro.sweep.engine import MultiConfigLRU, OptStack, next_use_times
from repro.sweep.np_engine import NumpyMultiConfigLRU, numpy_available
from repro.sweep.planner import (
    BatchReport,
    BatchResult,
    Query,
    run_batch,
)
from repro.sweep.runner import (
    result_cache_key,
    run_hierarchy,
    run_hierarchy_planned,
    run_semantics_delta,
    run_sweep,
)
from repro.sweep.spec import (
    DEFAULT_SEMANTICS,
    HierarchySpec,
    PAPER_ASSOCIATIVITIES,
    PAPER_SIZES,
    SEMANTICS,
    SweepSpec,
    paper_hierarchy,
)
from repro.sweep.surface import ResultSurface, semantics_delta_table

__all__ = [
    "BatchReport",
    "BatchResult",
    "DEFAULT_SEMANTICS",
    "HierarchySpec",
    "MultiConfigLRU",
    "NumpyMultiConfigLRU",
    "OptStack",
    "PAPER_ASSOCIATIVITIES",
    "PAPER_SIZES",
    "Query",
    "ResultSurface",
    "SEMANTICS",
    "SweepSpec",
    "next_use_times",
    "numpy_available",
    "paper_hierarchy",
    "result_cache_key",
    "run_batch",
    "run_hierarchy",
    "run_hierarchy_planned",
    "run_semantics_delta",
    "run_sweep",
    "semantics_delta_table",
]
