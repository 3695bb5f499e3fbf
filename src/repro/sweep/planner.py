"""Batched sweep query planning: N queries, one trace pass per group.

The single-pass engine already computes a *whole* hit-ratio surface
from one replay, so N queries against the same trace should cost one
pass, not N.  This module is the layer that makes that true for
callers who arrive with several sweep specs (``repro sweep``'s
levels, a hierarchy) rather than one carefully crafted superset spec:

:class:`Query`
    One sweep question: a :class:`~repro.sweep.spec.SweepSpec`
    against the batch's trace.

:func:`run_batch`
    The planner.  Queries are answered from the disk
    :class:`~repro.workloads.library.ResultCache` when possible; the
    misses are grouped by everything that must match for two queries
    to share a replay (cache kind, line size, policy, warm-up,
    semantics, engine -- the trace itself is the batch's), the
    *superset* geometry (union of sizes, union of associativities) is
    run once per group through :func:`~repro.sweep.runner.run_sweep`,
    and each query's surface is *projected* out of the superset.

    Projection is bitwise-exact by construction: the stack-distance
    engine's per-level depth histograms are independent, and widening
    a level's cap never changes the hit counts at shallower depths
    (a reference past every swept way count simply misses
    everywhere), so the superset's counts for any sub-grid are the
    same integers an individual replay produces.  The projected
    surface's ``meta`` is reconstructed exactly as the individual
    run would have reported it (``trace_passes`` / ``aux_passes``
    reflect the query's own spec, not the superset's), which is what
    keeps batch-planned figures byte-identical to per-query runs.

    Groups that cannot merge -- the union geometry fails spec
    validation, the spec is not single-pass eligible, or the caller
    forced the ``grid`` engine -- fall back to individual
    :func:`~repro.sweep.runner.run_sweep` calls, counted in the
    :class:`BatchReport` so the fallback is visible, never silent.

Caching only engages for store-stamped traces (those carrying
``store_key`` / ``store_root``), exactly like :func:`run_sweep`;
grouping and projection work for any trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.sweep.runner import _result_cache, result_cache_key, run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.surface import ResultSurface
from repro.trace.columnar import as_trace
from repro.workloads.library import ResultCache

Assoc = Union[int, str]


def _spec_columns(spec: SweepSpec) -> List[Assoc]:
    """The column order a surface for *spec* iterates in."""
    columns: List[Assoc] = list(spec.associativities)
    if spec.include_full and "full" not in columns:
        columns.append("full")
    return columns


@dataclass(frozen=True)
class Query:
    """One sweep question against the batch's trace."""

    spec: SweepSpec


# -- planning --------------------------------------------------------------

def _group_key(spec: SweepSpec) -> Tuple:
    """Everything two specs must share to answer from one replay.

    Geometry (sizes, associativities, the reference-curve flags) is
    deliberately absent -- that is what the superset unions away.
    ``engine`` stays: it is part of the result-cache identity and of
    ``meta``, so an ``auto`` query and a ``single-pass`` query never
    share a surface even when their counts would agree.
    """
    return (spec.cache, spec.line_words, spec.policy,
            spec.warmup_fraction, spec.double_pass,
            spec.dispatched_only, spec.engine, spec.semantics)


def _superset_spec(specs: Sequence[SweepSpec]) -> Optional[SweepSpec]:
    """The union-geometry spec one replay of the group runs, or None
    when the group must fall back to individual runs.

    The union can be invalid where every member is valid (a size from
    one query need not divide an associativity from another), and
    non-eligible specs (non-LRU, non-power-of-two set counts, forced
    ``grid`` engine) have no superset-projection property to lean on;
    both answer None and the caller runs the queries one by one.
    """
    sizes = tuple(sorted({size for spec in specs
                          for size in spec.sizes}))
    int_assocs = tuple(sorted({assoc for spec in specs
                               for assoc in spec.associativities
                               if assoc != "full"}))
    wants_full = any(spec.wants_full_curve() for spec in specs)
    base = specs[0]
    if base.engine == "grid":
        return None
    try:
        merged = replace(
            base, sizes=sizes,
            associativities=int_assocs or ("full",),
            include_full=wants_full,
            include_opt=any(spec.include_opt for spec in specs),
            label="")
    except ValueError:
        return None
    if not merged.single_pass_eligible():
        return None
    return merged


def _project(spec: SweepSpec, superset: ResultSurface) -> ResultSurface:
    """*spec*'s surface read out of the superset's counts.

    ``meta`` is reconstructed to exactly what an individual
    single-pass run of *spec* reports: pass counts follow the query's
    own ``double_pass`` / ``include_opt`` flags (the superset may
    have unioned ``include_opt`` in for someone else), while engine,
    reference and measured counts are grid-independent within a
    group and carry over verbatim.
    """
    counts: Dict[Assoc, Dict[int, Tuple[int, int]]] = {}
    for assoc in _spec_columns(spec):
        row = superset.counts[assoc]
        counts[assoc] = {size: row[size] for size in spec.sizes}
    opt_counts = None
    if spec.include_opt:
        opt_counts = {size: superset.opt_counts[size]
                      for size in spec.sizes}
    passes = 2 if spec.double_pass else 1
    aux = 1
    if spec.include_opt:
        passes *= 2
        aux += 1
    meta = {
        "engine": superset.meta["engine"],
        "semantics": spec.semantics,
        "trace_passes": passes,
        "aux_passes": aux,
        "events": superset.meta["events"],
        "references": superset.meta["references"],
        "measured": superset.meta["measured"],
    }
    return ResultSurface(spec, counts, opt_counts, meta)


@dataclass
class BatchReport:
    """What one planned batch actually cost, for footers/telemetry."""

    queries: int = 0
    #: Engine replays that actually ran (superset runs + fallbacks).
    replays: int = 0
    #: Simulation passes over the trace those replays performed.
    trace_passes: int = 0
    #: Queries answered from a superset replay shared with >= 1 other.
    coalesced: int = 0
    #: Superset groups formed (however they were then satisfied).
    groups: int = 0
    #: Queries run individually because their group could not merge.
    fallbacks: int = 0
    #: Queries answered from their own result-cache entry.
    disk_hits: int = 0
    #: Whole groups answered from a cached superset surface.
    superset_hits: int = 0


@dataclass
class BatchResult:
    """Per-query surfaces (aligned with the input order) + the bill."""

    queries: List[Query]
    surfaces: List[ResultSurface]
    report: BatchReport = field(default_factory=BatchReport)


def run_batch(queries: Sequence[Query], events) -> BatchResult:
    """Answer every query over one trace with as few replays as the
    grouping rules allow.  See the module docstring for the pipeline;
    the returned surfaces are bitwise-identical to per-query
    :func:`~repro.sweep.runner.run_sweep` results (pinned by
    tests/test_planner.py).
    """
    queries = list(queries)
    events = as_trace(events)
    trace_key = getattr(events, "store_key", None)
    store_root = getattr(events, "store_root", None)
    disk = _result_cache(store_root) \
        if trace_key and store_root and ResultCache.enabled() else None

    report = BatchReport(queries=len(queries))
    telemetry.inc("planner.queries", len(queries))
    surfaces: List[Optional[ResultSurface]] = [None] * len(queries)
    keys: List[Optional[str]] = [None] * len(queries)
    pending: Dict[Tuple, List[int]] = {}

    with telemetry.span("planner.batch", queries=len(queries)) as sp:
        for i, query in enumerate(queries):
            if disk is not None:
                keys[i] = result_cache_key(query.spec, trace_key)
                payload = disk.get(keys[i])
                surface = None if payload is None \
                    else ResultSurface.from_payload(query.spec, payload)
                if surface is not None:
                    surfaces[i] = surface
                    report.disk_hits += 1
                    telemetry.inc("planner.cache_hit", tier="disk")
                    continue
            pending.setdefault(_group_key(query.spec), []).append(i)

        for indexes in pending.values():
            report.groups += 1
            merged = _superset_spec([queries[i].spec for i in indexes])
            if merged is None:
                for i in indexes:
                    surfaces[i] = run_sweep(queries[i].spec, events)
                    report.fallbacks += 1
                    report.replays += 1
                    report.trace_passes += \
                        surfaces[i].meta.get("trace_passes", 0)
                    telemetry.inc("planner.fallback")
                continue
            superset = _run_superset(merged, events, trace_key, disk,
                                     len(indexes), report)
            for i in indexes:
                surfaces[i] = _project(queries[i].spec, superset)
                if disk is not None:
                    disk.put(keys[i], surfaces[i].to_payload())
        sp.set(replays=report.replays, coalesced=report.coalesced,
               cache_hits=report.disk_hits)
    return BatchResult(queries=queries, surfaces=surfaces,
                       report=report)


def _run_superset(merged: SweepSpec, events, trace_key: Optional[str],
                  disk: Optional[ResultCache], group_size: int,
                  report: BatchReport) -> ResultSurface:
    """One group's superset surface.

    :func:`~repro.sweep.runner.run_sweep` consults and fills the disk
    cache itself and emits the ``sweep.run`` span / ``sweep.replay``
    counter, so a superset replay is indistinguishable from any other
    sweep in the telemetry.
    """
    cached = disk is not None \
        and disk.contains(result_cache_key(merged, trace_key))
    surface = run_sweep(merged, events)
    if cached:
        report.superset_hits += 1
        telemetry.inc("planner.cache_hit", tier="superset")
        return surface
    report.replays += 1
    report.trace_passes += surface.meta.get("trace_passes", 0)
    telemetry.inc("planner.replays")
    if group_size > 1:
        report.coalesced += group_size
        telemetry.inc("planner.coalesced", group_size)
    return surface
