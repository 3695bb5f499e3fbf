"""Drivers: a SweepSpec plus a trace -> a ResultSurface.

``run_sweep`` picks the execution engine per spec:

* **stack distance** (:class:`~repro.sweep.np_engine.NumpyMultiConfigLRU`)
  when ``engine="auto"`` and the spec is LRU with power-of-two set
  counts -- one simulation replay of the trace (two under the paper's
  double-pass warm-up) produces every grid cell at once.  Its surfaces
  record ``meta["engine"] == "numpy"``.
* **grid** otherwise (or on request) -- one
  :func:`~repro.trace.cachesim.simulate_itlb` /
  :func:`~repro.trace.cachesim.simulate_icache` call per cell, which
  supports any replacement policy and geometry.  The grid is the
  reference oracle the stack-distance engine is tested against.

Both paths produce *bitwise identical* hit ratios for LRU specs:
driver and ``simulate_*`` functions alike place the warm-up window
with :func:`repro.trace.semantics.reset_index`, the single audited
home of the versioned measurement semantics (``"paper"`` preserves
the historical quirk family bit-for-bit; ``"v2"`` fixes it).  The
equivalence is pinned by tests/test_sweep.py under both versions.

``meta["trace_passes"]`` counts *simulation replays* of the event
stream -- the number of times a cache model observed every reference.
Cheap preprocessing (building the filtered reference columns, the OPT
next-use scan) is not a simulation replay and is reported separately
as ``meta["aux_passes"]``.

Reference streams are *columns*, not event objects: the drivers read
the packed int columns of a :class:`~repro.trace.columnar.Trace`
directly (the icache stream for one-word lines is literally the
trace's address column, zero-copy) and feed the engine through
:meth:`~repro.sweep.np_engine.NumpyMultiConfigLRU.replay_columns`.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import asdict
from typing import Dict, Optional, Sequence, Tuple

from repro import telemetry
from repro.sweep import np_engine
from repro.sweep.engine import OptStack
from repro.sweep.spec import SweepSpec
from repro.sweep.surface import Cell, ResultSurface
from repro.trace.cachesim import simulate_icache, simulate_itlb
from repro.trace.columnar import Trace
from repro.trace.semantics import reset_index
from repro.workloads.library import ResultCache

#: A reference stream: parallel (block identity, placement) columns.
RefColumns = Tuple[Sequence, Sequence[int]]

#: The engine-semantics version, part of every result-cache key: bump
#: it whenever ANY engine's measured counts could change (a
#: replacement-model fix, a warm-up change, a placement-hash change),
#: so stale cached surfaces can only ever miss, never misreport.
#: Measurement-*semantics* differences (``"paper"`` vs ``"v2"``) are
#: already in the spec and need no bump.
ENGINE_VERSION = 1


def result_cache_key(spec: SweepSpec, trace_key: str) -> str:
    """The content key one (trace, sweep) query memoizes under.

    Canonical JSON over the trace's store key, the *full* spec
    (minus the display-only ``label`` -- two labels of the same sweep
    share one result; note ``engine`` stays in the key, so the
    engine-equivalence pins always compare freshly computed
    surfaces), and :data:`ENGINE_VERSION`.
    """
    identity = asdict(spec)
    identity.pop("label", None)
    blob = json.dumps(
        {"trace": trace_key, "spec": identity,
         "engine_version": ENGINE_VERSION},
        sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# -- reference streams ----------------------------------------------------

def _itlb_ref_columns(trace: Trace, dispatched_only: bool) -> RefColumns:
    """The (key, stable hash) columns the ITLB sees, built once per
    trace view (:func:`~repro.sweep.np_engine.np_itlb_ref_columns`).

    A :class:`~repro.trace.columnar.Trace` keeps the columns for as
    long as it lives (:meth:`~repro.trace.columnar.Trace.derived`), so
    the ITLB queries of one batch share one build.  The engines only
    read them.
    """
    return trace.derived(
        ("itlb-refs", dispatched_only),
        lambda: np_engine.np_itlb_ref_columns(
            trace.opcodes(), trace.receiver_classes(),
            np_engine.np_dispatched_indices(trace) if dispatched_only
            else None))


def _icache_ref_columns(trace: Trace, line_words: int) -> RefColumns:
    """The (block, block) columns the icache sees (modulo indexing).

    For one-word lines the address column itself serves as both
    identity and placement -- a zero-copy view, nothing built at all.
    """
    addresses = trace.addresses()
    if line_words == 1:
        return addresses, addresses
    blocks = array("q", (address // line_words for address in addresses))
    return blocks, blocks


def _reset_touch(spec: SweepSpec, trace: Trace,
                 n_refs: int) -> Optional[int]:
    """Where in the *reference* stream the warm-up stats reset lands.

    Delegates to the versioned semantics module so the stack-distance
    driver and the ``simulate_*`` loops agree reference-for-reference
    under either semantics version.
    """
    return reset_index(spec.semantics, spec.cache, trace, n_refs,
                       warmup_fraction=spec.warmup_fraction,
                       dispatched_only=spec.dispatched_only)


def _ref_columns(spec: SweepSpec, trace: Trace) -> RefColumns:
    if spec.cache == "itlb":
        return _itlb_ref_columns(trace, spec.dispatched_only)
    return _icache_ref_columns(trace, spec.line_words)


# -- the OPT reference curve (either engine) -------------------------------

def _opt_counts(spec: SweepSpec, blocks: Sequence,
                reset_at: Optional[int]) -> Dict[int, Cell]:
    """OPT's (hits, misses) at every swept size, counted after the
    spec's warm-up: the first of two passes under ``double_pass``,
    else the references before ``reset_at`` (none when it is None)."""
    n_refs = len(blocks)
    opt = OptStack(max(spec.entries(s) for s in spec.sizes))
    if spec.double_pass:
        doubled = list(blocks)
        doubled += doubled
        next_use = np_engine.np_next_use_times(doubled)
        for i in range(n_refs):
            opt.touch(blocks[i], next_use[i], count=False)
        for i in range(n_refs):
            opt.touch(blocks[i], next_use[n_refs + i], count=True)
    else:
        next_use = np_engine.np_next_use_times(blocks)
        for index in range(n_refs):
            opt.touch(blocks[index], next_use[index],
                      count=(reset_at is None or index >= reset_at))
    return {size: (opt.hits(spec.entries(size)),
                   opt.total - opt.hits(spec.entries(size)))
            for size in spec.sizes}


# -- the stack-distance path -----------------------------------------------

def _geometry(spec: SweepSpec) -> Tuple[Dict[int, int], int]:
    """(level caps keyed by log2(num_sets), single-set depth bound)."""
    level_caps: Dict[int, int] = {}
    full_cap = 0
    for size, assoc in spec.lru_configs():
        sets = spec.num_sets(size, assoc)
        if sets == 1:
            full_cap = max(full_cap, assoc)
        else:
            k = sets.bit_length() - 1
            level_caps[k] = max(level_caps.get(k, 0), assoc)
    if spec.wants_full_curve():
        full_cap = max(full_cap, max(spec.entries(s) for s in spec.sizes))
    return level_caps, full_cap


def _run_single_pass(spec: SweepSpec, trace: Trace) -> ResultSurface:
    blocks, placements = _ref_columns(spec, trace)
    n_refs = len(blocks)
    level_caps, full_cap = _geometry(spec)
    engine = np_engine.NumpyMultiConfigLRU(level_caps, full_cap)

    reset_at = None
    if spec.double_pass:
        engine.replay_columns(blocks, placements, count=False)
        engine.replay_columns(blocks, placements, count=True)
        passes = 2
    else:
        reset_at = _reset_touch(spec, trace, n_refs)
        # Counting-then-resetting is the same as not counting (state
        # evolution never depends on the counters), so the warm-up
        # window splits into two bulk replays around the reset point.
        if reset_at is None:
            engine.replay_columns(blocks, placements, count=True)
        else:
            engine.replay_columns(blocks, placements,
                                  stop=reset_at, count=False)
            engine.replay_columns(blocks, placements,
                                  start=reset_at, count=True)
        passes = 1
    aux = 1  # the reference-stream build
    opt_counts = None
    if spec.include_opt:
        opt_counts = _opt_counts(spec, blocks, reset_at)
        passes += 2 if spec.double_pass else 1
        aux += 1  # the next-use scan

    total = engine.total
    counts: Dict[object, Dict[int, Cell]] = {}
    columns = list(spec.associativities)
    if spec.include_full and "full" not in columns:
        columns.append("full")
    for assoc in columns:
        row: Dict[int, Cell] = {}
        for size in spec.sizes:
            if assoc == "full":
                hits = engine.full_hits(spec.entries(size))
            else:
                sets = spec.num_sets(size, assoc)
                if sets == 1:
                    hits = engine.full_hits(assoc)
                else:
                    hits = engine.hits(sets.bit_length() - 1, assoc)
            row[size] = (hits, total - hits)
        counts[assoc] = row

    return ResultSurface(spec, counts, opt_counts, {
        "engine": "numpy",
        "semantics": spec.semantics,
        "trace_passes": passes,
        "aux_passes": aux,
        "events": len(trace),
        "references": n_refs,
        "measured": total,
    })


# -- the per-configuration grid path ---------------------------------------

def _simulate_cell(spec: SweepSpec, trace: Trace,
                   size: int, assoc) -> Cell:
    kwargs = dict(policy=spec.policy,
                  warmup_fraction=spec.warmup_fraction,
                  double_pass=spec.double_pass,
                  semantics=spec.semantics)
    if spec.cache == "itlb":
        stats = simulate_itlb(trace, size, assoc,
                              dispatched_only=spec.dispatched_only,
                              **kwargs)
    else:
        stats = simulate_icache(trace, size, assoc,
                                line_words=spec.line_words, **kwargs)
    return stats.hits, stats.misses


def _run_grid(spec: SweepSpec, trace: Trace) -> ResultSurface:
    per_sim = 2 if spec.double_pass else 1
    passes = 0
    counts: Dict[object, Dict[int, Cell]] = {}
    columns = list(spec.associativities)
    if spec.include_full and "full" not in columns:
        columns.append("full")
    for assoc in columns:
        row: Dict[int, Cell] = {}
        for size in spec.sizes:
            row[size] = _simulate_cell(spec, trace, size, assoc)
            passes += per_sim
        counts[assoc] = row

    # OPT has no per-configuration simulator: its stack pass over the
    # reference stream is the one implementation, under either engine.
    opt_counts = None
    aux = 0
    if spec.include_opt:
        blocks, _ = _ref_columns(spec, trace)
        reset_at = (None if spec.double_pass
                    else _reset_touch(spec, trace, len(blocks)))
        opt_counts = _opt_counts(spec, blocks, reset_at)
        passes += per_sim
        aux = 2  # the reference-stream build and the next-use scan
    return ResultSurface(spec, counts, opt_counts, {
        "engine": "grid",
        "semantics": spec.semantics,
        "trace_passes": passes,
        "aux_passes": aux,
        "events": len(trace),
        "configurations": sum(len(row) for row in counts.values()),
    })


# -- public entry points ---------------------------------------------------

def run_sweep(spec: SweepSpec, events: Trace) -> ResultSurface:
    """Execute one sweep over a columnar trace, choosing the engine
    per spec.

    Store-backed traces (those carrying a ``store_key`` stamp) are
    memoized through the on-disk result cache: a repeated query
    reconstructs the surface from
    :meth:`~repro.sweep.surface.ResultSurface.to_payload` -- ``meta``
    verbatim, so cached figures render byte-identically -- without
    replaying a single reference.  The ``sweep.replay`` counter
    increments only when an engine actually ran, which is how "a
    repeated run performs zero replays" is asserted.  A replayed
    surface is written to the cache here, once;
    :func:`~repro.sweep.planner.run_batch` only reads it.
    """
    cache = key = None
    trace_key = events.store_key
    if trace_key and events.store_root and ResultCache.enabled():
        cache = ResultCache(events.store_root)
        key = result_cache_key(spec, trace_key)
        payload = cache.get(key)
        if payload is not None:
            surface = ResultSurface.from_payload(spec, payload)
            if surface is not None:
                with telemetry.span("sweep.run", cache=spec.cache,
                                    engine=spec.engine) as sp:
                    sp.set(outcome="result-cache-hit",
                           resolved_engine=surface.meta.get("engine"))
                return surface
            # Decoded JSON but not a surface document: rewrite below.
    with telemetry.span("sweep.run", cache=spec.cache,
                        engine=spec.engine) as sp:
        start = time.perf_counter()
        surface = _dispatch(spec, events)
        elapsed = time.perf_counter() - start
        meta = surface.meta
        sp.set(resolved_engine=meta["engine"],
               trace_passes=meta["trace_passes"],
               references=meta.get("references", meta.get("events")))
        telemetry.inc("sweep.replay", cache=spec.cache,
                      engine=meta["engine"])
        if telemetry.enabled() and elapsed > 0:
            replayed = ((meta.get("references")
                         or meta.get("events") or 0)
                        * max(1, meta["trace_passes"]))
            telemetry.observe("sweep.replay_events_per_sec",
                              replayed / elapsed,
                              cache=spec.cache, engine=meta["engine"])
    if cache is not None:
        cache.put(key, surface.to_payload())
    return surface


def _dispatch(spec: SweepSpec, events: Trace) -> ResultSurface:
    """Engine selection (see :func:`run_sweep`)."""
    if spec.engine == "auto" and spec.single_pass_eligible():
        return _run_single_pass(spec, events)
    return _run_grid(spec, events)


def run_semantics_delta(
    spec: SweepSpec, events: Trace,
) -> Tuple[ResultSurface, ResultSurface, Dict[object, Dict[int, float]]]:
    """One spec under both semantics: (paper, v2, v2 - paper ratios).

    Quantifies what the paper's warm-up quirk family costs on this
    grid instead of leaving it buried in the pinned figures.  The
    delta is per cell (``delta[assoc][size]``, v2 ratio minus paper
    ratio) and is identically zero for double-pass specs -- the quirks
    live entirely in the single-pass fraction window.
    """
    from dataclasses import replace
    paper = run_sweep(replace(spec, semantics="paper"), events)
    v2 = run_sweep(replace(spec, semantics="v2"), events)
    delta = {assoc: {size: v2.ratio(assoc, size) - paper.ratio(assoc, size)
                     for size in row}
             for assoc, row in paper.counts.items()}
    return paper, v2, delta
