"""Drivers: a SweepSpec plus a trace -> a ResultSurface.

``run_sweep`` picks the execution engine per spec:

* **numpy** (:class:`~repro.sweep.np_engine.NumpyMultiConfigLRU`) --
  the vectorized single-pass formulation.  ``engine="auto"`` uses it
  whenever the spec is single-pass eligible *and* numpy is importable
  (numpy is an optional extra, never a hard dependency);
  ``engine="numpy"`` requires it, raising the typed
  :class:`~repro.errors.BackendUnavailable` when the import is
  missing.  Bitwise-identical to the pure-python engine.
* **single-pass** (:class:`~repro.sweep.engine.MultiConfigLRU`) when
  the spec is LRU with power-of-two set counts -- one simulation
  replay of the trace (two under the paper's double-pass warm-up)
  produces every grid cell at once;
* **grid** otherwise (or on request) -- one
  :func:`~repro.trace.cachesim.simulate_itlb` /
  :func:`~repro.trace.cachesim.simulate_icache` call per cell, which
  supports any replacement policy and geometry.

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
trace's address column, zero-copy) and feed the engines through
:meth:`~repro.sweep.engine.MultiConfigLRU.replay_columns`.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import asdict
from typing import Dict, Optional, Sequence, Tuple

from repro import telemetry
from repro.caches.setassoc import stable_hash
from repro.sweep import np_engine
from repro.sweep.engine import MultiConfigLRU, OptStack, next_use_times
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

def _itlb_ref_columns(trace: Trace, dispatched_only: bool,
                      use_numpy: bool = False) -> RefColumns:
    """The (key, stable hash) columns the ITLB sees, built once per
    trace view.

    A :class:`~repro.trace.columnar.Trace` keeps the columns for as
    long as it lives (:meth:`~repro.trace.columnar.Trace.derived`), so
    the ITLB queries of one batch share one build.  The engines only
    read them.
    """
    return trace.derived(
        ("itlb-refs", dispatched_only, use_numpy),
        lambda: _build_itlb_ref_columns(trace, dispatched_only, use_numpy))


def _build_itlb_ref_columns(trace: Trace, dispatched_only: bool,
                            use_numpy: bool) -> RefColumns:
    """Build the (key, stable hash) columns the ITLB sees.

    Block identities are the opcode/class pair packed into one int
    (injective for the 32-bit column values), so the hot replay loop
    never builds a key tuple; the placement hash -- which must stay
    bitwise-identical to the set placement the real ITLB computes --
    is computed once per distinct key.  With ``use_numpy`` (the
    resolved engine is numpy) the dispatched indices are unpacked from
    the bitset in one pass, the keys are packed with array operations
    and the hashes gathered back over the stream
    (:func:`~repro.sweep.np_engine.np_itlb_ref_columns`); the loop
    below is the numpy-free path and returns the same bytes.
    """
    opcodes = trace.opcodes()
    classes = trace.receiver_classes()
    if use_numpy:
        return np_engine.np_itlb_ref_columns(
            opcodes, classes,
            np_engine.np_dispatched_indices(trace) if dispatched_only
            else None)
    indices = (trace.dispatched_indices() if dispatched_only
               else range(len(trace)))
    blocks = array("q")
    placements = array("Q")
    hashes: Dict[int, int] = {}
    block_append = blocks.append
    placement_append = placements.append
    for i in indices:
        opcode = opcodes[i]
        receiver = classes[i]
        packed = (opcode << 32) ^ (receiver & 0xFFFFFFFF)
        placement = hashes.get(packed)
        if placement is None:
            placement = hashes[packed] = stable_hash(
                (opcode, (receiver,)))
        block_append(packed)
        placement_append(placement)
    return blocks, placements


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

    Delegates to the versioned semantics module so the single-pass
    driver and the ``simulate_*`` loops agree reference-for-reference
    under either semantics version.
    """
    return reset_index(spec.semantics, spec.cache, trace, n_refs,
                       warmup_fraction=spec.warmup_fraction,
                       dispatched_only=spec.dispatched_only)


# -- the single-pass path --------------------------------------------------

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


def _run_single_pass(spec: SweepSpec, trace: Trace,
                     use_numpy: bool = False) -> ResultSurface:
    blocks, placements = (
        _itlb_ref_columns(trace, spec.dispatched_only, use_numpy)
        if spec.cache == "itlb"
        else _icache_ref_columns(trace, spec.line_words))
    n_refs = len(blocks)
    level_caps, full_cap = _geometry(spec)
    if use_numpy:
        engine = np_engine.NumpyMultiConfigLRU(level_caps, full_cap)
        next_use_fn = np_engine.np_next_use_times
    else:
        engine = MultiConfigLRU(level_caps, full_cap)
        next_use_fn = next_use_times
    opt = OptStack(max(spec.entries(s) for s in spec.sizes)) \
        if spec.include_opt else None

    passes = 0
    aux = 1  # the reference-stream build
    if spec.double_pass:
        engine.replay_columns(blocks, placements, count=False)
        engine.replay_columns(blocks, placements, count=True)
        passes += 2
        if opt is not None:
            doubled = list(blocks)
            doubled += doubled
            next_use = next_use_fn(doubled)
            for i in range(n_refs):
                opt.touch(blocks[i], next_use[i], count=False)
            for i in range(n_refs):
                opt.touch(blocks[i], next_use[n_refs + i], count=True)
            passes += 2
            aux += 1
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
        passes += 1
        if opt is not None:
            next_use = next_use_fn(blocks)
            aux += 1
            for index in range(n_refs):
                opt.touch(blocks[index], next_use[index],
                          count=(reset_at is None or index >= reset_at))
            passes += 1

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

    opt_counts = None
    if opt is not None:
        opt_counts = {size: (opt.hits(spec.entries(size)),
                             opt.total - opt.hits(spec.entries(size)))
                      for size in spec.sizes}
    return ResultSurface(spec, counts, opt_counts, {
        "engine": "numpy" if use_numpy else "single-pass",
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

    # OPT has no per-configuration simulator: the stack engine is the
    # only implementation, so the reference curve is computed the
    # single-pass way even under the grid engine.
    opt_counts = None
    aux = 0
    if spec.include_opt:
        opt_spec = SweepSpec(
            cache=spec.cache, sizes=spec.sizes, associativities=(1,),
            line_words=spec.line_words,
            warmup_fraction=spec.warmup_fraction,
            double_pass=spec.double_pass,
            dispatched_only=spec.dispatched_only,
            include_opt=True, engine="single-pass",
            semantics=spec.semantics)
        opt_surface = _run_single_pass(opt_spec, trace)
        opt_counts = opt_surface.opt_counts
        passes += 2 if spec.double_pass else 1
        aux = opt_surface.meta["aux_passes"]
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
    if spec.engine == "grid":
        return _run_grid(spec, events)
    eligible = spec.single_pass_eligible()
    if spec.engine == "numpy":
        np_engine.require_numpy()
        if not eligible:
            raise ValueError(
                f"spec is not single-pass eligible, so the numpy "
                f"backend cannot run it (policy={spec.policy!r}; set "
                f"counts must be powers of two): {spec}")
        return _run_single_pass(spec, events, use_numpy=True)
    if spec.engine == "single-pass" and not eligible:
        raise ValueError(
            f"spec is not single-pass eligible (policy={spec.policy!r}; "
            f"set counts must be powers of two): {spec}")
    if eligible:
        # "auto": the vectorized backend when the optional numpy extra
        # is importable, the pure-python engine otherwise -- both are
        # bitwise-identical, so the fallback is silent by design.
        use_numpy = (spec.engine == "auto"
                     and np_engine.numpy_available())
        return _run_single_pass(spec, events, use_numpy=use_numpy)
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
