"""Batched sweep queries (repro.sweep.planner.run_batch).

``run_batch`` answers each query in input order: from the disk result
cache when the trace is store-backed, otherwise by ``run_sweep``.  Its
surfaces must be exactly what per-query ``run_sweep`` calls return --
counts, meta, iteration order -- under both measurement semantics and
every engine, and a cold query must be written to the result cache
once.

``TestProjectionEquivalence`` and ``TestGrouping`` keep the names they
had when the planner projected answers out of a merged superset
replay; they now pin that every query gets its own replay with the
same answer.
"""

import json
from dataclasses import replace

import pytest

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.sweep import (
    PAPER_SIZES,
    Query,
    SweepSpec,
    result_cache_key,
    run_batch,
    run_sweep,
)
from repro.sweep import np_engine
from repro.sweep.runner import _RESULT_CACHES
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import TraceStore
from trace_helpers import mixed_trace, trace_of


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.setattr(faults, "_ACTIVE", None)
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    _RESULT_CACHES.clear()
    yield
    faults.install(None)
    telemetry.install(None)
    _RESULT_CACHES.clear()


def _store_trace(tmp_path, length=512):
    def build(length=length):
        return trace_of(((i * 37) % 251 - 17, 1 + i % 7, i % 5,
                         bool(i % 2)) for i in range(length))
    spec = WorkloadSpec(name="synthetic", description="test-only",
                        build=build, defaults={"length": length})
    store = TraceStore(tmp_path)
    return store, store.load(spec)


def _counters(sink):
    telemetry.finalize()
    return json.loads((sink / "metrics.json").read_text())["counters"]


def _assert_bitwise_equal(got, want):
    """The batch's surface IS the individual run's, bit for bit."""
    assert got.counts == want.counts
    assert got.opt_counts == want.opt_counts
    assert got.meta == want.meta
    assert list(got.counts) == list(want.counts)       # iteration order
    for assoc in got.counts:
        assert list(got.counts[assoc]) == list(want.counts[assoc])


#: Both caches, both semantics, warm-up windows and reference curves,
#: plus one FIFO spec the single-pass engine cannot run (grid engine).
MIXED = [
    SweepSpec(cache="itlb", associativities=(1, 2, 4, "full"),
              double_pass=True, include_opt=True),
    SweepSpec(cache="icache", sizes=(64, 8, 512),
              associativities=("full",), warmup_fraction=0.25,
              semantics="v2"),
    SweepSpec(cache="itlb", sizes=(16, 32), associativities=(2,),
              warmup_fraction=0.9, semantics="v2"),
    SweepSpec(cache="icache", sizes=(8, 16), associativities=(1, 2),
              policy="fifo"),
    SweepSpec(cache="icache", sizes=(16, 64), associativities=(1, 4),
              line_words=4, include_full=True, warmup_fraction=0.25),
]

#: Three store-backed queries no two of which share a replay.
QUERIES = [
    Query(spec=SweepSpec(cache="itlb", sizes=(8, 16),
                         associativities=(1,))),
    Query(spec=SweepSpec(cache="icache", sizes=(16, 32),
                         associativities=(2,))),
    Query(spec=SweepSpec(cache="itlb", sizes=(16, 32),
                         associativities=(2,), semantics="v2")),
]


GRID = dict(sizes=PAPER_SIZES, associativities=(1, 2, 4, "full"))
SEMANTICS = ("paper", "v2")
ENGINE_MODES = ("pure", "auto-sans-numpy", "numpy")


@pytest.fixture(scope="module")
def events():
    return mixed_trace(3000, seed=11)


def _paper_grid_queries(cache, engine, semantics):
    """A batch over one cache kind: the full-grid sweep plus curve /
    isoratio / point sub-grids of it."""
    common = dict(engine=engine, semantics=semantics, double_pass=True)
    full = SweepSpec(cache=cache, include_opt=True, **GRID, **common)
    curve_1 = SweepSpec(cache=cache, sizes=PAPER_SIZES,
                        associativities=(1,), **common)
    curve_f = SweepSpec(cache=cache, sizes=PAPER_SIZES,
                        associativities=("full",), **common)
    iso = SweepSpec(cache=cache, sizes=PAPER_SIZES,
                    associativities=(2, 4), **common)
    point = SweepSpec(cache=cache, sizes=(64,), associativities=(2,),
                      **common)
    return [Query(spec=spec)
            for spec in (full, curve_1, curve_f, iso, point)]


class TestProjectionEquivalence:
    """Batch answers bitwise-equal to individual ``run_sweep`` runs,
    both semantics, every engine."""

    def _engine(self, mode, monkeypatch):
        if mode == "numpy":
            pytest.importorskip("numpy")
            return "numpy"
        if mode == "auto-sans-numpy":
            monkeypatch.setattr(np_engine, "numpy_available",
                                lambda: False)
            return "auto"
        return "single-pass"

    @pytest.mark.parametrize("engine_mode", ENGINE_MODES)
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_mixed_batch_projection_equivalence(self, events, semantics,
                                                engine_mode,
                                                monkeypatch):
        engine = self._engine(engine_mode, monkeypatch)
        queries = []
        for cache in ("itlb", "icache"):
            queries.extend(_paper_grid_queries(cache, engine, semantics))
        batch = run_batch(queries, events)
        assert batch.report.queries == len(queries)
        # Sub-grids of one sweep are not merged: each query replays.
        assert batch.report.replays == len(queries)
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_every_paper_grid_cell_equivalence(self, events, semantics):
        """Every (associativity, size) cell of the paper grid, asked
        as its own one-cell query, equals the full-grid run's cell."""
        full = SweepSpec(cache="itlb", semantics=semantics,
                         double_pass=True, **GRID)
        cells = [(assoc, size) for assoc in (1, 2, 4, "full")
                 for size in PAPER_SIZES]
        queries = [Query(spec=replace(full, sizes=(size,),
                                      associativities=(assoc,)))
                   for assoc, size in cells]
        batch = run_batch(queries, events)
        assert batch.report.replays == len(cells)
        solo = run_sweep(full, events)
        for (assoc, size), surface in zip(cells, batch.surfaces):
            assert list(surface.counts) == [assoc]
            assert surface.cell(assoc, size) == solo.cell(assoc, size)
            assert surface.ratio(assoc, size) == solo.ratio(assoc, size)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_warmup_window_projection_equivalence(self, events,
                                                  semantics):
        # Warm-up windows measure a *suffix* of the trace; the batch
        # must measure the same window as run_sweep.
        for warmup in (0.0, 0.25, 0.9):
            spec_a = SweepSpec(cache="icache", sizes=(8, 16, 32),
                               associativities=(1,), double_pass=False,
                               warmup_fraction=warmup,
                               semantics=semantics)
            spec_b = SweepSpec(cache="icache", sizes=(16, 64),
                               associativities=(2, "full"),
                               double_pass=False,
                               warmup_fraction=warmup,
                               semantics=semantics)
            batch = run_batch([Query(spec=spec_a), Query(spec=spec_b)],
                              events)
            assert batch.report.replays == 2
            for query, surface in zip(batch.queries, batch.surfaces):
                _assert_bitwise_equal(surface,
                                      run_sweep(query.spec, events))


class TestGrouping:
    """Queries that differ in any spec field never share an answer:
    each gets its own result-cache entry and its own replay."""

    @pytest.mark.parametrize("field,values", [
        ("cache", ("itlb", "icache")),
        ("semantics", ("paper", "v2")),
        ("warmup_fraction", (0.25, 0.5)),
        ("dispatched_only", (True, False)),
        ("engine", ("auto", "single-pass")),
    ])
    def test_differing_field_splits_the_group(self, tmp_path, field,
                                              values):
        _, events = _store_trace(tmp_path)
        specs = [SweepSpec(**{**dict(cache="itlb", sizes=(8, 16),
                                     associativities=(1,)),
                              field: value}) for value in values]
        batch = run_batch([Query(spec=spec) for spec in specs], events)
        assert batch.report.replays == 2
        assert batch.report.disk_hits == 0
        assert [surface.spec for surface in batch.surfaces] == specs

    def test_double_pass_and_window_split_the_group(self, tmp_path):
        _, events = _store_trace(tmp_path)
        a = SweepSpec(cache="itlb", sizes=(8,), associativities=(1,),
                      double_pass=True)
        b = SweepSpec(cache="itlb", sizes=(8,), associativities=(1,),
                      double_pass=False, warmup_fraction=0.25)
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.replays == 2
        assert batch.report.disk_hits == 0

    def test_grid_engine_falls_back_loudly(self, events):
        # A forced grid engine is honoured per query, and each surface
        # says which engine produced it.
        spec = SweepSpec(cache="itlb", sizes=(8, 16),
                         associativities=(1, 2), engine="grid")
        other = SweepSpec(cache="itlb", sizes=(32,),
                          associativities=(1,), engine="grid")
        batch = run_batch([Query(spec=spec), Query(spec=other)], events)
        assert batch.report.replays == 2
        for query, surface in zip(batch.queries, batch.surfaces):
            assert surface.meta["engine"] == "grid"
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))


def test_mixed_batch_matches_per_query_run_sweep(events):
    queries = [Query(spec=spec) for spec in MIXED]
    batch = run_batch(queries, events)
    assert batch.queries == queries
    assert len(batch.surfaces) == len(queries)
    assert batch.report.queries == batch.report.replays == len(queries)
    assert batch.report.disk_hits == 0
    assert batch.surfaces[3].meta["engine"] == "grid"
    for query, surface in zip(queries, batch.surfaces):
        assert surface.spec == query.spec
        _assert_bitwise_equal(surface, run_sweep(query.spec, events))


class TestCacheInterplay:
    def test_cold_batch_writes_each_query_once(self, tmp_path):
        _, events = _store_trace(tmp_path)
        telemetry.install(tmp_path / "t")
        run_batch(QUERIES, events)
        counters = _counters(tmp_path / "t")
        assert counters["result_cache.put"] == len(QUERIES)
        # Two probes per cold query: the batch's and run_sweep's.
        assert counters["result_cache.miss"] == 2 * len(QUERIES)

    def test_fresh_process_hits_the_disk_tier(self, tmp_path):
        _, events = _store_trace(tmp_path)
        cold = run_batch(QUERIES, events)
        telemetry.install(tmp_path / "t")
        warm = run_batch(QUERIES, events)
        assert warm.report.replays == 0
        assert warm.report.disk_hits == len(QUERIES)
        for got, want in zip(warm.surfaces, cold.surfaces):
            _assert_bitwise_equal(got, want)
        counters = _counters(tmp_path / "t")
        assert not any(key.startswith(("sweep.replay", "result_cache.put"))
                       for key in counters)

    def test_batched_surfaces_serve_later_run_sweep_calls(self,
                                                          tmp_path):
        store, events = _store_trace(tmp_path)
        run_batch(QUERIES, events)
        for query in QUERIES:
            key = result_cache_key(query.spec, events.store_key)
            assert store.result_cache().path_for(key).is_file()
        telemetry.install(tmp_path / "t")
        run_sweep(QUERIES[0].spec, events)
        assert _counters(tmp_path / "t")["result_cache.hit"] == 1

    def test_unstamped_trace_replays_every_batch(self, tmp_path):
        _, stamped = _store_trace(tmp_path)
        bare = stamped[:]  # a slice carries no store stamp
        for _ in range(2):
            batch = run_batch(QUERIES, bare)
            assert batch.report.replays == len(QUERIES)
            assert batch.report.disk_hits == 0

    def test_kill_switch_disables_the_cache(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        store, events = _store_trace(tmp_path)
        for _ in range(2):
            batch = run_batch(QUERIES, events)
            assert batch.report.replays == len(QUERIES)
            assert batch.report.disk_hits == 0
        assert store.result_cache().stats()["entries"] == 0


def test_cli_sweep_prints_planner_footer(tmp_path, capsys):
    args = ["sweep", "monomorphic", "--quick", "--sizes", "8,16",
            "--assoc", "1", "--trace-dir", str(tmp_path)]
    assert cli_main(args) == 0
    assert capsys.readouterr().out.endswith(
        "\n[planner: 2 queries -> 2 replay(s), 0 cache hit(s)]\n")
    assert cli_main(args + ["--cache", "itlb"]) == 0
    assert capsys.readouterr().out.endswith(
        "\n[planner: 1 query -> 0 replay(s), 1 cache hit(s)]\n")


class TestTelemetry:
    def test_batch_emits_planner_counters_and_span(self, tmp_path):
        _, events = _store_trace(tmp_path)
        telemetry.install(tmp_path / "t")
        run_batch(QUERIES, events)
        run_batch(QUERIES[:2], events)
        counters = _counters(tmp_path / "t")
        assert counters["planner.queries"] == len(QUERIES) + 2
        assert counters["planner.replays"] == len(QUERIES)
        assert counters["planner.cache_hit{tier=disk}"] == 2
        spans = (tmp_path / "t" / "spans.jsonl").read_text()
        assert "planner.batch" in spans
