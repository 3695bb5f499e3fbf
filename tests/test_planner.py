"""The batched query planner PR's acceptance surface (repro.sweep.planner).

The load-bearing guarantee is *projection equivalence*: answers the
planner projects out of one superset replay are bitwise-identical --
counts, meta, iteration order -- to what an individual
``run_sweep`` of each query's own spec produces, for every paper-grid
query, under both measurement semantics and both engines (numpy
present and absent).  CI runs the equivalence tests by name
(``-k "equivalence and paper"`` / ``-k "equivalence and v2"``) as a
dedicated gate.

Around that pin: grouping/coalescing rules, the loud fallback paths,
and the interplay with the disk result cache.
"""

import json
from dataclasses import replace

import pytest

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.sweep import (
    HierarchySpec,
    PAPER_SIZES,
    Query,
    SweepSpec,
    paper_hierarchy,
    result_cache_key,
    run_batch,
    run_hierarchy,
    run_hierarchy_planned,
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


@pytest.fixture(scope="module")
def events():
    return mixed_trace(3000, seed=11)


def _store_trace(tmp_path, length=512):
    def build(length=length):
        return trace_of(((i * 37) % 251 - 17, 1 + i % 7, i % 5,
                         bool(i % 2)) for i in range(length))
    spec = WorkloadSpec(name="synthetic", description="test-only",
                        build=build, defaults={"length": length})
    store = TraceStore(tmp_path)
    return store, store.load(spec)


def _assert_bitwise_equal(got, want):
    """The projected surface IS the individual run's, bit for bit."""
    assert got.counts == want.counts
    assert got.opt_counts == want.opt_counts
    assert got.meta == want.meta
    assert list(got.counts) == list(want.counts)       # iteration order
    for assoc in got.counts:
        assert list(got.counts[assoc]) == list(want.counts[assoc])


GRID = dict(sizes=PAPER_SIZES, associativities=(1, 2, 4, "full"))
SEMANTICS = ("paper", "v2")
ENGINE_MODES = ("pure", "auto-sans-numpy", "numpy")


def _paper_grid_queries(cache, engine, semantics):
    """A mixed batch over one cache kind: the full-grid sweep plus
    curve / isoratio / point sub-grids of it."""
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
    """Satellite: batch-planned answers bitwise-equal to individual
    ``run_sweep`` runs, both semantics, both engines."""

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
        # One superset replay per cache kind -- every other query in
        # the group is projected, never re-run.
        assert batch.report.replays == 2
        assert batch.report.coalesced == len(queries)
        assert batch.report.fallbacks == 0
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_every_paper_grid_cell_equivalence(self, events, semantics):
        """Every (associativity, size) cell of the paper grid, asked
        as its own one-cell query, batch-answered from <= 2 trace
        passes and bitwise-equal to the full-grid run's cell."""
        full = SweepSpec(cache="itlb", semantics=semantics,
                         double_pass=True, **GRID)
        cells = [(assoc, size) for assoc in (1, 2, 4, "full")
                 for size in PAPER_SIZES]
        queries = [Query(spec=replace(full, sizes=(size,),
                                      associativities=(assoc,)))
                   for assoc, size in cells]
        batch = run_batch(queries, events)
        assert batch.report.replays == 1
        assert batch.report.trace_passes <= 2     # the acceptance pin
        solo = run_sweep(full, events)
        for (assoc, size), surface in zip(cells, batch.surfaces):
            assert list(surface.counts) == [assoc]
            assert surface.cell(assoc, size) == solo.cell(assoc, size)
            assert surface.ratio(assoc, size) == solo.ratio(assoc, size)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_warmup_window_projection_equivalence(self, events,
                                                  semantics):
        # Warm-up windows measure a *suffix* of the trace; projection
        # must hold there too (the group key keeps windows apart).
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
            assert batch.report.replays == 1
            for query, surface in zip(batch.queries, batch.surfaces):
                _assert_bitwise_equal(surface,
                                      run_sweep(query.spec, events))


class TestGrouping:
    def test_disjoint_geometries_share_one_replay(self, events):
        a = SweepSpec(cache="itlb", sizes=(8, 32),
                      associativities=(1,))
        b = SweepSpec(cache="itlb", sizes=(16, 64),
                      associativities=(2, 4))
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.replays == 1
        assert batch.report.groups == 1
        assert batch.report.coalesced == 2

    @pytest.mark.parametrize("field,values", [
        ("cache", ("itlb", "icache")),
        ("semantics", ("paper", "v2")),
        ("warmup_fraction", (0.25, 0.5)),
        ("dispatched_only", (True, False)),
        ("engine", ("auto", "single-pass")),
    ])
    def test_differing_field_splits_the_group(self, events, field,
                                              values):
        specs = [SweepSpec(**{**dict(cache="itlb", sizes=(8, 16),
                                     associativities=(1,)),
                              field: value}) for value in values]
        batch = run_batch([Query(spec=spec) for spec in specs], events)
        assert batch.report.groups == 2
        assert batch.report.replays == 2
        assert batch.report.coalesced == 0

    def test_double_pass_and_window_split_the_group(self, events):
        a = SweepSpec(cache="itlb", sizes=(8,), associativities=(1,),
                      double_pass=True)
        b = SweepSpec(cache="itlb", sizes=(8,), associativities=(1,),
                      double_pass=False, warmup_fraction=0.25)
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.groups == 2

    def test_grid_engine_falls_back_loudly(self, events):
        spec = SweepSpec(cache="itlb", sizes=(8, 16),
                         associativities=(1, 2), engine="grid")
        other = SweepSpec(cache="itlb", sizes=(32,),
                          associativities=(1,), engine="grid")
        batch = run_batch([Query(spec=spec), Query(spec=other)], events)
        assert batch.report.fallbacks == 2
        assert batch.report.replays == 2
        assert batch.report.coalesced == 0
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_invalid_union_geometry_falls_back(self, events):
        # Valid individually; the union is not (8 % 3 != 0).
        a = SweepSpec(cache="itlb", sizes=(24,), associativities=(3,))
        b = SweepSpec(cache="itlb", sizes=(8, 16),
                      associativities=(1, 2))
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.fallbacks == 2
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_ineligible_union_falls_back(self, events):
        # 48/3 = 16 sets (eligible alone); 48/1 = 48 sets is not a
        # power of two, so the union has no superset property.
        a = SweepSpec(cache="itlb", sizes=(48,), associativities=(3,))
        b = SweepSpec(cache="itlb", sizes=(48,), associativities=(1,))
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.fallbacks == 2
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_full_only_query_merges_with_int_grid(self, events):
        a = SweepSpec(cache="icache", sizes=(8, 16),
                      associativities=("full",))
        b = SweepSpec(cache="icache", sizes=(16, 32),
                      associativities=(1, 2))
        batch = run_batch([Query(spec=a), Query(spec=b)], events)
        assert batch.report.replays == 1
        for query, surface in zip(batch.queries, batch.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))


class TestCacheInterplay:
    QUERIES = [
        Query(spec=SweepSpec(cache="itlb", sizes=(8, 16),
                             associativities=(1,))),
        Query(spec=SweepSpec(cache="itlb", sizes=(16, 32),
                             associativities=(2,))),
    ]

    def test_fresh_process_hits_the_disk_tier(self, tmp_path):
        _, events = _store_trace(tmp_path)
        run_batch(self.QUERIES, events)
        warm = run_batch(self.QUERIES, events)
        assert warm.report.replays == 0
        assert warm.report.disk_hits == len(self.QUERIES)

    def test_projected_surfaces_serve_later_run_sweep_calls(
            self, tmp_path):
        store, events = _store_trace(tmp_path)
        run_batch(self.QUERIES, events)
        for query in self.QUERIES:
            key = result_cache_key(query.spec, events.store_key)
            assert store.result_cache().contains(key)
        telemetry.install(tmp_path / "t", fresh=True)
        run_sweep(self.QUERIES[0].spec, events)
        telemetry.finalize()
        counters = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())["counters"]
        assert counters["result_cache.hit"] == 1

    def test_cached_superset_answers_new_projections(self, tmp_path):
        _, events = _store_trace(tmp_path)
        run_batch(self.QUERIES, events)
        # Different sub-grids, same union: the superset itself is the
        # cache hit, no replay.
        rotated = [
            Query(spec=SweepSpec(cache="itlb", sizes=(8, 32),
                                 associativities=(1, 2))),
            Query(spec=SweepSpec(cache="itlb", sizes=(16,),
                                 associativities=(2,))),
        ]
        warm = run_batch(rotated, events)
        assert warm.report.replays == 0
        assert warm.report.superset_hits == 1
        for query, surface in zip(warm.queries, warm.surfaces):
            _assert_bitwise_equal(surface, run_sweep(query.spec, events))

    def test_unstamped_trace_replays_every_batch(self, tmp_path):
        _, stamped = _store_trace(tmp_path)
        bare = stamped.copy()
        bare.store_key = bare.store_root = None
        for _ in range(2):
            batch = run_batch(self.QUERIES, bare)
            assert batch.report.replays == 1
            assert batch.report.disk_hits == 0

    def test_kill_switches_disable_both_tiers(self, tmp_path,
                                              monkeypatch):
        # Both cache tiers of a batch -- each query's own entry and
        # the group's superset entry -- live in the disk result cache.
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        _, events = _store_trace(tmp_path)
        for _ in range(2):
            batch = run_batch(self.QUERIES, events)
            assert batch.report.replays == 1
            assert batch.report.disk_hits == 0
            assert batch.report.superset_hits == 0


class TestHierarchyPlanned:
    def test_paper_hierarchy_unchanged_by_planning(self, events):
        hierarchy = paper_hierarchy(include_full=True, include_opt=True)
        surfaces = run_hierarchy(hierarchy, events)
        for level, surface in zip(hierarchy.levels, surfaces):
            _assert_bitwise_equal(surface, run_sweep(level, events))

    def test_same_cache_levels_coalesce(self, events):
        hierarchy = HierarchySpec(
            name="itlb-pair",
            levels=(SweepSpec(cache="itlb", sizes=(8, 16),
                              associativities=(1,), label="small"),
                    SweepSpec(cache="itlb", sizes=(32, 64),
                              associativities=(2,), label="large")))
        surfaces, report = run_hierarchy_planned(hierarchy, events)
        assert len(surfaces) == 2
        assert report.replays == 1
        assert report.coalesced == 2

    def test_cli_sweep_prints_planner_footer(self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--sizes", "8,16", "--assoc", "1",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[planner: 2 queries -> " in out
        assert "replay(s)" in out and "cache hit(s)" in out


class TestTelemetry:
    def test_batch_emits_planner_counters_and_span(self, tmp_path):
        _, events = _store_trace(tmp_path)
        telemetry.install(tmp_path / "t", fresh=True)
        run_batch([
            Query(spec=SweepSpec(cache="itlb", sizes=(8,),
                                 associativities=(1,))),
            Query(spec=SweepSpec(cache="itlb", sizes=(16,),
                                 associativities=(1,))),
        ], events)
        telemetry.finalize()
        metrics = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())
        counters = metrics["counters"]
        assert counters["planner.queries"] == 2
        assert counters["planner.replays"] == 1
        assert counters["planner.coalesced"] == 2
        spans = (tmp_path / "t" / "spans.jsonl").read_text()
        assert "planner.batch" in spans
