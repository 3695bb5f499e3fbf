"""Tests for the single-pass sweep subsystem (repro.sweep).

The load-bearing guarantee is *bitwise equivalence*: for every LRU
configuration on a power-of-two grid, the ``auto`` engine (the numpy
stack-distance engine) must produce exactly the hit/miss counts (and
therefore bit-identical float ratios) of the ``grid`` engine's
per-configuration ``simulate_itlb`` / ``simulate_icache`` runs --
across every warm-up window variant, including the quirky ones pinned
in test_tracesim.py, and under *both* measurement-semantics versions
("paper" preserves the quirks, "v2" fixes them).  CI runs the
equivalence tests by name (``-k equivalence``) as a dedicated gate.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.experiments import fig10, fig11
from repro.sweep import (
    PAPER_SIZES,
    NumpyMultiConfigLRU,
    SweepSpec,
    run_sweep,
)
from repro.trace.cachesim import (
    PAPER_ASSOCIATIVITIES,
    simulate_icache,
    simulate_itlb,
)
from trace_helpers import mixed_trace, trace_of


@pytest.fixture(scope="module")
def events():
    return mixed_trace(4000, seed=7)


GRID = dict(sizes=PAPER_SIZES, associativities=(1, 2, 4, "full"))

#: Warm-up variants for the equivalence pins.  1.0 is gone on purpose:
#: SweepSpec/CLI now reject it (the simulate_* edge behaviour at the
#: whole-trace cut stays pinned in test_tracesim.py); 0.9 keeps a cut
#: deep in the trace in the mix.
WINDOWS = [
    {"double_pass": True},
    {"warmup_fraction": 0.25},
    {"warmup_fraction": 0.0},
    {"warmup_fraction": 0.9},
]

SEMANTICS = ("paper", "v2")


def _assert_equals_grid(spec, events):
    """``spec`` runs on the stack-distance engine, and its surface is
    the grid engine's, cell for cell."""
    surface = run_sweep(spec, events)
    grid = run_sweep(replace(spec, engine="grid"), events)
    assert surface.meta["engine"] == "numpy"
    assert grid.meta["engine"] == "grid"
    assert surface.counts == grid.counts
    assert surface.opt_counts == grid.opt_counts
    for size, assoc, ratio in surface.grid():
        assert ratio == grid.stats(assoc, size).hit_ratio


class TestReplayInterfaces:
    """replay_columns' start/stop window is the same replay as the
    sliced columns."""

    def test_replay_columns_windowing_matches_slicing(self):
        blocks = [i * 3 % 7 for i in range(50)]
        whole = NumpyMultiConfigLRU({1: 2}, full_cap=4)
        whole.replay_columns(blocks[:20], blocks[:20], count=False)
        whole.replay_columns(blocks[20:], blocks[20:], count=True)
        windowed = NumpyMultiConfigLRU({1: 2}, full_cap=4)
        windowed.replay_columns(blocks, blocks, stop=20, count=False)
        windowed.replay_columns(blocks, blocks, start=20, count=True)
        assert windowed.total == whole.total
        assert windowed.hits(1, 2) == whole.hits(1, 2)
        assert windowed.full_hits(4) == whole.full_hits(4)


class TestSinglePassGridEquivalence:
    """The acceptance-critical pins: auto engine == grid, bitwise,
    under both measurement-semantics versions."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=[str(w) for w in WINDOWS])
    def test_itlb_equivalence(self, events, window, semantics):
        _assert_equals_grid(
            SweepSpec("itlb", semantics=semantics, **GRID, **window),
            events)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=[str(w) for w in WINDOWS])
    def test_icache_equivalence(self, events, window, semantics):
        _assert_equals_grid(
            SweepSpec("icache", semantics=semantics, **GRID, **window),
            events)

    def test_equivalence_with_line_words(self, events):
        _assert_equals_grid(
            SweepSpec("icache", sizes=(16, 64, 1024),
                      associativities=(1, 2), line_words=4,
                      double_pass=True), events)

    def test_equivalence_unfiltered_itlb(self, events):
        _assert_equals_grid(
            SweepSpec("itlb", sizes=(32, 256), associativities=(2,),
                      dispatched_only=False, double_pass=True), events)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_equivalence_when_cut_lands_on_non_dispatched(self,
                                                          semantics):
        # Paper: the never-resetting warm-up quirk must carry over
        # exactly.  v2: the always-firing fix must carry over too.
        events = trace_of((i % 9, i % 4, 1, i != 10) for i in range(20))
        _assert_equals_grid(
            SweepSpec("itlb", sizes=(8, 16), associativities=(1, 2),
                      warmup_fraction=0.5, semantics=semantics), events)

    def test_equivalence_one_set_configuration(self, events):
        # size == associativity: a single set, served by the
        # unbounded-depth level rather than a masked one.
        _assert_equals_grid(
            SweepSpec("itlb", sizes=(16,), associativities=(16,),
                      double_pass=True), events)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 25),
                              st.booleans()),
                    min_size=5, max_size=150),
           st.sampled_from([{"double_pass": True},
                            {"warmup_fraction": 0.33}]),
           st.sampled_from(SEMANTICS))
    def test_property_equivalence(self, rows, window, semantics):
        events = trace_of((address, opcode, opcode % 3, dispatched)
                          for address, opcode, dispatched in rows)
        _assert_equals_grid(
            SweepSpec("icache", sizes=(8, 32, 128),
                      associativities=(1, 2, "full"),
                      semantics=semantics, **window), events)


class TestSpecValidation:
    def test_rejects_unknown_cache_engine_policy(self):
        with pytest.raises(ValueError, match="cache kind"):
            SweepSpec("dcache")
        for engine in ("psychic", "single-pass", "numpy"):
            with pytest.raises(ValueError, match="engine"):
                SweepSpec("itlb", engine=engine)
        with pytest.raises(ValueError, match="policy"):
            SweepSpec("itlb", policy="mru")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="associativity"):
            SweepSpec("itlb", sizes=(8,), associativities=(3,))
        with pytest.raises(ValueError, match="line_words"):
            SweepSpec("itlb", sizes=(8,), line_words=2)
        with pytest.raises(ValueError, match="line_words"):
            SweepSpec("icache", sizes=(8,), line_words=3)
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec("itlb", sizes=())

    def test_rejects_unknown_semantics(self):
        with pytest.raises(ValueError, match="semantics"):
            SweepSpec("itlb", semantics="v3")

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1, 2.0])
    def test_rejects_out_of_range_warmup_fraction(self, fraction):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            SweepSpec("itlb", warmup_fraction=fraction)

    def test_eligibility(self):
        assert SweepSpec("itlb").single_pass_eligible()
        assert not SweepSpec("itlb", policy="fifo").single_pass_eligible()
        # 24 entries, 2-way: 12 sets is not a power of two.
        assert not SweepSpec("itlb", sizes=(24,),
                             associativities=(2,)).single_pass_eligible()


class TestSemanticsV2:
    """The v2 fixes themselves (the equivalence pins above prove the
    engine mirrors them; these prove they are the *right* fixes)."""

    def test_cut_computed_over_dispatched_references(self):
        # 100 events, every other one dispatched: v2 warms 25% of the
        # 50 ITLB references, not "the references inside the first 25
        # raw events" (which the paper cut would give: 13 minus the
        # filtered boundary... see the quirk tests in test_tracesim).
        events = trace_of((i, i % 3, 1, i % 2 == 0) for i in range(100))
        stats = simulate_itlb(events, 16, 2, warmup_fraction=0.25,
                              semantics="v2")
        assert stats.accesses == 50 - 12  # int(50 * 0.25) == 12 warmed

    def test_reset_always_fires_on_filtered_cut(self):
        # The paper quirk: cut at raw index 10 lands on the one
        # non-dispatched event, so the reset never fires and all 19
        # references are measured.  v2 resets regardless.
        events = trace_of((i, i % 3, 1, i != 10) for i in range(20))
        paper = simulate_itlb(events, 16, 2, warmup_fraction=0.5)
        v2 = simulate_itlb(events, 16, 2, warmup_fraction=0.5,
                           semantics="v2")
        assert paper.accesses == 19          # quirk preserved
        assert v2.accesses == 19 - 9         # int(19 * 0.5) warmed

    def test_symmetric_end_of_trace(self):
        # Whole-trace warm-up (only reachable via simulate_* directly;
        # the spec/CLI layers reject fraction 1.0): paper zeroes the
        # ITLB but measures the whole trace on the icache; v2 measures
        # nothing on either.
        events = trace_of((i % 7, i % 5, 1) for i in range(40))
        assert simulate_itlb(events, 16, 2, warmup_fraction=1.0,
                             semantics="v2").accesses == 0
        assert simulate_icache(events, 16, 2, warmup_fraction=1.0,
                               semantics="v2").accesses == 0
        assert simulate_icache(events, 16, 2,
                               warmup_fraction=1.0).accesses == 40

    def test_paper_is_the_default(self, events):
        explicit = simulate_itlb(events, 64, 2, warmup_fraction=0.25,
                                 semantics="paper")
        implicit = simulate_itlb(events, 64, 2, warmup_fraction=0.25)
        assert (explicit.hits, explicit.misses) == (implicit.hits,
                                                    implicit.misses)
        assert SweepSpec("itlb").semantics == "paper"

    def test_surface_records_semantics(self, events):
        for semantics in SEMANTICS:
            surface = run_sweep(
                SweepSpec("itlb", sizes=(32,), associativities=(2,),
                          warmup_fraction=0.25, semantics=semantics),
                events)
            assert surface.meta["semantics"] == semantics
            assert surface.semantics == semantics

    def test_grid_engine_records_semantics_too(self, events):
        surface = run_sweep(
            SweepSpec("itlb", sizes=(32,), associativities=(2,),
                      policy="fifo", warmup_fraction=0.25,
                      semantics="v2"), events)
        assert surface.meta["engine"] == "grid"
        assert surface.meta["semantics"] == "v2"
        stats = simulate_itlb(events, 32, 2, policy="fifo",
                              warmup_fraction=0.25, semantics="v2")
        assert surface.cell(2, 32) == (stats.hits, stats.misses)

    def test_double_pass_semantics_agree_bitwise(self, events):
        from repro.sweep import run_semantics_delta
        spec = SweepSpec("itlb", sizes=(16, 64), associativities=(2,),
                         double_pass=True)
        paper, v2, delta = run_semantics_delta(spec, events)
        assert paper.counts == v2.counts
        assert all(d == 0.0 for row in delta.values()
                   for d in row.values())

    def test_fraction_window_delta_is_quantified(self, events):
        from repro.sweep import run_semantics_delta, semantics_delta_table
        spec = SweepSpec("itlb", sizes=(16, 64), associativities=(1, 2),
                         warmup_fraction=0.25)
        paper, v2, delta = run_semantics_delta(spec, events)
        assert set(delta) == {1, 2}
        assert set(delta[1]) == {16, 64}
        for assoc in (1, 2):
            for size in (16, 64):
                assert delta[assoc][size] == pytest.approx(
                    v2.ratio(assoc, size) - paper.ratio(assoc, size))
        table = semantics_delta_table(paper, v2)
        assert "v2 - paper" in table and "1-way" in table


class TestGridFallback:
    def test_fifo_policy_falls_back_and_matches_simulate(self, events):
        spec = SweepSpec("itlb", sizes=(32, 128), associativities=(2,),
                         policy="fifo", double_pass=True)
        surface = run_sweep(spec, events)
        assert surface.meta["engine"] == "grid"
        for size in (32, 128):
            stats = simulate_itlb(events, size, 2, policy="fifo",
                                  double_pass=True)
            assert surface.cell(2, size) == (stats.hits, stats.misses)

    def test_grid_pass_accounting(self, events):
        spec = SweepSpec("icache", sizes=(8, 16), associativities=(1, 2),
                         double_pass=True, engine="grid")
        surface = run_sweep(spec, events)
        assert surface.meta["trace_passes"] == 2 * 2 * 2  # cells x warm
        single = run_sweep(
            SweepSpec("icache", sizes=(8, 16), associativities=(1, 2),
                      double_pass=True), events)
        assert single.meta["trace_passes"] == 2
        assert single.counts == surface.counts


class TestReferenceCurves:
    @staticmethod
    def _belady_hits(blocks, size, counted_from=0):
        """Hits of a brute-force Belady cache of ``size`` entries,
        counted from reference ``counted_from`` on."""
        next_use, last = [0.0] * len(blocks), {}
        for i in range(len(blocks) - 1, -1, -1):
            next_use[i] = last.get(blocks[i], float("inf"))
            last[blocks[i]] = i
        cache, current, hits = set(), {}, 0
        for i, block in enumerate(blocks):
            if block in cache:
                hits += i >= counted_from
            current[block] = next_use[i]
            if block not in cache:
                if len(cache) >= size:
                    victim = max(cache,
                                 key=lambda b: (current[b], repr(b)))
                    cache.remove(victim)
                cache.add(block)
        return hits

    def test_opt_matches_brute_force_belady(self):
        # The double pass is Belady over the doubled stream, counting
        # its second half; a fraction window counts from the raw cut
        # (every event is an icache reference), under both semantics.
        rnd = random.Random(3)
        windows = [{"double_pass": True}, {"warmup_fraction": 0.25},
                   {"warmup_fraction": 0.0}]
        for _ in range(10):
            blocks = [rnd.randrange(24)
                      for _ in range(rnd.randrange(50, 300))]
            events = trace_of((block, 1, 1) for block in blocks)
            for window in windows:
                if window.get("double_pass"):
                    stream, counted_from = blocks * 2, len(blocks)
                else:
                    stream = blocks
                    counted_from = int(len(blocks)
                                       * window["warmup_fraction"])
                expected = {size: self._belady_hits(stream, size,
                                                    counted_from)
                            for size in (1, 2, 4, 8, 16, 32)}
                for semantics in SEMANTICS:
                    surface = run_sweep(
                        SweepSpec("icache", sizes=tuple(expected),
                                  associativities=(1,),
                                  include_opt=True, semantics=semantics,
                                  **window), events)
                    for size, hits in expected.items():
                        assert surface.opt_counts[size] == (
                            hits, len(stream) - counted_from - hits)

    def test_opt_dominates_lru_at_every_size(self, events):
        spec = SweepSpec("icache", sizes=(8, 64, 512),
                         associativities=(1,), warmup_fraction=0.0,
                         include_full=True, include_opt=True)
        surface = run_sweep(spec, events)
        for size in spec.sizes:
            assert surface.opt_ratio(size) >= surface.ratio("full", size)

    def test_full_column_matches_full_simulation(self, events):
        spec = SweepSpec("itlb", sizes=(16, 64), associativities=(2,),
                         double_pass=True, include_full=True)
        surface = run_sweep(spec, events)
        assert "full" in surface.associativities
        for size in (16, 64):
            stats = simulate_itlb(events, size, "full",
                                  double_pass=True)
            assert surface.cell("full", size) == (stats.hits,
                                                  stats.misses)

    def test_opt_available_under_grid_engine(self, events):
        spec = SweepSpec("icache", sizes=(8, 32), associativities=(2,),
                         policy="fifo", warmup_fraction=0.0,
                         include_opt=True)
        surface = run_sweep(spec, events)
        assert surface.meta["engine"] == "grid"
        assert set(surface.opt_counts) == {8, 32}


class TestResultSurface:
    @pytest.fixture(scope="class")
    def surface(self):
        return run_sweep(
            SweepSpec("itlb", sizes=(8, 32, 128),
                      associativities=(1, 2), double_pass=True,
                      include_opt=True),
            mixed_trace(1500, seed=11))

    def test_grid_iteration(self, surface):
        cells = list(surface.grid())
        assert len(cells) == 6
        assert all(0.0 <= ratio <= 1.0 for _, _, ratio in cells)

    def test_curves_and_isoratio(self, surface):
        curve = surface.curve(2)
        assert [size for size, _ in curve] == [8, 32, 128]
        ratios = dict(curve)
        threshold = surface.smallest_size_reaching(0.5, 2)
        assert threshold is None or ratios[threshold] >= 0.5
        assert set(surface.isoratio(0.5)) == {1, 2}
        assert surface.smallest_size_reaching(1.1, 2) is None

    def test_stats_view(self, surface):
        stats = surface.stats(2, 32)
        assert stats.hits + stats.misses == stats.accesses
        assert stats.hit_ratio == surface.ratio(2, 32)

    def test_table_includes_reference_columns(self, surface):
        table = surface.table()
        assert "OPT" in table and "1-way" in table

    def test_opt_ratio_requires_opt(self, events):
        surface = run_sweep(SweepSpec("itlb", sizes=(8,),
                                      associativities=(1,)), events)
        with pytest.raises(ValueError, match="OPT"):
            surface.opt_ratio(8)


class TestExperimentIntegration:
    def test_fig10_runs_on_the_engine(self, events):
        result = fig10.run(events=events, plot=False)
        assert result.data["engine"] == "numpy"
        assert result.data["trace_passes"] == 2

    def test_fig11_runs_on_the_engine(self, events):
        result = fig11.run(events=events, plot=False)
        assert result.data["engine"] == "numpy"
        assert result.data["trace_passes"] == 2

    def test_figures_record_semantics(self, events):
        assert fig10.run(events=events,
                         plot=False).data["semantics"] == "paper"
        assert fig11.run(events=events,
                         plot=False).data["semantics"] == "paper"

    def test_fig10_v2_semantics_still_supports_the_claims(self, events):
        # The quirk fixes must not change the scientific conclusions:
        # the double-pass figure grid is quirk-free, so v2 reproduces
        # the same claim outcomes bit-for-bit.
        paper = fig10.run(events=events, plot=False)
        v2 = fig10.run(events=events, plot=False, semantics="v2")
        assert v2.data["semantics"] == "v2"
        assert [(c.claim, c.holds) for c in v2.claims] == \
            [(c.claim, c.holds) for c in paper.claims]


class TestCli:
    def test_sweep_command(self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--sizes", "8,64", "--assoc", "1,2,full",
                         "--opt", "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ITLB hit ratio vs cache size" in out
        assert "instruction cache hit ratio vs cache size" in out
        assert "OPT" in out
        assert "engine: numpy" in out

    @pytest.mark.parametrize("args", [
        ["--engine", "single-pass"],
        ["--engine", "numpy"],
        ["--engine", "numpy", "--policy", "fifo"],
        ["--engine", "single-pass", "--sizes", "8,24"],
    ], ids=["single-pass", "numpy", "numpy-fifo", "single-pass-24"])
    def test_sweep_rejects_removed_engines_before_generation(
            self, tmp_path, args):
        traces = tmp_path / "traces"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["sweep", "monomorphic", "--quick", *args,
                      "--trace-dir", str(traces)])
        assert exit_info.value.code == 2
        assert not traces.exists()

    def test_sweep_single_cache_with_warmup_and_plot(self, tmp_path,
                                                     capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "icache", "--sizes", "8,16",
                         "--assoc", "1", "--warmup", "0.5", "--plot",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fraction 0.5" in out
        assert "legend" in out           # the ASCII plot rendered
        assert "ITLB" not in out

    def test_sweep_rejects_bad_grids(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--sizes", "eight",
                      "--trace-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--assoc", "semi",
                      "--trace-dir", str(tmp_path)])

    @pytest.mark.parametrize("fraction", ["1.0", "-0.25", "nan", "two"])
    def test_sweep_rejects_out_of_range_warmup(self, tmp_path, fraction):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--warmup", fraction,
                      "--trace-dir", str(tmp_path)])

    def test_sweep_semantics_flag(self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "itlb", "--sizes", "8,16",
                         "--assoc", "1", "--warmup", "0.25",
                         "--semantics", "v2",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "semantics: v2" in out

    def test_sweep_compare_semantics_prints_delta(self, tmp_path,
                                                  capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "itlb", "--sizes", "8,16",
                         "--assoc", "1,2", "--warmup", "0.25",
                         "--compare-semantics",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "v2 - paper" in out

    def test_sweep_compare_semantics_under_double_pass_notes_parity(
            self, tmp_path, capsys):
        code = cli_main(["sweep", "monomorphic", "--quick",
                         "--cache", "itlb", "--sizes", "8,16",
                         "--assoc", "1", "--compare-semantics",
                         "--trace-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "quirk-free" in out
        assert "v2 - paper" not in out

    def test_list_workloads_show_params(self, capsys):
        assert cli_main(["list", "--workloads"]) == 0
        out = capsys.readouterr().out
        assert "defaults: " in out
        assert "phase_length=700" in out      # the paper defaults
        assert "quick:    phase_length=280" in out
        assert "v1" in out                    # generator version
