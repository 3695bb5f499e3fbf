"""Tests for the trace-driven cache simulator (repro.trace)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sweep import SweepSpec, run_sweep
from repro.trace.cachesim import (
    PAPER_ASSOCIATIVITIES,
    PAPER_SIZES,
    ascii_plot,
    simulate_icache,
    simulate_itlb,
)
from repro.trace.semantics import (
    DEFAULT_SEMANTICS,
    QUIRKS,
    SEMANTICS,
    reset_index,
    validate_semantics,
    validate_warmup_fraction,
)
from repro.trace.workloads import monomorphic_trace
from trace_helpers import trace_of


def _synthetic(keys, repeat=10):
    """A trace touching the given (opcode, class) keys round-robin."""
    return trace_of((index, opcode, cls) for _ in range(repeat)
                    for index, (opcode, cls) in enumerate(keys))


def _sweep(cache, trace, sizes=PAPER_SIZES,
           associativities=PAPER_ASSOCIATIVITIES, **kwargs):
    """A figure-style grid through the sweep subsystem."""
    spec = SweepSpec(cache=cache, sizes=tuple(sizes),
                     associativities=tuple(associativities), **kwargs)
    return run_sweep(spec, trace)


class TestTraceColumns:
    def test_dispatched_only(self):
        trace = trace_of([(0, 1, 1, True), (1, 2, 1, False)])
        opcodes = trace.opcodes()
        assert [opcodes[i] for i in trace.dispatched_indices()] == [1]

    def test_addresses(self):
        trace = trace_of([(3, 1, 1), (9, 1, 1)])
        assert list(trace.addresses()) == [3, 9]


class TestSimulateITLB:
    def test_monomorphic_trace_is_all_hits(self):
        events = monomorphic_trace(1000)
        stats = simulate_itlb(events, 8, 2, warmup_fraction=0.1)
        assert stats.hit_ratio == 1.0

    def test_small_cache_thrashes_many_keys(self):
        keys = [(op, 1) for op in range(100)]
        events = _synthetic(keys, repeat=5)
        small = simulate_itlb(events, 8, 2, warmup_fraction=0.0)
        large = simulate_itlb(events, 128, 2, warmup_fraction=0.0)
        assert small.hit_ratio < large.hit_ratio

    def test_double_pass_removes_compulsory_misses(self):
        keys = [(op, 1) for op in range(50)]
        events = _synthetic(keys, repeat=2)
        single = simulate_itlb(events, 128, 2, warmup_fraction=0.0)
        double = simulate_itlb(events, 128, 2, double_pass=True)
        assert double.hit_ratio == 1.0
        assert single.hit_ratio < 1.0

    def test_dispatched_filter(self):
        events = trace_of((i, 1, 1, i % 2 == 0) for i in range(100))
        stats = simulate_itlb(events, 8, 2, warmup_fraction=0.0)
        assert stats.accesses == 50

    def test_warmup_excluded_from_stats(self):
        events = trace_of((i, i, 1) for i in range(100))
        stats = simulate_itlb(events, 256, 2, warmup_fraction=0.5)
        assert stats.accesses == 50


class TestSimulateICache:
    def test_loop_reuse(self):
        events = trace_of((i % 16, 1, 1) for i in range(1000))
        stats = simulate_icache(events, 64, 2, warmup_fraction=0.1)
        assert stats.hit_ratio == 1.0

    def test_streaming_never_hits(self):
        events = trace_of((i, 1, 1) for i in range(1000))
        stats = simulate_icache(events, 64, 2, warmup_fraction=0.0)
        assert stats.hit_ratio == 0.0

    def test_line_words_capture_spatial_locality(self):
        events = trace_of((i, 1, 1) for i in range(1024))
        no_lines = simulate_icache(events, 64, 2, line_words=1,
                                   warmup_fraction=0.0)
        lines = simulate_icache(events, 64, 2, line_words=8,
                                warmup_fraction=0.0)
        assert lines.hit_ratio > no_lines.hit_ratio


class TestSweeps:
    def _events(self):
        keys = [(op, cls) for op in range(20) for cls in range(4)]
        return _synthetic(keys, repeat=4)

    def test_sweep_shape(self):
        result = _sweep("itlb", self._events(), sizes=(8, 32, 128),
                        associativities=(1, 2))
        assert set(result.counts) == {1, 2}
        assert set(result.counts[1]) == {8, 32, 128}

    def test_hit_ratio_monotone_in_size_full_assoc(self):
        events = self._events()
        result = _sweep("itlb", events, sizes=(8, 16, 32, 64, 128),
                        associativities=("full",), warmup_fraction=0.0)
        ratios = [result.ratio("full", s) for s in (8, 16, 32, 64, 128)]
        assert ratios == sorted(ratios)

    def test_smallest_size_reaching(self):
        events = _synthetic([(op, 1) for op in range(4)], repeat=20)
        result = _sweep("itlb", events, sizes=(8, 128),
                        associativities=(2,), double_pass=True)
        assert result.smallest_size_reaching(0.99, 2) == 8
        assert result.smallest_size_reaching(1.1, 2) is None

    def test_table_renders(self):
        result = _sweep("itlb", self._events(), sizes=(8, 16),
                        associativities=(1, 2))
        table = result.table()
        assert "1-way" in table and "2-way" in table
        assert "16" in table

    def test_icache_sweep(self):
        result = _sweep("icache", self._events(), sizes=(8, 64),
                        associativities=(1,))
        assert 0.0 <= result.ratio(1, 8) <= 1.0

    def test_ascii_plot(self):
        result = _sweep("itlb", self._events())
        plot = ascii_plot(result)
        assert "legend" in plot
        assert plot.count("\n") > 10

    @pytest.mark.parametrize("associativities,legend,markers", [
        ((1, 2, 4, "full"),
         "1 = 1-way, 2 = 2-way, 4 = 4-way, f = full", set("124f")),
        ((2, 4), "2 = 2-way, 4 = 4-way", set("24")),
        ((2, 16), "2 = 2-way, * = 16-way", set("2*")),
    ], ids=["full", "2-4", "16-way"])
    def test_ascii_plot_marks_each_curve_by_associativity(
            self, associativities, legend, markers):
        result = _sweep("itlb", self._events(), sizes=(16, 64, 256),
                        associativities=associativities)
        lines = ascii_plot(result).splitlines()
        assert lines[1] == "legend: " + legend
        drawn = set("".join(lines[2:-1])) - {"|", " "}
        assert drawn and drawn <= markers


class TestWarmupEdgeCases:
    """Pin the warm-up window semantics, including the documented
    quirks -- the single-pass sweep engine replicates these
    reference-for-reference (see repro/sweep), so they are
    characterization tests, not aspirations."""

    def _events(self, n=40):
        return trace_of((i % 7, i % 5, 1) for i in range(n))

    def test_zero_warmup_measures_everything(self):
        events = self._events()
        itlb = simulate_itlb(events, 16, 2, warmup_fraction=0.0)
        assert itlb.accesses == len(events)
        icache = simulate_icache(events, 16, 2, warmup_fraction=0.0)
        assert icache.accesses == len(events)

    def test_tiny_trace_rounding(self):
        # int() truncation: 3 events at 0.25 rounds the cut to zero,
        # 0.5 cuts one event, 0.9 cuts two.
        events = self._events(3)
        assert simulate_icache(events, 8, 1,
                               warmup_fraction=0.25).accesses == 3
        assert simulate_icache(events, 8, 1,
                               warmup_fraction=0.5).accesses == 2
        assert simulate_icache(events, 8, 1,
                               warmup_fraction=0.9).accesses == 1

    def test_whole_trace_warmup_itlb_yields_empty_stats(self):
        stats = simulate_itlb(self._events(), 16, 2,
                              warmup_fraction=1.0)
        assert stats.accesses == 0
        assert stats.hit_ratio == 0.0

    def test_whole_trace_warmup_icache_quirk_measures_everything(self):
        # simulate_icache resets only when the loop reaches the cut
        # index; a cut at len(events) never fires, so (unlike the
        # ITLB) the whole trace lands in the stats.
        events = self._events()
        stats = simulate_icache(events, 16, 2, warmup_fraction=1.0)
        assert stats.accesses == len(events)

    def test_cut_on_non_dispatched_event_never_resets(self):
        # The dispatched filter is applied before the cut check, so a
        # warm-up boundary landing on a non-dispatched event means the
        # reset never happens and every dispatched event is measured.
        events = trace_of((i, i % 3, 1, i != 10) for i in range(20))
        stats = simulate_itlb(events, 16, 2, warmup_fraction=0.5)
        assert stats.accesses == 19  # all dispatched, warm-up included

    def test_cut_on_dispatched_event_excludes_warmup(self):
        events = trace_of((i, i % 3, 1) for i in range(20))
        stats = simulate_itlb(events, 16, 2, warmup_fraction=0.5)
        assert stats.accesses == 10

    def test_double_pass_equals_doubled_trace_with_half_warmup(self):
        # "A warmup trace was run before the measurement trace": the
        # double-pass flag is exactly a doubled trace whose first half
        # is the warm-up (the boundary event is dispatched here, so
        # the mid-trace reset fires).
        rows = [(i % 11, i % 6, i % 3) for i in range(60)]
        events, doubled = trace_of(rows), trace_of(rows + rows)
        double = simulate_itlb(events, 16, 2, double_pass=True)
        manual = simulate_itlb(doubled, 16, 2, warmup_fraction=0.5)
        assert (double.hits, double.misses) == (manual.hits,
                                                manual.misses)
        double = simulate_icache(events, 16, 2, double_pass=True)
        manual = simulate_icache(doubled, 16, 2, warmup_fraction=0.5)
        assert (double.hits, double.misses) == (manual.hits,
                                                manual.misses)

    def test_double_pass_ignores_warmup_fraction(self):
        events = self._events()
        a = simulate_itlb(events, 16, 2, double_pass=True,
                          warmup_fraction=0.0)
        b = simulate_itlb(events, 16, 2, double_pass=True,
                          warmup_fraction=0.9)
        assert (a.hits, a.misses) == (b.hits, b.misses)


class TestSemanticsModule:
    """The audited window-placement module itself (repro.trace.semantics):
    every quirk in the family, and its v2 counterpart, pinned at the
    reset_index level so all four consumer layers inherit the same
    truth."""

    def _events(self, n=20, hole=10):
        return trace_of((i, i % 3, 1, i != hole) for i in range(n))

    def test_registry_and_validation(self):
        assert DEFAULT_SEMANTICS == "paper"
        assert SEMANTICS == ("paper", "v2")
        assert set(QUIRKS) == {"raw-index-cut", "skipped-itlb-reset",
                               "asymmetric-end-of-trace"}
        with pytest.raises(ValueError, match="semantics"):
            validate_semantics("v1")
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            validate_warmup_fraction(1.0)
        assert validate_warmup_fraction(0.0) == 0.0

    def test_paper_raw_index_cut(self):
        # 19 dispatched refs; cut at raw index 5 (all dispatched
        # before it) -> reset before reference 5.
        events = self._events()
        assert reset_index("paper", "itlb", events, 19,
                           warmup_fraction=0.25) == 5

    def test_paper_skipped_itlb_reset(self):
        # Cut at raw index 10 lands on the filtered-out event: never
        # resets under paper, always under v2.
        events = self._events()
        assert reset_index("paper", "itlb", events, 19,
                           warmup_fraction=0.5) is None
        assert reset_index("v2", "itlb", events, 19,
                           warmup_fraction=0.5) == 9

    def test_paper_asymmetric_end_of_trace(self):
        events = self._events()
        assert reset_index("paper", "itlb", events, 19,
                           warmup_fraction=1.0) == 19   # zero stats
        assert reset_index("paper", "icache", events, 20,
                           warmup_fraction=1.0) is None  # never fires
        # v2: symmetric -- both reset after the last reference.
        assert reset_index("v2", "itlb", events, 19,
                           warmup_fraction=1.0) == 19
        assert reset_index("v2", "icache", events, 20,
                           warmup_fraction=1.0) == 20

    def test_v2_cut_over_reference_stream(self):
        events = self._events()
        # int(19 * 0.25) = 4: the cut counts what the ITLB sees.
        assert reset_index("v2", "itlb", events, 19,
                           warmup_fraction=0.25) == 4
        # Unfiltered streams agree between versions away from the
        # edges: refs == events, so the cut index coincides.
        assert reset_index("v2", "icache", events, 20,
                           warmup_fraction=0.25) == \
            reset_index("paper", "icache", events, 20,
                        warmup_fraction=0.25) == 5

    def test_paper_negative_fraction_never_resets(self):
        # The historical loops compared a negative cut against
        # non-negative loop indices: no reset, everything measured.
        # (reset_index must not let dispatched_flag's negative indexing
        # probe events[cut] and invent a mid-trace reset.)
        events = self._events()
        assert reset_index("paper", "itlb", events, 19,
                           warmup_fraction=-0.5) is None
        assert reset_index("paper", "icache", events, 20,
                           warmup_fraction=-0.5) is None
        stats = simulate_itlb(events, 16, 2, warmup_fraction=-0.5)
        assert stats.accesses == 19
        stats = simulate_icache(events, 16, 2, warmup_fraction=-0.5)
        assert stats.accesses == 20

    def test_simulate_semantics_validated(self):
        events = self._events()
        with pytest.raises(ValueError, match="semantics"):
            simulate_itlb(events, 16, 2, semantics="v3")
        with pytest.raises(ValueError, match="semantics"):
            simulate_icache(events, 16, 2, semantics="v3")

    def test_double_pass_identical_under_both_semantics(self):
        events = self._events(60, hole=7)
        for simulate in (simulate_itlb, simulate_icache):
            paper = simulate(events, 16, 2, double_pass=True)
            v2 = simulate(events, 16, 2, double_pass=True,
                          semantics="v2")
            assert (paper.hits, paper.misses) == (v2.hits, v2.misses)


class TestDeterminism:
    def test_simulations_are_reproducible(self):
        keys = [(op, 1) for op in range(64)]
        events = _synthetic(keys, repeat=3)
        a = simulate_itlb(events, 32, 2)
        b = simulate_itlb(events, 32, 2)
        assert a.hits == b.hits and a.misses == b.misses

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)),
                    min_size=10, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, key_list):
        events = _synthetic(key_list, repeat=2)
        stats = simulate_itlb(events, 16, 2, warmup_fraction=0.25)
        assert stats.hits + stats.misses == stats.accesses
        assert 0.0 <= stats.hit_ratio <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=10, max_size=300))
    def test_infinite_cache_misses_equal_footprint(self, address_list):
        events = trace_of((a, 1, 1) for a in address_list)
        stats = simulate_icache(events, 4096, "full", warmup_fraction=0.0)
        assert stats.misses == len(set(address_list))
