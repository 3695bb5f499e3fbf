"""Equivalence and fallback tests for the vectorized numpy backend.

The load-bearing guarantee mirrors test_sweep.py's: the numpy replay
backend must be *bitwise-equal* to the pure-python stack-distance
engine -- histograms, ``total``, hit prefix sums AND post-replay stack
state -- across random column pairs (varying alphabet sizes, set
counts, depth caps, warm-up fractions, count=False segments, resets,
sub-ranges) and across the full paper grid under both
measurement-semantics versions.  CI runs the pins by name
(``-k "equivalence and paper"`` / ``-k "equivalence and v2"``) on the
numpy matrix leg; the numpy-free leg keeps the fallback honest (the
numpy-requiring tests skip themselves, the ``sys.modules``-block
tests run everywhere).
"""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import BackendUnavailable
from repro.sweep import SweepSpec, np_engine, run_sweep
from repro.sweep.engine import MultiConfigLRU, OptStack, next_use_times
from repro.sweep.runner import _itlb_ref_columns
from repro.trace.cachesim import simulate_icache
from repro.trace.columnar import Trace
from repro.workloads import names, specs
from trace_helpers import mixed_trace, trace_of

requires_numpy = pytest.mark.skipif(
    not np_engine.numpy_available(),
    reason="numpy is not installed (pure-python fallback leg)")


@pytest.fixture(scope="module")
def events():
    return mixed_trace(2500, seed=7)


def _random_case(seed):
    """One random (columns, geometry, replay plan) torture case.

    Plans mix counted and warm (count=False) sub-range segments with
    occasional mid-stream ``reset_counts`` -- every segmented-replay
    shape the runner can produce, plus ones it cannot yet.
    """
    rng = random.Random(987_000 + seed)
    nblocks = rng.choice([1, 2, 3, 5, 9, 17, 40, 200])
    n = rng.randrange(1, 150)
    blocks = [rng.randrange(nblocks) for _ in range(n)]
    pmap = {block: rng.getrandbits(16) for block in range(nblocks)}
    placements = [pmap[block] for block in blocks]
    ks = rng.sample([1, 2, 3, 4], rng.randrange(1, 4))
    level_caps = {k: rng.choice([1, 2, 3, 4, 5, 6, 8]) for k in ks}
    full_cap = rng.choice([0, 1, 3, 8])
    plan = []
    pos = 0
    while pos < n:
        nxt = rng.randrange(pos, n) + 1
        plan.append((pos, nxt, rng.random() < 0.7))
        if rng.random() < 0.2:
            plan.append("reset")
        pos = nxt
    return blocks, placements, level_caps, full_cap, plan


def _loop_case(seed):
    """One loop-structured (columns, geometry, replay plan) case.

    Cycles of 3-6 blocks repeat 20-300 times with 5% noise, so a set's
    recent runs are mostly dead re-references and a noise block's
    depth-4 query walks back past the whole loop: the queries the
    chain resolver's vector rounds leave to the max-tree descent.
    """
    rng = random.Random(1_985_000 + seed)
    nblocks = rng.randrange(6, 41)
    n = rng.randrange(1_500, 4_001)
    blocks = []
    while len(blocks) < n:
        cycle = rng.sample(range(nblocks), rng.randrange(3, 7))
        for _ in range(rng.randrange(20, 301)):
            blocks.extend(rng.randrange(nblocks) if rng.random() < 0.05
                          else block for block in cycle)
    del blocks[n:]
    pmap = {block: rng.getrandbits(16) for block in range(nblocks)}
    placements = [pmap[block] for block in blocks]
    ks = rng.sample([1, 2, 3], rng.randrange(1, 4))
    level_caps = {k: rng.choice([4, 5, 8]) for k in ks}
    if seed % 2:
        plan = [(0, n, False), (0, n, True)]   # the double pass
    else:
        plan = []
        pos = 0
        while pos < n:
            nxt = min(n, pos + rng.randrange(200, 2_000))
            plan.append((pos, nxt, rng.random() < 0.7))
            if rng.random() < 0.2:
                plan.append("reset")
            pos = nxt
    return blocks, placements, level_caps, plan


def _run_plan(engine, blocks, placements, plan):
    for step in plan:
        if step == "reset":
            engine.reset_counts()
        else:
            start, stop, count = step
            engine.replay_columns(blocks, placements, start, stop, count)


def _assert_engines_equal(pure, fast, level_caps, full_cap):
    assert fast.histograms() == pure.histograms()
    assert fast.total == pure.total
    assert fast.stack_state() == pure.stack_state()
    for k, cap in level_caps.items():
        for assoc in range(1, cap + 1):
            assert fast.hits(k, assoc) == pure.hits(k, assoc)
    if full_cap:
        assert fast._full_hist == pure._full_hist
        for entries in range(1, full_cap + 1):
            assert fast.full_hits(entries) == pure.full_hits(entries)


@requires_numpy
class TestRandomizedEquivalence:
    """Seeded random column pairs pinned numpy == python bitwise."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_plan_equivalence(self, seed):
        blocks, placements, level_caps, full_cap, plan = _random_case(seed)
        pure = MultiConfigLRU(dict(level_caps), full_cap)
        fast = np_engine.NumpyMultiConfigLRU(dict(level_caps), full_cap)
        _run_plan(pure, blocks, placements, plan)
        _run_plan(fast, blocks, placements, plan)
        _assert_engines_equal(pure, fast, level_caps, full_cap)

    @pytest.mark.parametrize("seed", range(32))
    def test_loop_plan_equivalence(self, seed):
        blocks, placements, level_caps, plan = _loop_case(seed)
        pure = MultiConfigLRU(dict(level_caps))
        fast = np_engine.NumpyMultiConfigLRU(dict(level_caps))
        _run_plan(pure, blocks, placements, plan)
        _run_plan(fast, blocks, placements, plan)
        _assert_engines_equal(pure, fast, level_caps, 0)

    def test_max_tree_query_matches_a_scan(self):
        # The descent's contract on its own: the largest u <= v with
        # values[u] >= x, or -1.  At the resolver's call site v + 1 is
        # always a run the vector rounds found dead, so only a direct
        # check pins the boundary at v.
        rng = random.Random(20)
        np = np_engine.np
        for length in (1, 2, 3, 7, 8, 9, 100, 257):
            values = np.array([rng.randrange(-1, 40)
                               for _ in range(length)], np.int32)
            v = np.array([rng.randrange(length) for _ in range(300)],
                         np.int32)
            x = np.array([rng.randrange(41) for _ in range(300)],
                         np.int32)
            got = np_engine._last_at_least(np_engine._max_tree(values),
                                           v, x)
            assert got.tolist() == [
                max((u for u in range(vq + 1) if values[u] >= xq),
                    default=-1)
                for vq, xq in zip(v.tolist(), x.tolist())]

    def test_cycle_pattern_equivalence(self):
        # 3/4-symbol cycles are the chain resolver's worst case: every
        # reference is a deep re-reference and runs stay length one.
        rng = random.Random(1985)
        blocks = []
        for _ in range(60):
            blocks.extend(range(4))
            if rng.random() < 0.3:
                blocks.append(4 + rng.randrange(3))
        pmap = {block: rng.getrandbits(16) for block in range(7)}
        placements = [pmap[block] for block in blocks]
        level_caps = {1: 4, 2: 5}
        pure = MultiConfigLRU(dict(level_caps))
        fast = np_engine.NumpyMultiConfigLRU(dict(level_caps))
        pure.replay_columns(blocks, placements)
        fast.replay_columns(blocks, placements)
        _assert_engines_equal(pure, fast, level_caps, 0)

    def test_touch_equivalence(self):
        # One-reference segments through the carry machinery, against
        # both the pure touch and the pure bulk replay.
        rng = random.Random(44)
        pmap = {block: rng.getrandbits(16) for block in range(30)}
        refs = [(block, pmap[block])
                for block in (rng.randrange(30) for _ in range(400))]
        bulk = MultiConfigLRU({1: 2, 3: 4}, full_cap=8)
        pure = MultiConfigLRU({1: 2, 3: 4}, full_cap=8)
        fast = np_engine.NumpyMultiConfigLRU({1: 2, 3: 4}, full_cap=8)
        bulk.replay(refs)
        for i, (block, placement) in enumerate(refs):
            count = i % 5 != 0
            pure.touch(block, placement, count=count)
            fast.touch(block, placement, count=count)
        _assert_engines_equal(pure, fast, {1: 2, 3: 4}, 8)
        assert bulk.stack_state() == pure.stack_state()

    def test_deep_full_column_equivalence(self):
        # A deep, wide single-set level: ~6,000 blocks behind a
        # 4096-entry stack, with a cold quarter of the stream reused
        # ~24,000 references apart, so depths run past full_cap and
        # the clamp fires.  The counted segment plus its carry prefix
        # exceeds 2**16 positions, so the rank key needs 17 bits.
        rng = random.Random(1985)
        nblocks, full_cap = 6_000, 4096
        blocks = [rng.randrange(300) if rng.random() < 0.75
                  else rng.randrange(nblocks) for _ in range(80_000)]
        pmap = {block: rng.getrandbits(16) for block in range(nblocks)}
        placements = [pmap[block] for block in blocks]
        level_caps = {3: 4}
        pure = MultiConfigLRU(dict(level_caps), full_cap)
        fast = np_engine.NumpyMultiConfigLRU(dict(level_caps), full_cap)
        for engine in (pure, fast):
            engine.replay_columns(blocks, placements, 0, 6_000, False)
            engine.replay_columns(blocks, placements, 6_000, 76_000, True)
        # more misses than first references: some depths clamped
        first_refs = len(set(blocks[6_000:76_000]) - set(blocks[:6_000]))
        assert pure._full_hist[full_cap] > first_refs
        assert sum(pure._full_hist[full_cap // 2:full_cap]) > 0
        _assert_engines_equal(pure, fast, level_caps, full_cap)
        for engine in (pure, fast):
            engine.reset_counts()
            engine.replay_columns(blocks, placements, 76_000, 80_000, True)
        _assert_engines_equal(pure, fast, level_caps, full_cap)

        # the one-set grid oracle, under the double-pass warm-up
        trace = trace_of((block, 0, 0) for block in blocks)
        warm = np_engine.NumpyMultiConfigLRU({}, full_cap)
        warm.replay_columns(blocks, blocks, count=False)
        warm.replay_columns(blocks, blocks, count=True)
        for size in (512, full_cap):
            stats = simulate_icache(trace, size, "full", double_pass=True)
            assert (warm.full_hits(size), warm.total - warm.full_hits(size)) \
                == (stats.hits, stats.misses)

    def test_next_use_times_equivalence(self):
        rng = random.Random(5)
        blocks = [rng.randrange(40) for _ in range(500)]
        assert np_engine.np_next_use_times(blocks) == \
            [float(t) for t in next_use_times(blocks)]
        assert np_engine.np_next_use_times([]) == []


@requires_numpy
class TestSweepEquivalence:
    """run_sweep(engine="numpy") == run_sweep(engine="single-pass"),
    full paper grid, every warm-up window, both semantics."""

    WINDOWS = [
        {"double_pass": True},
        {"warmup_fraction": 0.25},
        {"warmup_fraction": 0.0},
        {"warmup_fraction": 0.9},
    ]

    @pytest.mark.parametrize("semantics", ["paper", "v2"])
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=[str(w) for w in WINDOWS])
    @pytest.mark.parametrize("cache", ["itlb", "icache"])
    def test_numpy_single_pass_equivalence(self, cache, window,
                                           semantics, events):
        common = dict(cache=cache, include_full=True, include_opt=True,
                      semantics=semantics, **window)
        pure = run_sweep(SweepSpec(engine="single-pass", **common),
                         events)
        fast = run_sweep(SweepSpec(engine="numpy", **common), events)
        assert fast.counts == pure.counts
        assert fast.opt_counts == pure.opt_counts
        assert fast.meta["engine"] == "numpy"
        assert pure.meta["engine"] == "single-pass"
        assert fast.meta["trace_passes"] == pure.meta["trace_passes"]
        assert fast.meta["measured"] == pure.meta["measured"]

    def test_auto_uses_numpy_when_available(self, events):
        surface = run_sweep(SweepSpec("itlb", double_pass=True), events)
        assert surface.meta["engine"] == "numpy"

    def test_numpy_engine_requires_eligibility(self, events):
        with pytest.raises(ValueError, match="eligible"):
            run_sweep(SweepSpec("itlb", policy="fifo", engine="numpy"),
                      events)


@pytest.fixture(scope="module")
def quick_traces():
    return {spec.name: spec.generate(spec.resolve(quick=True))
            for spec in specs()}


@requires_numpy
class TestItlbReferenceBuild:
    """The numpy ITLB reference build returns the pure loop's
    ``array('q')`` keys and ``array('Q')`` placements byte for byte."""

    @staticmethod
    def _assert_same_build(trace, dispatched_only):
        pure = _itlb_ref_columns(trace, dispatched_only)
        fast = _itlb_ref_columns(trace, dispatched_only, use_numpy=True)
        assert [column.typecode for column in fast] == ["q", "Q"]
        assert [column.tobytes() for column in fast] == \
            [column.tobytes() for column in pure]

    @pytest.mark.parametrize("dispatched_only", [True, False])
    @pytest.mark.parametrize("name", names())
    def test_scenario_build_parity(self, name, dispatched_only,
                                   quick_traces):
        self._assert_same_build(quick_traces[name], dispatched_only)

    @pytest.mark.parametrize("dispatched_only", [True, False])
    def test_mixed_and_odd_offset_build_parity(self, dispatched_only,
                                               events):
        self._assert_same_build(events, dispatched_only)
        self._assert_same_build(events[3:2001], dispatched_only)

    @pytest.mark.parametrize("dispatched_only", [True, False])
    def test_zero_operand_dispatch_build_parity(self, dispatched_only):
        # a dispatch with no operand records receiver class -1
        trace = trace_of([(10, 5, -1), (11, 5, 3), (12, 5, -1),
                          (13, 7, -1, False), (14, 9, 2)])
        self._assert_same_build(trace, dispatched_only)


@requires_numpy
class TestDispatchedIndexUnpack:
    """The numpy build's dispatched indices, unpacked from the bitset,
    against ``Trace.dispatched_indices()``, on a built trace and on one
    decoded from its payload as the store loads it (the ``mapped``
    case)."""

    VIEWS = [(0, 0), (3, 3), (8, 8), (0, 2500), (8, 2001), (16, 24),
             (3, 2001), (5, 13), (13, 14), (2491, 2500)]

    @pytest.mark.parametrize("mapped", [False, True],
                             ids=["array", "mapped"])
    @pytest.mark.parametrize("lo,hi", VIEWS,
                             ids=[f"{lo}:{hi}" for lo, hi in VIEWS])
    def test_matches_dispatched_indices(self, events, lo, hi, mapped):
        trace = Trace.from_bytes(events.to_bytes()) if mapped else events
        view = trace[lo:hi]
        assert np_engine.np_dispatched_indices(view).tolist() == \
            list(view.dispatched_indices())


@requires_numpy
class TestPlacementPurityGuard:
    """The carry-prefix reconstruction assumes placement is a function
    of block; violations must raise, never silently diverge."""

    def test_in_segment_violation_raises(self):
        fast = np_engine.NumpyMultiConfigLRU({1: 2})
        with pytest.raises(ValueError, match="pure function"):
            fast.replay_columns([5, 5], [10, 11])

    def test_cross_segment_violation_raises(self):
        fast = np_engine.NumpyMultiConfigLRU({1: 2})
        fast.touch(5, 10)
        with pytest.raises(ValueError, match="pure function"):
            fast.touch(5, 11)


class TestHitPrefixCaching:
    """hits()/full_hits()/OptStack.hits() answers stay correct across
    counted updates and resets (the cached prefix sums invalidate)."""

    def test_multi_config_cache_invalidation(self):
        engine = MultiConfigLRU({2: 3}, full_cap=4)
        stream = [(i % 7, i % 7) for i in range(60)]
        engine.replay(stream)
        assert engine.hits(2, 2) == sum(engine.histograms()[2][:2])
        first = engine.hits(2, 2)
        assert engine.hits(2, 2) == first          # cached path
        engine.replay(stream)                      # invalidates
        assert engine.hits(2, 2) == sum(engine.histograms()[2][:2])
        assert engine.full_hits(3) == sum(engine._full_hist[:3])
        engine.touch(3, 3)                         # invalidates too
        assert engine.hits(2, 2) == sum(engine.histograms()[2][:2])
        engine.reset_counts()
        assert engine.hits(2, 3) == 0
        assert engine.full_hits(4) == 0

    def test_opt_stack_cache_invalidation(self):
        blocks = [i % 5 for i in range(40)]
        next_use = next_use_times(blocks)
        opt = OptStack(4)
        for block, nxt in zip(blocks[:20], next_use[:20]):
            opt.touch(block, nxt)
        assert opt.hits(3) == sum(opt.hist[:3])
        for block, nxt in zip(blocks[20:], next_use[20:]):
            opt.touch(block, nxt)
        assert opt.hits(3) == sum(opt.hist[:3])
        opt.reset_counts()
        assert opt.hits(4) == 0


class TestNumpyAbsent:
    """engine="auto" must fall back cleanly and engine="numpy" must
    raise the typed, actionable error when numpy cannot be imported.
    These run on every CI leg: the block simulates absence even where
    numpy is installed."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        importlib.reload(np_engine)
        assert not np_engine.numpy_available()
        yield
        monkeypatch.undo()
        importlib.reload(np_engine)

    def test_auto_falls_back_to_pure_python(self, no_numpy, events):
        surface = run_sweep(
            SweepSpec("itlb", sizes=(8, 64), associativities=(1, 2),
                      double_pass=True), events)
        assert surface.meta["engine"] == "single-pass"

    def test_forced_numpy_raises_typed_actionable_error(self, no_numpy,
                                                        events):
        with pytest.raises(BackendUnavailable,
                           match=r"pip install .*numpy"):
            run_sweep(SweepSpec("itlb", engine="numpy"), events)

    def test_engine_construction_raises_too(self, no_numpy):
        with pytest.raises(BackendUnavailable):
            np_engine.NumpyMultiConfigLRU({1: 2})

    def test_reload_restores_availability(self):
        # The fixture teardown reloaded the real module: whatever the
        # environment has is reported again (and the sweep API still
        # works on the pure path regardless).
        try:
            import numpy  # noqa: F401
            importable = True
        except ImportError:
            importable = False
        assert np_engine.numpy_available() == importable


class TestLazyImport:
    """numpy is imported on first engine use, never by importing the
    package.  Each check runs in a fresh interpreter so ``sys.modules``
    starts clean."""

    @staticmethod
    def _python(code):
        src = Path(np_engine.__file__).resolve().parents[2]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr
        return done.stdout

    def test_imports_leave_numpy_unloaded(self):
        out = self._python(
            "import sys\n"
            "import repro.cli, repro.sweep\n"
            "from repro.experiments import registry\n"
            "registry.load_all()\n"
            "print('numpy' in sys.modules)\n")
        assert out.split() == ["False"]

    @requires_numpy
    def test_first_engine_check_imports_numpy(self):
        out = self._python(
            "import sys\n"
            "from repro.sweep import numpy_available\n"
            "before = 'numpy' in sys.modules\n"
            "print(before, numpy_available(), 'numpy' in sys.modules)\n")
        assert out.split() == ["False", "True", "True"]

    def test_cache_served_run_never_loads_numpy(self, tmp_path):
        argv = ["run", "--quick", "--trace-dir", str(tmp_path / "traces"),
                "--run-dir", str(tmp_path / "runs")]
        code = ("import sys\n"
                "from repro.cli import main\n"
                f"code = main({argv!r})\n"
                "print('numpy loaded:', 'numpy' in sys.modules)\n"
                "sys.exit(code)\n")
        self._python(code)          # cold: fills the sweep-result cache
        warm = self._python(code)   # warm: both figure sweeps are hits
        assert "numpy loaded: False" in warm
        summary = warm.rsplit("robustness:", 1)[1].splitlines()[0]
        assert "numpy" in summary

    def test_summary_names_numpy_absent_once_checked(self, tmp_path):
        # With numpy blocked, a cold run's sweeps check for it, so the
        # summary says it is absent rather than merely not loaded.
        argv = ["run", "--quick", "--trace-dir", str(tmp_path / "traces"),
                "--run-dir", str(tmp_path / "runs")]
        out = self._python(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.sweep import np_engine\n"
            "print('missing before:', np_engine.numpy_missing())\n"
            "from repro.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
        assert "missing before: False" in out
        summary = out.rsplit("robustness:", 1)[1].splitlines()[0]
        assert summary.endswith(", numpy absent")
