"""The stack-distance engine against the grid's own cache model.

The load-bearing guarantee mirrors test_sweep.py's: every count the
numpy engine answers -- ``total``, each (sets, ways) configuration's
hits and each fully-associative capacity's hits -- must equal what one
``SetAssociativeCache`` per configuration counts
(:class:`trace_helpers.LruOracle`), across random column pairs
(varying alphabet sizes, set counts, depth caps, count=False segments,
count resets, sub-ranges), loop-structured streams and a deep
fully-associative column.  The reference-stream builders are checked
against per-event scans, and numpy stays a lazy import that a missing
install turns into an ``ImportError``.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.caches.setassoc import stable_hash
from repro.sweep import np_engine
from repro.sweep.engine import OptStack
from repro.sweep.runner import _itlb_ref_columns
from repro.trace.cachesim import simulate_icache
from repro.trace.columnar import Trace
from repro.workloads import names, specs
from trace_helpers import (
    LruOracle,
    engine_counts,
    mixed_trace,
    trace_of,
)


@pytest.fixture(scope="module")
def events():
    return mixed_trace(2500, seed=7)


def _random_case(seed):
    """One random (columns, geometry, replay plan) torture case.

    Plans mix counted and warm (count=False) sub-range segments with
    occasional count resets -- every segmented-replay shape the runner
    can produce, plus ones it cannot.
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


def _assert_plan_matches_oracle(blocks, placements, level_caps, full_cap,
                                plan):
    """Replay ``plan`` on the engine and on the oracle, every
    fully-associative capacity up to ``full_cap`` included.

    The engine keeps counting across a "reset" step, where the oracle
    zeroes its counts: from then on the engine's counts are read
    against the ones it had at the reset.
    """
    full_entries = range(1, full_cap + 1)
    engine = np_engine.NumpyMultiConfigLRU(dict(level_caps), full_cap)
    oracle = LruOracle(level_caps, full_entries)
    baseline = {}
    for step in plan:
        if step == "reset":
            baseline = engine_counts(engine, level_caps, full_entries)
            oracle.reset()
        else:
            engine.replay_columns(blocks, placements, *step)
            oracle.replay_columns(blocks, placements, *step)
    got = engine_counts(engine, level_caps, full_entries)
    assert {key: count - baseline.get(key, 0)
            for key, count in got.items()} == oracle.counts()


class TestRandomizedEquivalence:
    """Seeded random column pairs: engine == one cache per
    configuration, bitwise."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_plan_equivalence(self, seed):
        _assert_plan_matches_oracle(*_random_case(seed))

    @pytest.mark.parametrize("seed", range(32))
    def test_loop_plan_equivalence(self, seed):
        blocks, placements, level_caps, plan = _loop_case(seed)
        _assert_plan_matches_oracle(blocks, placements, level_caps, 0,
                                    plan)

    def test_max_tree_query_matches_a_scan(self):
        # The descent's contract on its own: the largest u <= v with
        # values[u] >= x, or -1.  At the resolver's call site v + 1 is
        # always a run the vector rounds found dead, so only a direct
        # check pins the boundary at v.
        rng = random.Random(20)
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
        _assert_plan_matches_oracle(blocks, placements, {1: 4, 2: 5}, 0,
                                    [(0, len(blocks), True)])

    def test_one_reference_segment_equivalence(self):
        # One-reference segments, every fifth one warm, through the
        # carry machinery.
        rng = random.Random(44)
        pmap = {block: rng.getrandbits(16) for block in range(30)}
        blocks = [rng.randrange(30) for _ in range(400)]
        placements = [pmap[block] for block in blocks]
        plan = [(i, i + 1, i % 5 != 0) for i in range(len(blocks))]
        _assert_plan_matches_oracle(blocks, placements, {1: 2, 3: 4}, 8,
                                    plan)

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
        full_entries = (1, 2, 64, 512, 2048, 4095, 4096)
        engine = np_engine.NumpyMultiConfigLRU(dict(level_caps), full_cap)
        oracle = LruOracle(level_caps, full_entries)
        for model in (engine, oracle):
            model.replay_columns(blocks, placements, 0, 6_000, False)
            model.replay_columns(blocks, placements, 6_000, 76_000, True)
        assert engine_counts(engine, level_caps, full_entries) \
            == oracle.counts()
        # more misses than first references: some depths clamped
        first_refs = len(set(blocks[6_000:76_000]) - set(blocks[:6_000]))
        assert engine.total - engine.full_hits(full_cap) > first_refs
        assert engine.full_hits(full_cap) \
            > engine.full_hits(full_cap // 2)
        # a later counted segment adds to the counts
        baseline = engine_counts(engine, level_caps, full_entries)
        oracle.reset()
        for model in (engine, oracle):
            model.replay_columns(blocks, placements, 76_000, 80_000, True)
        got = engine_counts(engine, level_caps, full_entries)
        assert {key: count - baseline[key]
                for key, count in got.items()} == oracle.counts()

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
        assert np_engine.np_next_use_times(blocks) == [
            float(next((j for j in range(i + 1, len(blocks))
                        if blocks[j] == block), float("inf")))
            for i, block in enumerate(blocks)]
        assert np_engine.np_next_use_times([]) == []


@pytest.fixture(scope="module")
def quick_traces():
    return {spec.name: spec.generate(spec.resolve(quick=True))
            for spec in specs()}


class TestItlbReferenceBuild:
    """The ITLB reference build is the per-event stream the ITLB sees:
    ``array('q')`` keys ``(opcode << 32) ^ (receiver & 0xFFFFFFFF)``
    and ``array('Q')`` placements ``stable_hash((opcode,
    (receiver,)))``."""

    @staticmethod
    def _assert_same_build(trace, dispatched_only):
        blocks, placements = _itlb_ref_columns(trace, dispatched_only)
        assert [blocks.typecode, placements.typecode] == ["q", "Q"]
        opcodes = trace.opcodes()
        classes = trace.receiver_classes()
        indices = (trace.dispatched_indices() if dispatched_only
                   else range(len(trace)))
        assert blocks.tolist() == [
            (opcodes[i] << 32) ^ (classes[i] & 0xFFFFFFFF)
            for i in indices]
        assert placements.tolist() == [
            stable_hash((opcodes[i], (classes[i],))) for i in indices]

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


class TestPlacementPurityGuard:
    """The carry-prefix reconstruction assumes placement is a function
    of block; violations must raise, never silently diverge."""

    def test_in_segment_violation_raises(self):
        fast = np_engine.NumpyMultiConfigLRU({1: 2})
        with pytest.raises(ValueError, match="pure function"):
            fast.replay_columns([5, 5], [10, 11])

    def test_cross_segment_violation_raises(self):
        fast = np_engine.NumpyMultiConfigLRU({1: 2})
        fast.replay_columns([5], [10])
        with pytest.raises(ValueError, match="pure function"):
            fast.replay_columns([5], [11])


class TestHitPrefixCaching:
    """hits()/full_hits()/OptStack.hits() answers stay correct across
    counted updates (the cached prefix sums invalidate)."""

    def test_multi_config_cache_invalidation(self):
        engine = np_engine.NumpyMultiConfigLRU({2: 3}, full_cap=4)
        oracle = LruOracle({2: 3}, range(1, 5))
        stream = [i % 7 for i in range(60)]
        for blocks, count in ((stream, True), (stream, True),
                              (stream, False), ([3], True)):
            engine.replay_columns(blocks, blocks, count=count)
            oracle.replay_columns(blocks, blocks, count=count)
            assert engine.hits(2, 2) == oracle.hits(2, 2)
            assert engine.hits(2, 2) == oracle.hits(2, 2)  # cached path
            assert engine_counts(engine, {2: 3}, range(1, 5)) \
                == oracle.counts()

    def test_opt_stack_cache_invalidation(self):
        blocks = [i % 5 for i in range(40)]
        next_use = np_engine.np_next_use_times(blocks)
        opt = OptStack(4)
        for block, nxt in zip(blocks[:20], next_use[:20]):
            opt.touch(block, nxt)
        assert opt.hits(3) == sum(opt.hist[:3])
        for block, nxt in zip(blocks[20:], next_use[20:]):
            opt.touch(block, nxt)
        assert opt.hits(3) == sum(opt.hist[:3])


class TestLazyImport:
    """numpy is imported on first engine use, never by importing the
    package, and a missing numpy fails the engine instead of being
    replaced.  Each check runs in a fresh interpreter so
    ``sys.modules`` starts clean."""

    @staticmethod
    def _python(code, environ=None):
        src = Path(np_engine.__file__).resolve().parents[2]
        env = {key: value for key, value in (environ or os.environ).items()
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

    def test_version_engines_and_environment_leave_numpy_unloaded(self):
        out = self._python(
            "import sys\n"
            "from repro import telemetry\n"
            "from repro.cli import main\n"
            "main(['--version'])\n"
            "main(['list', '--engines'])\n"
            "block = telemetry.environment_block()\n"
            "print('numpy loaded:', 'numpy' in sys.modules)\n"
            "print('recorded:', block['numpy'])\n")
        assert "numpy loaded: False" in out
        assert "engines:       auto, grid" in out
        assert f"recorded: {np.__version__}" in out
        assert f"(numpy {np.__version__})" in out

    def test_first_engine_check_imports_numpy(self):
        out = self._python(
            "import sys\n"
            "from repro.sweep import numpy_available\n"
            "before = 'numpy' in sys.modules\n"
            "print(before, numpy_available(), 'numpy' in sys.modules)\n")
        assert out.split() == ["False", "True", "True"]

    def test_blocked_numpy_fails_a_cold_sweep(self):
        # No silent stand-in: the auto engine raises ImportError.  The
        # grid simulates each configuration in pure python.
        out = self._python(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.sweep import SweepSpec, run_sweep\n"
            "from repro.trace.columnar import TraceBuilder\n"
            "builder = TraceBuilder()\n"
            "for i in range(64):\n"
            "    builder.record(i % 13, i % 5, i % 3)\n"
            "trace = builder.snapshot()\n"
            "spec = SweepSpec('itlb', sizes=(8,), associativities=(1,))\n"
            "grid = run_sweep(SweepSpec('itlb', sizes=(8,),\n"
            "                           associativities=(1,),\n"
            "                           engine='grid'), trace)\n"
            "print('grid:', grid.meta['engine'])\n"
            "try:\n"
            "    run_sweep(spec, trace)\n"
            "except ImportError:\n"
            "    print('auto: ImportError')\n")
        assert out.split("\n")[:2] == ["grid: grid", "auto: ImportError"]

    @pytest.mark.parametrize("preset", [None, "4"],
                             ids=["unset", "user-set"])
    def test_first_engine_check_pins_openblas_to_one_thread(self, preset):
        # numpy's import runs with the variable at 1 unless the
        # environment sets it; afterwards the environment is as it was.
        # The process's thread count (Linux only) shows the import kept
        # OpenBLAS to the main thread.
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = self._python(
            "import os\n"
            "from repro.sweep import numpy_available\n"
            "numpy_available()\n"
            "tasks = '/proc/self/task'\n"
            "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) "
            "else 'unknown'\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)\n",
            env)
        variable, threads = out.split()
        assert variable == str(preset)
        if preset is None:
            assert threads in ("1", "unknown")

    def test_cache_served_run_never_loads_numpy(self, tmp_path):
        def run(*extra):
            argv = ["run", "--quick",
                    "--trace-dir", str(tmp_path / "traces"),
                    "--run-dir", str(tmp_path / "runs"), *extra]
            return self._python(
                "import sys\n"
                "from repro.cli import main\n"
                f"code = main({argv!r})\n"
                "print('numpy loaded:', 'numpy' in sys.modules)\n"
                "sys.exit(code)\n")

        run()  # cold: fills the sweep-result cache
        # warm: both figure sweeps are result-cache hits, and a
        # telemetry run's environment stamp reads metadata only
        for warm in (run(), run("--telemetry")):
            assert "numpy loaded: False" in warm
            summary = warm.rsplit("robustness:", 1)[1].splitlines()[0]
            assert summary.endswith(", numpy not loaded")
