"""Shared fixtures for the benchmark suite.

The measurement trace comes through the scenario registry's on-disk
trace store, so benchmark runs stop paying Fith re-execution once the
trace exists (the first run of a fresh checkout generates it; every
later run -- and every other consumer, including the harness and the
tests -- loads the same file).  Scale with REPRO_BENCH_SCALE=N; point
the store elsewhere with REPRO_TRACE_DIR.

At session end, every pytest-benchmark result is written to
``BENCH_throughput.json`` at the repository root (ops/sec per
benchmark) so the performance trajectory is tracked across PRs.
Wall-clock measurements recorded via the ``wallclock_records``
fixture (the sweep, store, trace and telemetry benches) land in the
same file.  Every record names the test that wrote it (``"test"``, a
node id).  A session replaces the records of each test it ran, drops
those of tests that no longer exist, and leaves the rest alone, so a
partial run (``-k``, one file) keeps the other benches' numbers and a
renamed or deleted bench leaves no stale record behind.  The file is
written deterministically -- keys sorted at every level, a
``_environment`` stamp identifying the host class the numbers came
from, and no rewrite at all when the merged content is byte-identical
-- so bench-only commits stop churning the whole file.
"""

import json
import os
from pathlib import Path

import pytest

from repro import telemetry
from repro.workloads import TraceStore

_WALLCLOCK = {}
#: Node ids of the benches this session ran, and the module each one's
#: file imported as (node-id path -> module).
_RAN = set()
_MODULES = {}


def pytest_runtest_setup(item):
    _RAN.add(item.nodeid)
    _MODULES[item.nodeid.split("::")[0]] = item.module


@pytest.fixture(autouse=True)
def _no_result_cache(monkeypatch):
    """Benches measure replay, not the sweep-result cache.

    The store-loaded ``events`` trace carries its content key, so with
    the cache live every warm re-run of a figure or harness bench
    would silently time a cache hit instead of the engine.  The cache
    bench in test_bench_store re-enables it locally.
    """
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")

#: A fresh throughput below this fraction of the committed number is
#: flagged as a regression (warning only -- hosts differ; the guard
#: exists to make a 10x cliff visible, not to gate CI on noise).
REGRESSION_FRACTION = 0.7


def find_regressions(existing: dict, payload: dict) -> list:
    """(name, field, committed, fresh) for every >30% throughput drop.

    Compares every ``*per_second`` field of the fresh *payload*
    against the committed record of the same benchmark.
    """
    out = []
    for name, record in payload.items():
        if name.startswith("_") or not isinstance(record, dict):
            continue
        committed = existing.get(name)
        if not isinstance(committed, dict):
            continue
        for field, fresh in record.items():
            if not field.endswith("per_second"):
                continue
            baseline = committed.get(field)
            if not isinstance(baseline, (int, float)) or baseline <= 0:
                continue
            if isinstance(fresh, (int, float)) \
                    and fresh < REGRESSION_FRACTION * baseline:
                out.append((name, field, baseline, fresh))
    return out


@pytest.fixture(scope="session")
def events():
    scale = int(os.environ.get("REPRO_BENCH_SCALE", "1"))
    return TraceStore().load("paper", scale=scale)


class _WallclockRecords:
    """``records[name] = {seconds, ...}``: stores a record for the
    JSON, stamped with the node id of the test that wrote it."""

    def __init__(self, test: str) -> None:
        self._test = test

    def __setitem__(self, name: str, record: dict) -> None:
        _WALLCLOCK[name] = dict(record, test=self._test)


@pytest.fixture
def wallclock_records(request):
    """Mapping to store wall-clock records in: name -> {seconds, ...}
    merged into the JSON."""
    return _WallclockRecords(request.node.nodeid)


def _kept(record, root: Path) -> bool:
    """Whether a committed record survives this session: its test did
    not run and still exists.  A record without a ``test`` predates
    the stamp and no session can replace it, so it goes."""
    test = record.get("test") if isinstance(record, dict) else None
    if not test or test in _RAN:
        return False
    path, _, name = test.partition("::")
    module = _MODULES.get(path)
    if module is None:
        return (root / path).is_file()
    return hasattr(module, name.split("::")[0].split("[")[0])


def pytest_sessionfinish(session, exitstatus):
    """Record ops/sec for every benchmark that ran this session."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    payload = {}
    for name, record in _WALLCLOCK.items():
        payload[name] = record
    for bench in getattr(bench_session, "benchmarks", []) \
            if bench_session is not None else []:
        stats = getattr(bench, "stats", None)
        # Some pytest-benchmark versions nest Stats inside Metadata.
        stats = getattr(stats, "stats", stats)
        if stats is None or not getattr(stats, "rounds", 0):
            continue
        # fullname, the bench's node id (module::test), keeps
        # same-named benchmarks in different files from colliding.
        test = getattr(bench, "fullname", bench.name)
        payload[test] = {
            "ops_per_second": stats.ops,
            "mean_seconds": stats.mean,
            "rounds": stats.rounds,
            "test": test,
        }
    if not payload:
        return
    # A host/environment stamp: when committed numbers shift, the
    # stamp says whether the host class shifted with them (the numpy
    # version -- or its absence -- decides which sweep engine the
    # numbers exercised).  Stable per machine so it does not by
    # itself dirty the file.
    payload["_environment"] = telemetry.environment_block()
    root = Path(str(session.config.rootpath))
    path = root / "BENCH_throughput.json"
    try:
        # Merge over the records this session did not replace, so a
        # partial run (-k, single file) updates its benchmarks without
        # erasing the others.
        try:
            existing_text = path.read_text()
        except OSError:
            existing_text = ""
        try:
            existing = json.loads(existing_text)
            if isinstance(existing, dict):
                # Warn (never fail) when a fresh number cratered
                # against the committed baseline.
                for name, field, baseline, fresh \
                        in find_regressions(existing, payload):
                    print(f"\nBENCH REGRESSION: {name} {field} "
                          f"{fresh:,.0f} < {REGRESSION_FRACTION:.0%} "
                          f"of committed {baseline:,.0f}")
                    telemetry.event("bench.regression", benchmark=name,
                                    field=field, committed=baseline,
                                    fresh=fresh)
                kept = {name: record for name, record in existing.items()
                        if not name.startswith("_") and _kept(record, root)}
                kept.update(payload)
                payload = kept
        except ValueError:
            pass
        # sort_keys at every level + fixed separators make the
        # serialization canonical; identical content is not rewritten.
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if text != existing_text:
            path.write_text(text)
    except OSError:  # never fail the run over bookkeeping
        pass
