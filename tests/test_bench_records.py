"""The benchmark suite's record file, ``BENCH_throughput.json``.

``benchmarks/conftest.py`` writes every bench's numbers there at
session end.  A session replaces the records of the benches it ran and
drops those of benches that no longer exist; a bench it did not run
keeps its record.  The case below runs the real conftest over a small
bench module in a scratch tree, in a pytest process of its own.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCHES = '''
def test_fresh(wallclock_records):
    wallclock_records["tiny::fresh"] = {"wall_seconds": 0.5}


def test_idle(wallclock_records):
    wallclock_records["tiny::idle"] = {"wall_seconds": 0.25}


def test_timed(benchmark):
    benchmark.pedantic(sum, args=([1, 2],), rounds=1, iterations=1)
'''


def test_session_replaces_what_it_ran_and_drops_what_is_gone(tmp_path):
    benches = tmp_path / "benchmarks"
    benches.mkdir()
    shutil.copy(ROOT / "benchmarks" / "conftest.py", benches)
    (benches / "test_bench_tiny.py").write_text(BENCHES)
    module = "benchmarks/test_bench_tiny.py"
    stale = {"wall_seconds": 9.0}
    path = tmp_path / "BENCH_throughput.json"
    path.write_text(json.dumps({
        # Written by a bench that ran, under a name it no longer writes.
        "tiny::old_name": dict(stale, test=f"{module}::test_fresh"),
        # A bench renamed away, a bench file deleted, and a record from
        # before records named their test.
        "tiny::renamed": dict(stale, test=f"{module}::test_renamed_away"),
        "gone::bench": dict(stale,
                            test="benchmarks/test_bench_gone.py::test_x"),
        "store::load_mmap": dict(stale),
        # A bench this session does not select.
        "tiny::idle": dict(stale, test=f"{module}::test_idle"),
    }))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), "-k", "not idle", "benchmarks"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    records = json.loads(path.read_text())
    assert sorted(name for name in records if not name.startswith("_")) \
        == [f"{module}::test_timed", "tiny::fresh", "tiny::idle"]
    assert records["tiny::fresh"] == {"wall_seconds": 0.5,
                                      "test": f"{module}::test_fresh"}
    assert records["tiny::idle"] == dict(stale,
                                         test=f"{module}::test_idle")
    assert records[f"{module}::test_timed"]["test"] \
        == f"{module}::test_timed"
