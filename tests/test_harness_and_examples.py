"""Smoke tests: the run-everything harness and the example scripts.

These guarantee the documented entry points keep working: the
harness's :func:`~repro.experiments.harness.run_all` (what `repro run`
calls) and `python examples/<script>.py`.  The command line has one
`__main__` module, `python -m repro`; no other module under src/ may
run as a script.  Detailed claim checks live in test_experiments.py.
"""

import io
import pathlib
import re
import runpy

import pytest

from repro.experiments.harness import run_all

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
if not EXAMPLES:
    # One collection error, not an empty parametrization and a missing
    # script per named example.
    pytest.fail(f"no example scripts in {EXAMPLES_DIR}: this module runs "
                "every one of them", pytrace=False)


@pytest.mark.slow
class TestHarness:
    def test_quick_run_reproduces_everything(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        stream = io.StringIO()
        results = run_all(quick=True, stream=stream,
                          trace_dir=trace_dir)
        assert len(results) == 7
        failed = [claim.claim
                  for result in results
                  for claim in result.claims if not claim.holds]
        assert not failed, failed
        output = stream.getvalue()
        assert "SUMMARY" in output
        assert "DIVERGES" not in output
        # The store's files are its only record: the payload at the
        # root and the two figures' result entries under results/.
        layout = sorted(path.relative_to(trace_dir).as_posix()
                        for path in pathlib.Path(trace_dir).rglob("*"))
        assert [re.sub("[0-9a-f]{20,}", "KEY", name)
                for name in layout] == [
            "paper-KEY.trace", "results", "results/KEY.json",
            "results/KEY.json"]
        # The first run materialized the measurement trace into the
        # store; a second harness run must load it (no Fith
        # re-execution for cached workloads).
        rerun = io.StringIO()
        again = run_all(quick=True, stream=rerun, only=["FIG-10"],
                        trace_dir=trace_dir)
        assert "loaded from trace store" in rerun.getvalue()
        assert again[0].all_hold


class TestExamples:
    @pytest.mark.parametrize(
        "script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
    def test_example_runs(self, script, capsys):
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        assert out.strip(), f"{script.name} printed nothing"

    def test_quickstart_prints_factorial(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"),
                       run_name="__main__")
        assert "3628800" in capsys.readouterr().out

    def test_coroutine_prints_42(self, capsys):
        runpy.run_path(str(EXAMPLES_DIR / "coroutines_xfer.py"),
                       run_name="__main__")
        assert "42" in capsys.readouterr().out


def test_only_the_package_main_module_runs_as_a_script():
    src = ROOT / "src"
    main_block = re.compile(
        r"""^if\s+__name__\s*==\s*["']__main__["']\s*:""", re.M)
    holders = sorted(path.relative_to(src).as_posix()
                     for path in src.rglob("*.py")
                     if main_block.search(path.read_text()))
    assert holders == ["repro/__main__.py"]
