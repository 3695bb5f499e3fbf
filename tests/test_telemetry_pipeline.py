"""Telemetry threaded through the harness pipeline.

Pins the observability acceptance criteria: armed runs produce a
complete, reconcilable sink; disabled runs produce *zero* files and
identical results; chaos (injected task failures, retries, resume)
neither breaks telemetry nor is misrepresented by it.
"""

import io
import json

import pytest

from repro import faults, telemetry
from repro.experiments.harness import run_all
from repro.telemetry import report as telemetry_report

#: Cheap experiments (no trace workloads), in registry order.
LIGHT = ["TAB-CCACHE", "TAB-ADDR"]


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    monkeypatch.setattr(faults, "_ACTIVE", None)
    yield
    telemetry.install(None)
    faults.install(None)


def _claims(results):
    return [(r.experiment, c.claim, c.holds)
            for r in results for c in r.claims]


def _telemetry_run_dirs(run_root):
    return [child for child in run_root.iterdir()
            if (child / "telemetry").is_dir()]


def _load(run_root):
    (run_dir,) = _telemetry_run_dirs(run_root)
    return telemetry_report.load_run(run_dir)


class TestArmedRun:
    def test_run_produces_merged_sink_and_identical_claims(
            self, tmp_path):
        baseline = run_all(stream=io.StringIO(), only=LIGHT,
                           trace_dir=str(tmp_path / "t"),
                           run_dir=str(tmp_path / "r"))
        traced = run_all(stream=io.StringIO(), only=LIGHT,
                         trace_dir=str(tmp_path / "t"),
                         run_dir=str(tmp_path / "r2"),
                         with_telemetry=True)
        assert _claims(traced) == _claims(baseline)

        (run_dir,) = _telemetry_run_dirs(tmp_path / "r2")
        tdir = run_dir / "telemetry"
        # finalize() ran: the sink is exactly its three files ...
        assert sorted(path.name for path in tdir.iterdir()) == sorted(
            [telemetry.SPANS_FILE, telemetry.METRICS_FILE,
             telemetry.ENVIRONMENT_FILE])
        # ... and the run disarmed telemetry behind itself.
        assert not telemetry.enabled()

        data = telemetry_report.load_run(run_dir)
        report = telemetry_report.build_report(data)
        assert report["task_spans"] == len(LIGHT)
        assert report["task_counter"] == len(LIGHT)
        counters = data["metrics"]["counters"]
        assert counters["harness.experiments"] == len(LIGHT)
        assert counters["journal.records"] == len(LIGHT)
        assert counters["harness.claims_held"] \
            == counters["harness.claims_total"] == len(_claims(traced))
        names = {span["name"] for span in data["spans"]}
        assert {"harness.run", "harness.task",
                "journal.record"} <= names
        environment = data["environment"]
        assert "numpy" in environment

    def test_summary_notes_numpy_and_telemetry_dir(self, tmp_path):
        stream = io.StringIO()
        run_all(stream=stream, only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"), with_telemetry=True)
        output = stream.getvalue()
        assert "numpy" in output.rsplit("robustness:", 1)[1]
        assert "telemetry:" in output

    def test_sweep_seams_recorded_for_trace_experiments(self, tmp_path):
        run_all(stream=io.StringIO(), only=["FIG-10"], quick=True,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"), with_telemetry=True)
        data = _load(tmp_path / "r")
        counters = data["metrics"]["counters"]
        assert telemetry_report.counter_total(
            data["metrics"], "sweep.refs_replayed") > 0
        assert telemetry_report.counter_total(
            data["metrics"], "store.generated") == 1
        names = {span["name"] for span in data["spans"]}
        assert {"harness.materialize", "store.load", "store.write",
                "sweep.run"} <= names
        assert any(key.startswith("sweep.replay_events_per_sec")
                   for key in data["metrics"]["histograms"])
        assert counters["harness.tasks"] == 1


class TestDisabledRun:
    def test_no_telemetry_flag_writes_zero_telemetry_files(
            self, tmp_path):
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"))
        assert _telemetry_run_dirs(tmp_path / "r") == []
        run_root = tmp_path / "r"
        stray = [path for path in run_root.rglob("*")
                 if "telemetry" in path.name
                 or path.name.startswith(("spans", "metrics"))]
        assert stray == []
        assert not telemetry.enabled()

    def test_fresh_run_clears_a_stale_telemetry_sink(self, tmp_path):
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"), with_telemetry=True)
        # The same run identity again, telemetry off: the journal
        # clears its directory, stale spans must not survive.
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"))
        assert _telemetry_run_dirs(tmp_path / "r") == []


class TestChaos:
    def test_injected_error_counters_match_the_fired_log(
            self, tmp_path):
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"),
                retries=3, backoff=0.0,
                fault_plan="worker.task:error:times=1",
                fault_seed=5, with_telemetry=True)
        data = _load(tmp_path / "r")
        metrics = data["metrics"]
        # times=1 is per task key: each experiment's task fails once.
        fired_events = [e for e in data["events"]
                        if e.get("name") == "fault.fired"]
        assert len(fired_events) == telemetry_report.counter_total(
            metrics, "faults.fired") == len(LIGHT)
        assert telemetry_report.counter_total(
            metrics, "harness.retries") == len(LIGHT)
        retry_events = [e for e in data["events"]
                        if e.get("name") == "harness.retry"]
        assert len(retry_events) == len(LIGHT)
        # Every experiment took one failed + one successful attempt.
        assert telemetry_report.counter_total(
            metrics, "harness.tasks") == 2 * len(LIGHT)
        report = telemetry_report.build_report(data)
        assert report["robustness"]["faults_fired"] == len(LIGHT)
        assert report["robustness"]["retries"] == len(LIGHT)

    def test_claims_identical_across_off_on_and_chaos(self, tmp_path):
        plain = run_all(stream=io.StringIO(), only=LIGHT,
                        trace_dir=str(tmp_path / "t"),
                        run_dir=str(tmp_path / "r1"))
        traced = run_all(stream=io.StringIO(), only=LIGHT,
                         trace_dir=str(tmp_path / "t"),
                         run_dir=str(tmp_path / "r2"),
                         with_telemetry=True)
        chaos = run_all(stream=io.StringIO(), only=LIGHT,
                        trace_dir=str(tmp_path / "t"),
                        run_dir=str(tmp_path / "r3"),
                        retries=3, backoff=0.0,
                        fault_plan="worker.task:error:times=1",
                        fault_seed=5, with_telemetry=True)
        assert _claims(plain) == _claims(traced) == _claims(chaos)
        assert all(r.all_hold for r in chaos)


class TestResume:
    def test_resume_adds_to_the_sink_without_double_counting(
            self, tmp_path):
        kwargs = dict(only=LIGHT, trace_dir=str(tmp_path / "t"),
                      run_dir=str(tmp_path / "r"),
                      with_telemetry=True)
        # First run: every task fails permanently (nothing journaled).
        failed = run_all(stream=io.StringIO(), retries=0, backoff=0.0,
                         fault_plan="worker.task:error:times=99",
                         fault_seed=5, **kwargs)
        assert all(not r.all_hold for r in failed)
        # Resume with no faults: both experiments rerun and succeed.
        resumed = run_all(stream=io.StringIO(), resume=True, **kwargs)
        assert all(r.all_hold for r in resumed)

        data = _load(tmp_path / "r")
        # 2 failed attempts + 2 successful reruns, once each: the
        # resume appends to the first run's sink without copying or
        # re-counting what that run recorded.
        tasks = [s for s in data["spans"]
                 if s["name"] == "harness.task"]
        assert len(tasks) == 4
        ids = [s["id"] for s in data["spans"]]
        assert len(ids) == len(set(ids))
        assert telemetry_report.counter_total(
            data["metrics"], "harness.tasks") == 4
        statuses = sorted(s["status"] for s in tasks)
        assert statuses == ["error:InjectedTaskError",
                            "error:InjectedTaskError", "ok", "ok"]
        assert telemetry_report.counter_total(
            data["metrics"], "journal.records") == 2

    def test_resume_serving_from_journal_is_spanned(self, tmp_path):
        kwargs = dict(only=LIGHT, trace_dir=str(tmp_path / "t"),
                      run_dir=str(tmp_path / "r"),
                      with_telemetry=True)
        run_all(stream=io.StringIO(), **kwargs)
        stream = io.StringIO()
        run_all(stream=stream, resume=True, **kwargs)
        assert "2 experiment(s) served" in stream.getvalue()
        data = _load(tmp_path / "r")
        resume_spans = [s for s in data["spans"]
                        if s["name"] == "journal.resume"]
        assert len(resume_spans) == 1
        assert resume_spans[0]["attrs"]["served"] == 2
        assert telemetry_report.counter_total(
            data["metrics"], "harness.resumed") == 2
