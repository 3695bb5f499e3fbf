"""Telemetry core: spans, metrics, the sink, report, CLI."""

import json
import os
from pathlib import Path

import pytest

import repro
from repro import cli, telemetry
from repro.telemetry import report as telemetry_report


@pytest.fixture(autouse=True)
def _clean_telemetry_state(monkeypatch):
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    yield
    telemetry.install(None)


def _read_spans(directory):
    path = Path(directory) / telemetry.SPANS_FILE
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        assert not telemetry.enabled()
        first = telemetry.span("a", x=1)
        second = telemetry.span("b")
        assert first is second  # no allocation on the disabled path

    def test_disabled_calls_create_no_files_and_no_recorder(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with telemetry.span("work", detail=1):
            telemetry.inc("counter", 3, label="x")
            telemetry.gauge("gauge", 1.5)
            telemetry.observe("hist", 2.0)
            telemetry.event("marker")
        telemetry.flush()
        assert telemetry._RECORDER is None
        assert telemetry.active_directory() is None
        assert list(tmp_path.iterdir()) == []

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with telemetry.span("work"):
                raise ValueError("boom")


class TestSpans:
    def test_nested_spans_record_parent_linkage(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("outer", kind="test") as outer:
            with telemetry.span("inner"):
                pass
        records = _read_spans(tmp_path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer_rec = records
        assert inner["parent"] == outer.id
        assert outer_rec["parent"] is None
        assert outer_rec["status"] == "ok"
        assert outer_rec["attrs"] == {"kind": "test"}
        assert inner["dur"] <= outer_rec["dur"]
        assert all(r["pid"] == os.getpid() for r in records)

    def test_exception_stamps_error_status_and_propagates(
            self, tmp_path):
        telemetry.install(tmp_path)
        with pytest.raises(KeyError):
            with telemetry.span("work"):
                raise KeyError("gone")
        (record,) = _read_spans(tmp_path)
        assert record["status"] == "error:KeyError"

    def test_set_attaches_mid_span_attributes(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("work") as sp:
            sp.set(outcome="hit", events=7)
        (record,) = _read_spans(tmp_path)
        assert record["attrs"] == {"outcome": "hit", "events": 7}

    def test_events_are_point_markers(self, tmp_path):
        telemetry.install(tmp_path)
        telemetry.event("fault.fired", site="worker.task")
        (record,) = _read_spans(tmp_path)
        assert record["kind"] == "event"
        assert record["attrs"] == {"site": "worker.task"}


class TestMetrics:
    def test_counters_gauges_histograms_flush_to_metrics_json(
            self, tmp_path):
        telemetry.install(tmp_path)
        telemetry.inc("hits")
        telemetry.inc("hits", 2)
        telemetry.inc("hits", 1, engine="numpy")
        telemetry.gauge("wall", 1.5)
        telemetry.observe("rate", 10.0, cache="itlb")
        telemetry.observe("rate", 30.0, cache="itlb")
        telemetry.flush()
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == [telemetry.METRICS_FILE]
        data = json.loads((tmp_path / telemetry.METRICS_FILE).read_text())
        assert data["counters"] == {"hits": 3, "hits{engine=numpy}": 1}
        assert data["gauges"] == {"wall": 1.5}
        assert data["histograms"]["rate{cache=itlb}"] == {
            "count": 2, "sum": 40.0, "min": 10.0, "max": 30.0}

    def test_metric_key_roundtrip(self):
        assert telemetry.split_metric_key("a.b") == ("a.b", {})
        assert telemetry.split_metric_key(
            "a{cache=itlb,engine=numpy}") == (
                "a", {"cache": "itlb", "engine": "numpy"})


class TestMergeAndFinalize:
    def test_reinstall_continues_the_registry_on_disk(self, tmp_path):
        # A resumed run re-arms the same directory: counters sum, the
        # last gauge wins and histograms combine.
        telemetry.install(tmp_path)
        telemetry.inc("a")
        telemetry.gauge("g", 1)
        telemetry.observe("h", 5.0)
        telemetry.install(None)
        telemetry.install(tmp_path)
        telemetry.inc("a", 2)
        telemetry.inc("b", 4)
        telemetry.gauge("g", 9)
        telemetry.observe("h", 1.0)
        telemetry.observe("h", 2.0)
        telemetry.flush()
        data = json.loads((tmp_path / telemetry.METRICS_FILE).read_text())
        assert data["counters"] == {"a": 3, "b": 4}
        assert data["gauges"] == {"g": 9}
        assert data["histograms"]["h"] == {
            "count": 3, "sum": 8.0, "min": 1.0, "max": 5.0}

    def test_finalize_writes_the_three_sink_files(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("work"):
            telemetry.inc("n")
        registry = telemetry.finalize()
        assert registry["counters"] == {"n": 1}
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [telemetry.SPANS_FILE, telemetry.METRICS_FILE,
             telemetry.ENVIRONMENT_FILE])

    def test_spans_after_finalize_append_to_spans_jsonl(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("first"):
            pass
        telemetry.finalize()
        with telemetry.span("second"):
            pass
        assert [r["name"] for r in _read_spans(tmp_path)] \
            == ["first", "second"]

    def test_environment_block_records_numpy_presence(self):
        block = telemetry.environment_block()
        assert "numpy" in block
        assert block["python"]
        try:
            import numpy
            assert block["numpy"] == numpy.__version__
        except ImportError:
            assert block["numpy"] is None


class TestReport:
    def _run(self, run_root):
        run_dir = run_root / "abc123"
        telemetry.install(run_dir / "telemetry")
        with telemetry.span("harness.run"):
            with telemetry.span("harness.task", task="FIG-10"):
                telemetry.inc("harness.tasks")
                with telemetry.span("sweep.run", cache="itlb"):
                    pass
        telemetry.inc("store.hit", 3)
        telemetry.inc("store.miss", 1)
        telemetry.finalize()
        telemetry.install(None)
        return run_dir

    def test_build_report_tree_reconciles_with_wall(self, tmp_path):
        run_dir = self._run(tmp_path)
        data = telemetry_report.load_run(run_dir)
        report = telemetry_report.build_report(data)
        assert report["run"] == "abc123"
        assert report["wall_seconds"] > 0
        paths = {p["path"]: p for p in report["phases"]}
        assert paths["harness.run"]["fraction_of_wall"] == 1.0
        assert ("harness.run/harness.task/sweep.run" in paths)
        # Self time never exceeds total, children nest under parent.
        for phase in report["phases"]:
            assert phase["self_seconds"] <= phase["total_seconds"] + 1e-9
        assert report["task_spans"] == 1
        assert report["task_counter"] == 1
        assert report["store"]["hit_rate"] == 0.75
        (slowest,) = report["slowest_tasks"]
        assert slowest["task"] == "FIG-10"
        text = telemetry_report.render(report)
        assert "phase-time breakdown" in text
        assert "MISMATCH" not in text

    def test_load_run_reports_a_run_that_never_finalized(self, tmp_path):
        run_dir = tmp_path / "xyz"
        telemetry.install(run_dir / "telemetry")
        with telemetry.span("harness.run"):
            telemetry.inc("harness.tasks")
        telemetry.flush()
        # No finalize: the run "crashed".  Reporting still works and
        # leaves the directory as it was.
        tdir = run_dir / "telemetry"
        before = sorted(path.name for path in tdir.iterdir())
        data = telemetry_report.load_run(run_dir)
        assert [s["name"] for s in data["spans"]] == ["harness.run"]
        assert data["metrics"]["counters"] == {"harness.tasks": 1}
        assert data["environment"] == {}
        assert sorted(path.name for path in tdir.iterdir()) == before

    def test_find_run_directory_prefers_newest_and_honors_prefix(
            self, tmp_path):
        old = tmp_path / "aaa111" / "telemetry"
        new = tmp_path / "bbb222" / "telemetry"
        old.mkdir(parents=True)
        new.mkdir(parents=True)
        os.utime(old, (1, 1))
        assert telemetry_report.find_run_directory(
            tmp_path).name == "bbb222"
        assert telemetry_report.find_run_directory(
            tmp_path, run="aaa").name == "aaa111"
        with pytest.raises(FileNotFoundError):
            telemetry_report.find_run_directory(tmp_path, run="zzz")


class TestCli:
    def test_version_flag_prints_versioned_surfaces(self, capsys):
        assert cli.main(["--version"]) == 0
        out = capsys.readouterr().out
        assert f"repro {repro.__version__}" in out
        assert "trace format:" in out
        assert "semantics:" in out
        assert "engines:" in out

    def test_report_without_telemetry_runs_errors_cleanly(
            self, tmp_path, capsys):
        code = cli.main(["report", "--run-dir", str(tmp_path)])
        assert code == 2
        assert "repro run --telemetry" in capsys.readouterr().err

    def test_report_renders_text_and_json(self, tmp_path, capsys):
        run_dir = tmp_path / "feed01"
        telemetry.install(run_dir / "telemetry")
        with telemetry.span("harness.run"):
            telemetry.inc("harness.tasks")
        telemetry.finalize()
        telemetry.install(None)
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
        assert "phase-time breakdown" in capsys.readouterr().out
        assert cli.main(["report", "--run-dir", str(tmp_path),
                         "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["run"] == "feed01"
        assert document["span_count"] == 1
