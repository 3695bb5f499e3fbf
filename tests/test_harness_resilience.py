"""Harness fault tolerance: retries with backoff, quarantine of
corrupt store reads, and the crash-safe run journal / --resume."""

import io

import pytest

from repro import faults
from repro.experiments.harness import run_all
from repro.faults import FaultPlan
from repro.experiments.journal import RunJournal, run_key

#: Cheap experiments (no trace workloads) used for engine-level
#: tests, in registry order (run keys hash the selected suite order).
LIGHT = ["TAB-CCACHE", "TAB-ADDR"]


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.setattr(faults, "_ACTIVE", None)
    yield
    faults.install(None)


def _claims(results):
    return [(c.claim, c.holds) for r in results for c in r.claims]


class TestChaosEquivalence:
    """The acceptance pin: under a seeded fault plan the suite must
    complete with results byte-identical to the fault-free run, via
    the retry and quarantine paths."""

    def test_injected_task_errors_retry_to_identical_results(
            self, tmp_path):
        baseline = run_all(stream=io.StringIO(), only=LIGHT,
                           trace_dir=str(tmp_path / "t"),
                           run_dir=str(tmp_path / "r"))
        chaotic = run_all(stream=io.StringIO(), only=LIGHT,
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r2"),
                          retries=3, backoff=0.0,
                          fault_plan=FaultPlan.parse(
                              "worker.task:error:times=1", seed=5))
        assert _claims(chaotic) == _claims(baseline)
        assert all(r.all_hold for r in chaotic)

    def test_same_seed_reproduces_the_same_injection_log(
            self, tmp_path):
        def chaos_run(tag):
            stream = io.StringIO()
            run_all(stream=stream, only=LIGHT,
                    trace_dir=str(tmp_path / "t"),
                    run_dir=str(tmp_path / tag),
                    retries=3, backoff=0.0,
                    fault_plan=FaultPlan.parse(
                        "worker.task:error:p=0.5:times=2", seed=21))
            return [line for line in stream.getvalue().splitlines()
                    if line.startswith("!")]
        first, second = chaos_run("r1"), chaos_run("r2")
        assert first == second
        assert first  # the plan actually fired

    def test_store_corruption_faults_recover_through_quarantine(
            self, tmp_path):
        # FIG-10 is the cheapest spec that actually replays a stored
        # trace, so its --quick run exercises the store.read site.
        baseline = run_all(stream=io.StringIO(), only=["FIG-10"],
                           quick=True, trace_dir=str(tmp_path / "t"),
                           run_dir=str(tmp_path / "r"))
        stream = io.StringIO()
        chaotic = run_all(stream=stream, only=["FIG-10"], quick=True,
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r2"),
                          retries=2, backoff=0.0,
                          fault_plan=FaultPlan.parse(
                              "store.read:corrupt:times=1", seed=5))
        assert _claims(chaotic) == _claims(baseline)
        assert "1 quarantined payloads" in stream.getvalue()


class TestRetryBudget:
    def test_retry_exhausted_fails_one_experiment_not_the_suite(
            self, tmp_path):
        stream = io.StringIO()
        results = run_all(stream=stream, only=LIGHT,
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r"),
                          retries=1, backoff=0.0,
                          fault_plan=FaultPlan.parse(
                              "worker.task:error:times=99", seed=5))
        # Both experiments completed as *failure records*; the run
        # itself finished and stayed accountable.
        assert len(results) == 2
        assert all(not r.all_hold for r in results)
        assert all(r.data["failure"]["error"] == "RetryExhausted"
                   for r in results)
        assert "FAILED" in stream.getvalue()

    def test_failed_experiments_are_not_journaled(self, tmp_path):
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"),
                retries=0, backoff=0.0,
                fault_plan=FaultPlan.parse(
                    "worker.task:error:times=99"))
        key = run_key(scale=1, quick=False, suite=LIGHT,
                      trace_dir=str(tmp_path / "t"))
        journal = RunJournal(key, root=tmp_path / "r")
        assert journal.completed() == {}


class TestSerialResilience:
    def test_plan_is_disarmed_after_the_run(self, tmp_path):
        run_all(stream=io.StringIO(), only=["TAB-ADDR"],
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"),
                retries=2, backoff=0.0,
                fault_plan=FaultPlan.parse(
                    "worker.task:error:times=1"))
        assert faults.active_plan() is None


class TestJournalAndResume:
    def test_resume_skips_completed_experiments(self, tmp_path):
        first = run_all(stream=io.StringIO(), only=LIGHT,
                        trace_dir=str(tmp_path / "t"),
                        run_dir=str(tmp_path / "r"))
        stream = io.StringIO()
        resumed = run_all(stream=stream, only=LIGHT, resume=True,
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r"))
        assert _claims(resumed) == _claims(first)
        output = stream.getvalue()
        assert "served from the run journal" in output
        assert "2 resumed from journal" in output

    def test_interrupted_run_resumes_only_the_missing_part(
            self, tmp_path):
        # Simulate an interrupt after one experiment: journal one
        # record by hand for the *two-experiment* run key.
        solo = run_all(stream=io.StringIO(), only=[LIGHT[0]],
                       trace_dir=str(tmp_path / "t"),
                       run_dir=str(tmp_path / "solo"))
        key = run_key(scale=1, quick=False, suite=LIGHT,
                      trace_dir=str(tmp_path / "t"))
        journal = RunJournal(key, root=tmp_path / "r")
        journal.start(resume=False)
        journal.record(LIGHT[0], solo[0])
        stream = io.StringIO()
        results = run_all(stream=stream, only=LIGHT, resume=True,
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r"))
        assert [r.experiment.split()[0] for r in results] == LIGHT
        assert all(r.all_hold for r in results)
        output = stream.getvalue()
        assert f"journaled: {LIGHT[0]}" in output
        assert f"journaled: {LIGHT[1]}" not in output

    def test_without_resume_the_journal_is_cleared_and_rerun(
            self, tmp_path):
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"))
        stream = io.StringIO()
        run_all(stream=stream, only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"))
        assert "served from the run journal" not in stream.getvalue()

    def test_torn_record_is_ignored_and_rerun(self, tmp_path):
        run_all(stream=io.StringIO(), only=LIGHT,
                trace_dir=str(tmp_path / "t"),
                run_dir=str(tmp_path / "r"))
        key = run_key(scale=1, quick=False, suite=LIGHT,
                      trace_dir=str(tmp_path / "t"))
        journal = RunJournal(key, root=tmp_path / "r")
        record = next(journal.directory.glob("*.result"))
        record.write_bytes(record.read_bytes()[:10])  # torn write
        stream = io.StringIO()
        results = run_all(stream=stream, only=LIGHT, resume=True,
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r"))
        assert all(r.all_hold for r in results)
        assert "1 resumed from journal" in stream.getvalue()

    def test_run_key_separates_different_runs(self):
        base = dict(scale=1, quick=False, suite=LIGHT, trace_dir=None)
        assert run_key(**base) == run_key(**base)
        assert run_key(**{**base, "scale": 2}) != run_key(**base)
        assert run_key(**{**base, "quick": True}) != run_key(**base)
        assert run_key(**{**base, "suite": LIGHT[:1]}) != run_key(**base)

    def test_journal_records_are_atomic_and_typed(self, tmp_path):
        results = run_all(stream=io.StringIO(), only=[LIGHT[0]],
                          trace_dir=str(tmp_path / "t"),
                          run_dir=str(tmp_path / "r"))
        key = run_key(scale=1, quick=False, suite=[LIGHT[0]],
                      trace_dir=str(tmp_path / "t"))
        journal = RunJournal(key, root=tmp_path / "r")
        completed = journal.completed()
        assert list(completed) == [LIGHT[0]]
        assert _claims([completed[LIGHT[0]]]) == _claims(results)
        assert not list(journal.directory.glob("*.tmp"))


class TestCliFlags:
    def test_run_cli_accepts_the_robustness_flags(self, tmp_path,
                                                  capsys):
        from repro.cli import main as cli_main
        assert cli_main(["run", "--only", "TAB-ADDR",
                         "--trace-dir", str(tmp_path / "t"),
                         "--run-dir", str(tmp_path / "r"),
                         "--retries", "2", "--retry-backoff", "0",
                         "--faults", "worker.task:error:times=1",
                         "--fault-seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "paper claims reproduced" in out
        assert "robustness:" in out

    def test_run_cli_resume(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        args = ["run", "--only", "TAB-ADDR",
                "--trace-dir", str(tmp_path / "t"),
                "--run-dir", str(tmp_path / "r")]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert cli_main(args + ["--resume"]) == 0
        assert "served from the run journal" in capsys.readouterr().out
