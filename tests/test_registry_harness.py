"""Tests for the experiment registry, the harness engine and the CLI."""

import io

import pytest

from repro.cli import main as cli_main
from repro.experiments import registry
from repro.experiments.harness import list_experiments, run_all
from repro.experiments.registry import RunContext

#: The seed harness's stage list, in order.  Registry-driven runs must
#: keep reproducing exactly this suite.
SEED_STAGES = ["FIG-10", "FIG-11", "TAB-CALL", "TAB-CTX", "TAB-CCACHE",
               "TAB-ADDR", "TAB-3ADDR"]

#: Cheap experiments (no trace workloads) used for engine-level tests.
LIGHT = ["TAB-ADDR", "TAB-CCACHE"]


class TestRegistry:
    def test_parity_with_seed_stage_list(self):
        assert [spec.id for spec in registry.load_all()] == SEED_STAGES

    def test_figure_experiments_declare_their_workload(self):
        assert registry.get("FIG-10").workloads == ("paper",)
        assert registry.get("FIG-11").workloads == ("paper",)

    def test_select_only_and_skip(self):
        only = registry.select(only=["tab-addr", "FIG-10"])
        assert [spec.id for spec in only] == ["FIG-10", "TAB-ADDR"]
        skipped = registry.select(skip=["FIG-10", "FIG-11"])
        assert [spec.id for spec in skipped] == SEED_STAGES[2:]
        with pytest.raises(KeyError, match="TAB-NOPE"):
            registry.select(only=["TAB-NOPE"])

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            registry.get("FIG-99")


class TestRunContext:
    def test_events_go_through_the_store(self, tmp_path):
        ctx = RunContext(quick=True, trace_dir=str(tmp_path))
        events = ctx.events("monomorphic")
        assert len(events) == 5_000  # the quick override
        assert ctx.store.generated == 1
        # A second context over the same store loads from disk.
        again = RunContext(quick=True, trace_dir=str(tmp_path))
        assert again.events("monomorphic") == events
        assert again.store.generated == 0


class TestHarnessEngine:
    def test_selected_run_keeps_suite_order(self, tmp_path):
        stream = io.StringIO()
        results = run_all(stream=stream, only=list(reversed(LIGHT)),
                          trace_dir=str(tmp_path))
        ids = [result.experiment.split()[0] for result in results]
        assert ids == ["TAB-CCACHE", "TAB-ADDR"]
        assert all(result.all_hold for result in results)
        assert "SUMMARY" in stream.getvalue()

    def test_list_experiments_prints_suite(self):
        stream = io.StringIO()
        list_experiments(stream)
        output = stream.getvalue()
        for exp_id in SEED_STAGES:
            assert exp_id in output


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("paper", "megamorphic", "redefine-churn"):
            assert name in output
        assert "FIG-10" in output

    def test_run_list_flag(self, capsys):
        assert cli_main(["run", "--list"]) == 0
        assert "TAB-3ADDR" in capsys.readouterr().out

    def test_trace_materializes_and_hits(self, tmp_path, capsys):
        args = ["trace", "monomorphic", "--set", "length=400",
                "--trace-dir", str(tmp_path)]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "generated" in first and "400 events" in first
        assert cli_main(args) == 0
        assert "cache hit" in capsys.readouterr().out
        assert len(list(tmp_path.glob("monomorphic-*.trace"))) == 1
        assert cli_main(["list", "--workloads",
                         "--trace-dir", str(tmp_path)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  monomorphic ")]
        assert line.endswith("[cached: 1 parameterization]")

    @pytest.mark.parametrize("command", [
        ["trace", "redefine-churn"],
        ["sweep", "redefine-churn", "--cache", "itlb", "--sizes", "8,16"],
    ], ids=["trace", "sweep"])
    def test_set_scale_resolves_as_scale(self, tmp_path, capsys, command):
        # `--set scale=N` sets the generator's own scale parameter:
        # the same params and store path as `--scale N`, and it wins
        # over `--scale` when both are given.
        def run(*extra):
            assert cli_main(command + ["--quick", "--trace-dir",
                                       str(tmp_path), *extra]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith(("state:", "[planner:"))]

        scaled = run("--scale", "2")
        assert run("--set", "scale=2") == scaled
        assert run("--scale", "3", "--set", "scale=2") == scaled
        assert len(list(tmp_path.glob("**/redefine-churn-*.trace"))) == 1
        assert run() != scaled

    def test_trace_unknown_workload_raises(self, tmp_path, capsys):
        assert cli_main(["trace", "nope",
                         "--trace-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown workload 'nope'; registered: ")

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "nosuch"], "unknown workload 'nosuch'"),
        (["trace", "nosuch"], "unknown workload 'nosuch'"),
        (["sweep", "--quick", "--set", "nosuch=1"],
         "workload 'paper' has no parameter(s) ['nosuch']"),
        (["trace", "paper", "--quick", "--set", "nosuch=1"],
         "workload 'paper' has no parameter(s) ['nosuch']"),
        (["sweep", "--quick", "--assoc", "3"],
         "is not a multiple of associativity 3"),
        (["sweep", "--quick", "--line-words", "3"],
         "line_words must be a power of two"),
        (["sweep", "--quick", "--sizes", ""],
         "a sweep needs at least one size"),
        # `--scale` fails as `--set scale=N` and `repro run --scale` do.
        (["trace", "monomorphic", "--quick", "--scale", "2"],
         "workload 'monomorphic' has no parameter(s) ['scale']"),
        (["sweep", "monomorphic", "--quick", "--scale", "2"],
         "workload 'monomorphic' has no parameter(s) ['scale']"),
        (["trace", "paper", "--quick", "--scale", "0"],
         "--scale must be at least 1, got 0"),
        (["sweep", "paper", "--quick", "--scale", "0"],
         "--scale must be at least 1, got 0"),
        (["trace", "paper", "--quick", "--set", "scale=0"],
         "--scale must be at least 1, got 0"),
        (["sweep", "paper", "--quick", "--set", "scale=0"],
         "--scale must be at least 1, got 0"),
        (["trace", "paper", "--scale", "-1"],
         "--scale must be at least 1, got -1"),
        (["sweep", "paper", "--scale", "-1"],
         "--scale must be at least 1, got -1"),
        (["trace", "paper", "--quick", "--set", "scale=1.5"],
         "--scale must be an integer, got 1.5"),
        (["sweep", "paper", "--quick", "--set", "scale=true"],
         "--scale must be an integer, got True"),
    ], ids=["sweep-workload", "trace-workload", "sweep-param",
            "trace-param", "assoc", "line-words", "no-sizes",
            "trace-scale-undeclared", "sweep-scale-undeclared",
            "trace-scale-0", "sweep-scale-0", "trace-set-scale-0",
            "sweep-set-scale-0", "trace-scale-negative",
            "sweep-scale-negative", "trace-set-scale-float",
            "sweep-set-scale-bool"])
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, argv,
                                        message):
        assert cli_main(argv + ["--trace-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""
        # Rejected before any trace was generated.
        assert not list(tmp_path.glob("**/*.trace"))

    @pytest.mark.parametrize("argv,message", [
        (["--only", "NOSUCH"], "unknown experiment id(s): ['NOSUCH']"),
        (["--skip", "NOSUCH"], "unknown experiment id(s): ['NOSUCH']"),
        (["--scale", "0", "--only", "FIG-10"],
         "--scale must be at least 1, got 0"),
        (["--scale", "0", "--only", "TAB-ADDR"],
         "--scale must be at least 1, got 0"),
        (["--scale", "-2"], "--scale must be at least 1, got -2"),
        (["--only", "TAB-ADDR", "--faults", "bogus"],
         "fault spec 'bogus' is not site:kind[:k=v...]"),
        (["--faults", "store.read:melt"],
         "unknown fault kind 'melt'; known: ('io-error', 'corrupt', "
         "'truncate', 'error')"),
        (["--faults", "store.read:corrupt:p=2"],
         "fault probability must be in [0, 1]"),
        (["--faults", "worker.task:error:times=abc"],
         "fault option 'times=abc' in 'worker.task:error:times=abc' "
         "needs an integer"),
        (["--faults", "store.read:corrupt:p=half"],
         "fault option 'p=half' in 'store.read:corrupt:p=half' "
         "needs a number"),
    ], ids=["only", "skip", "scale-0-fig10", "scale-0-tab-addr",
            "scale-negative", "faults-syntax", "faults-kind",
            "faults-probability", "faults-times-not-integer",
            "faults-probability-not-number"])
    def test_run_rejects_bad_input(self, tmp_path, capsys, argv, message):
        traces, runs = tmp_path / "traces", tmp_path / "runs"
        assert cli_main(["run", *argv, "--trace-dir", str(traces),
                         "--run-dir", str(runs)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        # Rejected before the journal opened or any trace was built.
        assert not traces.exists() and not runs.exists()

    def test_run_only_light_experiment(self, tmp_path, capsys):
        assert cli_main(["run", "--only", "TAB-ADDR",
                         "--trace-dir", str(tmp_path)]) == 0
        assert "paper claims reproduced" in capsys.readouterr().out
