"""What an import loads: ``import repro`` loads no other ``repro``
module, ``import repro.cli`` loads the workload layer and none of the
layers a subcommand loads on use, and the package's public names still
resolve.  Each check runs in a fresh interpreter, so ``sys.modules``
starts clean."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: The packages a subcommand loads when it runs them, never at start-up.
ON_USE = ("repro.core", "repro.fith", "repro.smalltalk", "repro.sweep",
          "repro.experiments", "numpy")


def _run(code):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def _loaded_by(statement):
    """The modules a fresh interpreter holds after ``statement`` that
    it did not hold before."""
    return set(_run("import sys\n"
                    "before = set(sys.modules)\n"
                    f"{statement}\n"
                    "print('\\n'.join(set(sys.modules) - before))\n")
               .split())


def test_import_repro_loads_no_other_repro_module():
    loaded = _loaded_by("import repro")
    assert sorted(name for name in loaded
                  if name.partition(".")[0] == "repro") == ["repro"]


def test_import_cli_loads_the_workload_layer_only():
    loaded = _loaded_by("import repro.cli")
    # Every subcommand but `report` opens the registry or the store.
    assert {"repro.workloads.scenarios", "repro.workloads.store"} <= loaded
    assert sorted(name for name in loaded if name.startswith(ON_USE)) == []


def test_public_names_resolve_on_first_access():
    out = _run(
        "from repro import COMMachine, load_program, pipeline_diagram\n"
        "import repro.core.machine\n"
        "assert COMMachine is repro.core.machine.COMMachine\n"
        "machine = COMMachine()\n"
        "main = load_program(machine, 'main\\n c2 = 6\\n c3 = 7\\n'\n"
        "                    ' c0 = c2 * c3\\n halt\\n')\n"
        "print(machine.run_program(main).value)\n"
        "print(pipeline_diagram(1).splitlines()[0].split()[0])\n")
    assert out.split() == ["42", "cycle"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nosuch'"):
        repro.Nosuch


def test_build_parser_loads_no_experiment_module():
    # Only `run` and a listing of the experiments import the harness:
    # `sweep`, `trace`, `store` and `list --engines` parse their flags
    # without it.
    loaded = _loaded_by("import repro.cli\nrepro.cli.build_parser()")
    assert sorted(name for name in loaded
                  if name.startswith("repro.experiments")) == []


@pytest.mark.parametrize("flags", [[], ["--run-dir", "runs"]],
                         ids=["default", "run-dir"])
def test_report_loads_no_experiment_module(tmp_path, flags):
    # The report finds the run directory through repro.telemetry; with
    # no run there it stops with status 2.
    loaded = _loaded_by("import os\n"
                        "import repro.cli\n"
                        f"os.chdir({str(tmp_path)!r})\n"
                        f"assert repro.cli.main(['report', *{flags!r}]) "
                        "== 2\n")
    assert "repro.telemetry.report" in loaded
    assert sorted(name for name in loaded
                  if name.startswith("repro.experiments")) == []
