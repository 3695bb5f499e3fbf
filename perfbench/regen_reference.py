"""Rebuild ``perfbench/reference.json`` on purpose.

Run from the repository root after a change that is meant to move a
reference value, and say why in the commit::

    python3 perfbench/regen_reference.py

The benchmark itself only reads the file.  Each part comes from a
path independent of the one the benchmark checks:

* ``reproduce.claims`` -- every claim of a full-scale suite run, from
  ``harness.run_all``'s result objects (the benchmark parses the CLI's
  printed table instead; the two must agree or this script stops);
* ``sweep.ratios`` -- every query of ``plans.sweep_queries`` run by the
  per-configuration grid simulator (``engine="grid"``), the oracle the
  faster engines are checked against;
* ``trace-build.traces`` -- each scenario generated directly, with no
  store in between;
* ``<workload>.counts`` -- the exact work counters of two traced
  iterations, which must agree with each other.
"""

import io
import json
import os
import sys
from dataclasses import replace

import plans
import run
import tracer as tracing

sys.path.insert(0, str(run.ROOT / "src"))
os.environ["REPRO_RESULT_CACHE"] = "0"  # the oracle always replays


def _claims(scratch):
    from repro.experiments import harness

    printed = io.StringIO()
    results = harness.run_all(stream=printed, trace_dir=str(scratch),
                              run_dir=str(scratch / "runs"))
    claims = [[result.experiment.split()[0], claim.claim, claim.measured,
               claim.holds]
              for result in results for claim in result.claims]
    if plans.parse_claims(printed.getvalue()) != claims:
        raise SystemExit("the printed claim table does not parse back "
                         "to the claim objects; fix plans.parse_claims")
    if not all(holds for *_, holds in claims):
        raise SystemExit("not every claim holds; refusing to bless")
    return claims


def _ratios(scratch):
    from repro.sweep import SweepSpec, run_sweep
    from repro.workloads.store import TraceStore

    store = TraceStore(scratch)
    ratios = {}
    for trace, queries in plans.sweep_queries().items():
        events = store.load(trace)
        for query, fields in queries:
            spec = replace(SweepSpec(**fields), engine="grid")
            ratios[query] = plans.surface_ratios(run_sweep(spec, events))
            print(f"  oracle {query}", file=sys.stderr)
    return ratios


def _traces():
    from repro.workloads import get

    traces = {}
    for name in plans.SCENARIOS:
        spec = get(name)
        traces[name] = plans.trace_digest(spec.generate(spec.resolve()))
    return traces


def _counts(workload):
    readings = []
    for _ in range(2):
        run.run_setup(workload)
        run.RESETS[workload]()
        sample = run.spawn(["--workload", workload, "--seed", "0",
                            "--trace"])
        if sample["exit"] != 0:
            raise SystemExit(f"{workload}: traced iteration failed:\n"
                             f"{sample['stderr']}")
        metrics, _ = tracing.layer_metrics(
            sample["record"]["spans"], sample["wall_s"], plans.EXPERIMENTS)
        counts = {key: metrics[key] for key in tracing.EXACT_COUNTS}
        counts["experiments.claims"] = len(
            plans.parse_claims(sample["stdout"]))
        readings.append(counts)
    if readings[0] != readings[1]:
        raise SystemExit(f"{workload}: exact counts differ between two "
                         f"runs: {readings}")
    return readings[0]


def main():
    scratch = run.WORK / "regen"
    run._clear(scratch)
    scratch.mkdir(parents=True)
    reference = {
        "reproduce": {"claims": _claims(scratch / "claims")},
        "sweep": {"ratios": _ratios(scratch / "sweep")},
        "trace-build": {"traces": _traces()},
    }
    for workload in reference:
        reference[workload]["counts"] = _counts(workload)
    run._clear(scratch)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
