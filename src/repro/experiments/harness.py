"""Registry-driven driver: regenerates every figure and claim table.

``repro run`` (:mod:`repro.cli`) is its command line:
:func:`add_run_arguments` declares the flags and
:func:`run_from_args` checks them and calls :func:`run_all`, the
entry point for code.

The suite comes from the experiment registry
(:mod:`repro.experiments.registry`): each experiment module registers
an :class:`~repro.experiments.registry.ExperimentSpec`, and the
harness selects, orders and executes specs instead of hard-wiring
module calls.  Workload traces are pre-materialized once into the
on-disk trace store (:mod:`repro.workloads.store`) -- a second run
loads them without re-executing the Fith interpreter.  The
experiments then run one after another in this process; each builds
its own machines, so no simulator state leaks between them.

Failure model (see DESIGN.md, "Failure model"):

* a task that *raises* is retried with exponential backoff, up to
  ``--retries`` attempts; past the budget the experiment is recorded
  as a typed :class:`~repro.errors.RetryExhausted` failure and the
  rest of the suite still completes;
* every completed experiment is journaled atomically under
  ``.repro_runs/`` (:mod:`repro.experiments.journal`);
  ``--resume`` serves journaled results and runs only the rest.

Deterministic chaos testing of all of the above is driven by
``--faults``/``--fault-seed`` (:mod:`repro.faults`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro import faults, telemetry
from repro.errors import RetryExhausted
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.experiments.journal import RunJournal, run_key
from repro.experiments.registry import ExperimentSpec, RunContext
from repro.faults import FaultPlan
from repro.workloads.spec import check_scale

#: Default per-failure retry budget and backoff base (seconds; the
#: n-th retry of a task waits ``backoff * 2**(n-1)``).
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.1


def _materialize_workloads(specs: Sequence[ExperimentSpec],
                           ctx: RunContext, note) -> None:
    """Generate-or-load every workload the selected specs replay."""
    needed: List[str] = []
    for spec in specs:
        for name in spec.workloads:
            if name not in needed:
                needed.append(name)
    for name in needed:
        start = time.time()
        with telemetry.span("harness.materialize", workload=name) as sp:
            path, hit = ctx.store.ensure(name, quick=ctx.quick,
                                         scale=ctx.scale)
            events = ctx.events(name)
            sp.set(hit=hit, events=len(events))
        verb = "loaded from trace store" if hit else "generated"
        note(f"workload {name!r}: {len(events)} events "
             f"({events.dispatched_count()} dispatched) "
             f"{verb} in {time.time() - start:.1f}s [{path}]")
    if needed:
        note("")


def _failure_result(spec: ExperimentSpec, error: BaseException
                    ) -> ExperimentResult:
    """The typed placeholder a permanently-failed experiment leaves
    behind so the suite (and its exit code) stays accountable."""
    result = ExperimentResult(
        experiment=spec.id,
        description=f"FAILED: {spec.title}",
        data={"failure": {"error": type(error).__name__,
                          "message": str(error)}})
    result.check("experiment completes", "completes",
                 f"{type(error).__name__}: {error}", False)
    return result


def _serial_task(exp_id: str, ctx: RunContext, budget: int,
                 backoff: float, stats: dict, note):
    """Run one experiment in-process with a bounded retry loop.

    Raises :class:`RetryExhausted` when every attempt failed;
    KeyboardInterrupt/SystemExit always propagate.
    """
    spec = registry.get(exp_id)
    attempt = 0
    while True:
        try:
            with telemetry.span("harness.task", task=exp_id,
                                attempt=attempt + 1):
                telemetry.inc("harness.tasks")
                faults.inject("worker.task", key=exp_id)
                return spec.runner(ctx)
        except Exception as error:
            stats["task_failures"] += 1
            attempt += 1
            if attempt > budget:
                raise RetryExhausted(
                    f"{exp_id} failed {attempt} "
                    f"time{'s' if attempt != 1 else ''}: "
                    f"{type(error).__name__}: {error}",
                    task=exp_id, attempts=attempt,
                    last_error=error) from error
            delay = backoff * (2 ** (attempt - 1))
            stats["retries"] += 1
            telemetry.event("harness.retry", task=exp_id,
                            attempt=attempt,
                            error=type(error).__name__)
            note(f"! {exp_id}: "
                 f"{type(error).__name__}: {error} -- retrying "
                 f"(attempt {attempt}/{budget}, backoff {delay:.2f}s)")
            if delay:
                time.sleep(delay)


def run_all(scale: int = 1, quick: bool = False, stream=None,
            only: Optional[List[str]] = None,
            skip: Optional[List[str]] = None,
            trace_dir: Optional[str] = None, *,
            retries: int = DEFAULT_RETRIES,
            backoff: float = DEFAULT_BACKOFF,
            resume: bool = False,
            run_dir: Optional[str] = None,
            fault_plan: Optional[FaultPlan] = None,
            with_telemetry: bool = False) -> List[ExperimentResult]:
    """Run the selected experiments; returns results in suite order.

    ``fault_plan`` is armed for the duration of the run and disarmed
    afterwards.

    ``with_telemetry`` arms :mod:`repro.telemetry` into the run's
    journal directory (``.repro_runs/<run-key>/telemetry/``) for the
    duration of the run; ``repro report`` renders the result.
    """
    out = stream or sys.stdout

    def note(text: str) -> None:
        print(text, file=out, flush=True)

    if fault_plan is not None:
        faults.install(fault_plan)
    try:
        return _run_all(scale, quick, note, only, skip, trace_dir,
                        retries=retries, backoff=backoff, resume=resume,
                        run_dir=run_dir, plan=fault_plan,
                        with_telemetry=with_telemetry)
    finally:
        if fault_plan is not None:
            faults.install(None)


def _run_all(scale, quick, note, only, skip, trace_dir, *,
             retries, backoff, resume, run_dir,
             plan, with_telemetry=False) -> List[ExperimentResult]:
    specs = registry.select(only, skip)
    stats = {"retries": 0, "task_failures": 0, "resumed": 0}
    started = time.time()

    journal = RunJournal(
        run_key(scale=scale, quick=quick,
                suite=[spec.id for spec in specs],
                trace_dir=trace_dir),
        root=run_dir,
        manifest={"scale": scale, "quick": quick,
                  "suite": [spec.id for spec in specs],
                  "trace_dir": trace_dir})
    sink = journal.directory / "telemetry"
    if with_telemetry and resume:
        # Arm before the journal replays records so the resume is
        # spanned; resuming keeps the sink and adds to it.
        telemetry.install(sink)
    done = journal.start(resume=resume)
    if with_telemetry and not resume:
        # Fresh run: journal.clear() just dropped any stale sink.
        telemetry.install(sink)
    try:
        return _run_all_inner(
            specs, journal, done, stats, started, note, scale=scale,
            quick=quick, trace_dir=trace_dir, retries=retries,
            backoff=backoff, resume=resume, plan=plan)
    finally:
        if with_telemetry:
            telemetry.finalize()
            telemetry.install(None)


def _failed(result: ExperimentResult) -> bool:
    """Whether *result* is a :func:`_failure_result` placeholder."""
    return isinstance(result.data, dict) \
        and bool(result.data.get("failure"))


def _run_all_inner(specs, journal, done, stats, started, note, *,
                   scale, quick, trace_dir, retries, backoff, resume,
                   plan) -> List[ExperimentResult]:
    ctx = RunContext(scale=scale, quick=quick, trace_dir=trace_dir)
    done = {exp_id: result for exp_id, result in done.items()
            if any(spec.id == exp_id for spec in specs)}
    stats["resumed"] = len(done)
    if done:
        note(f"resuming: {len(done)} experiment(s) served from the "
             f"run journal [{journal.directory}]")
        for exp_id in sorted(done):
            note(f"  journaled: {exp_id}")
        note("")
    pending_specs = [spec for spec in specs if spec.id not in done]
    by_id: Dict[str, ExperimentResult] = dict(done)

    with telemetry.span("harness.run", scale=scale, quick=quick,
                        experiments=len(specs), resumed=len(done)):
        _materialize_workloads(pending_specs, ctx, note)
        for spec in pending_specs:
            start = time.time()
            try:
                result = _serial_task(spec.id, ctx, retries, backoff,
                                      stats, note)
            except Exception as error:
                result = _failure_result(spec, error)
            by_id[spec.id] = result
            note(result.report())
            note(f"({spec.id} took {time.time() - start:.1f}s)\n")
            # Failure placeholders are not journaled: a resumed run
            # must retry what never actually completed.
            if not _failed(result):
                journal.record(spec.id, result)
    results = [by_id[spec.id] for spec in specs]

    note("=" * 64)
    note("SUMMARY")
    note("=" * 64)
    total = 0
    held = 0
    for result in results:
        for claim in result.claims:
            total += 1
            held += claim.holds
        status = ("FAILED  " if _failed(result)
                  else "ok " if result.all_hold else "DIVERGES")
        note(f"  [{status}] {result.experiment}")
    # Name numpy only if this run loaded it: a run whose sweeps were
    # all result-cache hits never imports it.
    numpy = sys.modules.get("numpy")
    numpy_note = (f"numpy {getattr(numpy, '__version__', 'unknown')}"
                  if numpy is not None else "numpy not loaded")
    note(f"\n{held}/{total} paper claims reproduced "
         f"({time.time() - started:.1f}s wall).")
    note(f"robustness: {stats['retries']} retries, "
         f"{ctx.store.quarantined} quarantined payloads"
         + (f", {stats['resumed']} resumed from journal"
            if resume else "")
         + (f", {faults.fired_count()} faults injected"
            if plan is not None else "")
         + f", {numpy_note}")
    if telemetry.enabled():
        telemetry.inc("harness.experiments", len(specs))
        telemetry.inc("harness.claims_total", total)
        telemetry.inc("harness.claims_held", held)
        for key in ("retries", "task_failures", "resumed"):
            if stats[key]:
                telemetry.inc(f"harness.{key}", stats[key])
        telemetry.gauge("harness.wall_seconds",
                        round(time.time() - started, 3))
        telemetry.flush()
        note(f"telemetry: {telemetry.active_directory()} "
             f"(render with `repro report`)")
    return results


def list_experiments(stream=None) -> None:
    """Print the registered suite (ids, figures, workloads)."""
    out = stream or sys.stdout
    specs = registry.load_all()
    width = max(len(spec.id) for spec in specs) + 2
    for spec in specs:
        traces = (f"  [workloads: {', '.join(spec.workloads)}]"
                  if spec.workloads else "")
        print(f"  {spec.id:<{width}}{spec.title} "
              f"({spec.figure}){traces}", file=out)


def _csv(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro run`` flags."""
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink trace workloads for a fast pass")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated experiment ids to run")
    parser.add_argument("--skip", type=str, default=None,
                        help="comma-separated experiment ids to skip")
    parser.add_argument("--trace-dir", type=str, default=None,
                        help="trace store directory "
                             "(default .repro_traces or $REPRO_TRACE_DIR)")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        help="retry budget per failing task "
                             f"(default {DEFAULT_RETRIES})")
    parser.add_argument("--retry-backoff", type=float,
                        default=DEFAULT_BACKOFF, metavar="SECONDS",
                        help="exponential backoff base between "
                             f"retries (default {DEFAULT_BACKOFF})")
    parser.add_argument("--resume", action="store_true",
                        help="serve already-completed experiments "
                             "from the run journal and run the rest")
    parser.add_argument("--run-dir", type=str, default=None,
                        help="run-journal directory (default "
                             ".repro_runs or $REPRO_RUN_DIR)")
    parser.add_argument("--faults", type=str, default=None,
                        metavar="PLAN",
                        help="arm a deterministic fault-injection "
                             "plan: site:kind[:p=0.5][:times=2][,...] "
                             "(sites: " + ", ".join(faults.SITES)
                             + "; kinds: " + ", ".join(faults.KINDS)
                             + ")")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault plan's deterministic "
                             "injection rolls (default 0)")
    parser.add_argument("--telemetry", action="store_true",
                        help="record spans + metrics under the run's "
                             "journal directory (render with "
                             "`repro report`)")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list registered experiments and exit")


def _usage_error(message: str) -> int:
    """Report bad ``repro run`` input as ``error: ...`` on stderr; the
    exit status is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_only:
        list_experiments()
        return 0
    # Reject bad input before the journal opens or anything runs.
    only, skip = _csv(args.only), _csv(args.skip)
    try:
        check_scale(args.scale)
        registry.select(only, skip)
        plan = (FaultPlan.parse(args.faults, seed=args.fault_seed)
                if args.faults else None)
    except (KeyError, ValueError) as error:
        # str(KeyError) quotes its message; print the message itself.
        return _usage_error(error.args[0])
    results = run_all(args.scale, args.quick, only=only, skip=skip,
                      trace_dir=args.trace_dir,
                      retries=args.retries,
                      backoff=args.retry_backoff,
                      resume=args.resume, run_dir=args.run_dir,
                      fault_plan=plan,
                      with_telemetry=args.telemetry)
    return 0 if all(r.all_hold for r in results) else 1
