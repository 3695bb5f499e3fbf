"""Registry-driven driver: regenerates every figure and claim table.

Usage::

    python -m repro.experiments.harness [--scale N] [--quick]
        [--jobs N] [--only ID[,ID...]] [--skip ID[,ID...]] [--list]
        [--trace-dir DIR] [--retries N] [--task-timeout SECONDS]
        [--resume] [--faults PLAN] [--fault-seed N]

(``python -m repro run`` is the same engine behind the package CLI.)

The suite comes from the experiment registry
(:mod:`repro.experiments.registry`): each experiment module registers
an :class:`~repro.experiments.registry.ExperimentSpec`, and the
harness selects, orders and executes specs instead of hard-wiring
module calls.  Workload traces are pre-materialized once into the
on-disk trace store (:mod:`repro.workloads.store`) -- a second run
loads them without re-executing the Fith interpreter.

``--jobs N`` executes the suite in a ``ProcessPoolExecutor``, one
task per experiment.  Workers share nothing but the immutable trace
files: every machine is rebuilt per process, so per-experiment state
stays isolated.

Failure model (see DESIGN.md, "Failure model"):

* a task that *raises* is retried with exponential backoff, up to
  ``--retries`` attempts; past the budget the experiment is recorded
  as a typed :class:`~repro.errors.RetryExhausted` failure and the
  rest of the suite still completes;
* a *crashed worker* (``BrokenProcessPool``) breaks only the pool,
  not the run: completed results are harvested and unfinished tasks
  are re-submitted into a fresh pool (no retry penalty -- the crash
  may not have been theirs);
* a *hung worker* is bounded by ``--task-timeout``: the pool is
  abandoned (hung processes terminated) and the timed-out task
  charged one attempt;
* after repeated pool failures the harness **degrades to serial
  execution** for the remaining tasks -- slower, but it always
  terminates with results;
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as PoolTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults, telemetry
from repro.errors import RetryExhausted, TaskTimeout
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.experiments.journal import RunJournal, run_key
from repro.experiments.registry import ExperimentSpec, RunContext
from repro.faults import FaultPlan

#: Pool-level failures (worker crash, hung worker) tolerated before
#: the harness stops rebuilding pools and degrades to serial.
MAX_POOL_BREAKS = 2

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


def _split_cache_served(specs: Sequence[ExperimentSpec],
                        ctx: RunContext
                        ) -> Tuple[List[ExperimentSpec],
                                   List[ExperimentSpec]]:
    """Partition specs into (cache-served, pooled).

    An experiment that declares its sweeps (``spec.sweeps``) and whose
    every declared sweep already has an entry in the on-disk
    sweep-result cache is *cache-served*: its runner will only read
    cached surfaces, which costs milliseconds, so shipping it to a
    worker process buys nothing and the harness runs it inline in the
    parent.  The probe is existence-only (``ResultCache.contains``):
    no payload is read here, and a cached entry that later fails to
    decode simply replays in the parent -- correctness never depends
    on the probe being right.
    """
    from repro.sweep import result_cache_key
    from repro.workloads.library import ResultCache

    if not ResultCache.enabled():
        return [], list(specs)
    cache = ctx.store.result_cache()
    served: List[ExperimentSpec] = []
    pooled: List[ExperimentSpec] = []
    for spec in specs:
        declared = None
        if spec.sweeps is not None:
            try:
                declared = list(spec.sweeps(ctx))
            except Exception:
                declared = None  # a broken declaration is no declaration
        if not declared:
            pooled.append(spec)
            continue
        cached = all(
            cache.contains(result_cache_key(
                sweep_spec,
                ctx.store.trace_key(workload, quick=ctx.quick,
                                    scale=ctx.scale)))
            for workload, sweep_spec in declared)
        if cached:
            served.append(spec)
            telemetry.inc("harness.cache_served")
        else:
            pooled.append(spec)
    return served, pooled


def _new_stats() -> Dict[str, object]:
    return {"retries": 0, "timeouts": 0, "pool_breaks": 0,
            "task_failures": 0, "degraded": False, "resumed": 0}


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
                                attempt=attempt + 1, mode="serial"):
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


def _run_sequential(specs: Sequence[ExperimentSpec], ctx: RunContext,
                    note, *, retries: int = DEFAULT_RETRIES,
                    backoff: float = DEFAULT_BACKOFF,
                    stats: Optional[dict] = None,
                    on_result=None) -> List[ExperimentResult]:
    stats = stats if stats is not None else _new_stats()
    results: List[ExperimentResult] = []
    for spec in specs:
        start = time.time()
        try:
            result = _serial_task(spec.id, ctx, retries, backoff,
                                  stats, note)
        except Exception as error:
            result = _failure_result(spec, error)
        results.append(result)
        note(result.report())
        note(f"({spec.id} took {time.time() - start:.1f}s)\n")
        if on_result is not None:
            on_result(spec.id, result)
    return results


#: Per-worker trace stores, keyed by trace dir: tasks that land on the
#: same worker share one in-memory memo instead of re-deserializing
#: the trace file per task.
_WORKER_STORES: Dict[Optional[str], object] = {}


def _pool_init(fault_plan: Optional[str]) -> None:
    """Worker-process initializer: arm fault injection, then give the
    ``worker.start`` site its chance to misbehave."""
    faults.mark_worker()
    faults.ensure(fault_plan)
    faults.inject("worker.start")


def _pool_run(exp_id: str, ctx_args: dict):
    """Top-level pool task (must be picklable by reference)."""
    registry.load_all()
    ctx = RunContext(**ctx_args)
    faults.mark_worker()
    faults.ensure(ctx.fault_plan)
    telemetry.ensure(ctx.telemetry_dir)
    try:
        with telemetry.span("harness.task", task=exp_id, mode="pool"):
            telemetry.inc("harness.tasks")
            faults.inject("worker.task", key=exp_id)
            cached = _WORKER_STORES.get(ctx.trace_dir)
            if cached is None:
                _WORKER_STORES[ctx.trace_dir] = ctx.store
            else:
                ctx._store = cached
            return registry.get(exp_id).runner(ctx)
    finally:
        # Flush the worker's metric shard after every task: a later
        # crash in this process loses at most one task's counts.
        telemetry.flush()


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may contain hung workers.

    ``shutdown(wait=True)`` would block on a hung worker forever, so
    the workers are terminated first (via the executor's process
    table; there is no public kill API) and the shutdown is
    non-blocking.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_parallel(specs: Sequence[ExperimentSpec], ctx: RunContext,
                  jobs: int, note, *,
                  retries: int = DEFAULT_RETRIES,
                  task_timeout: Optional[float] = None,
                  backoff: float = DEFAULT_BACKOFF,
                  stats: Optional[dict] = None,
                  on_result=None) -> List[ExperimentResult]:
    """The resilient pool driver (see the module docstring's failure
    model): harvest what completed, retry what failed, rebuild broken
    pools, and degrade to serial rather than give up."""
    stats = stats if stats is not None else _new_stats()
    ctx_args = ctx.pool_args()
    attempts: Dict[str, int] = {spec.id: 0 for spec in specs}
    payloads: Dict[str, ExperimentResult] = {}
    failures: Dict[str, BaseException] = {}
    pending = [spec.id for spec in specs]

    def charge(task, error) -> None:
        """One failed attempt for *task*: requeue or give up."""
        attempts[task] += 1
        if attempts[task] > retries:
            failures[task] = RetryExhausted(
                f"{task} failed {attempts[task]} "
                f"time{'s' if attempts[task] != 1 else ''}: "
                f"{type(error).__name__}: {error}",
                task=task, attempts=attempts[task],
                last_error=error)
            note(f"! {task}: {type(error).__name__}: "
                 f"{error} -- retry budget exhausted")
        else:
            delay = backoff * (2 ** (attempts[task] - 1))
            stats["retries"] += 1
            telemetry.event("harness.retry", task=task,
                            attempt=attempts[task],
                            error=type(error).__name__)
            note(f"! {task}: {type(error).__name__}: "
                 f"{error} -- will retry (attempt "
                 f"{attempts[task]}/{retries}, backoff {delay:.2f}s)")
            if delay:
                time.sleep(delay)
            requeue.append(task)

    while pending:
        if stats["pool_breaks"] >= MAX_POOL_BREAKS:
            note(f"! process pool failed {stats['pool_breaks']} times; "
                 f"degrading to serial execution for the remaining "
                 f"{len(pending)} task(s)")
            stats["degraded"] = True
            telemetry.event("harness.degraded",
                            remaining=len(pending))
            faults.advance_epoch()
            for task in pending:
                budget = max(0, retries - attempts[task])
                try:
                    payloads[task] = _serial_task(
                        task, ctx, budget, backoff, stats, note)
                except Exception as error:
                    failures[task] = error
            pending = []
            break

        pool = ProcessPoolExecutor(max_workers=jobs,
                                   initializer=_pool_init,
                                   initargs=(ctx.fault_plan,))
        requeue: List[str] = []
        abandoned = False
        try:
            futures = [(task, pool.submit(_pool_run, task, ctx_args))
                       for task in pending]
        except BrokenProcessPool as error:
            stats["pool_breaks"] += 1
            note(f"! worker pool broke during submission ({error}); "
                 f"rebuilding")
            _abandon_pool(pool)
            faults.advance_epoch()
            continue
        for task, future in futures:
            if abandoned:
                # The pool is gone: harvest finished results, requeue
                # the rest with no retry penalty (they were victims,
                # not causes).
                try:
                    if future.done() and future.exception(timeout=0) \
                            is None:
                        payloads[task] = future.result(timeout=0)
                    else:
                        requeue.append(task)
                except Exception:
                    requeue.append(task)
                continue
            try:
                payloads[task] = future.result(timeout=task_timeout)
            except PoolTimeout:
                stats["timeouts"] += 1
                stats["pool_breaks"] += 1
                telemetry.event("harness.timeout", task=task,
                                timeout=task_timeout)
                note(f"! {task}: no result within "
                     f"--task-timeout={task_timeout}s; terminating "
                     f"the pool (worker presumed hung)")
                charge(task, TaskTimeout(
                    f"no result within {task_timeout}s",
                    task=task, timeout=task_timeout))
                _abandon_pool(pool)
                abandoned = True
            except BrokenProcessPool as error:
                stats["pool_breaks"] += 1
                telemetry.event("harness.pool_break", task=task)
                note(f"! worker pool broke at {task}; "
                     f"harvesting finished results and re-submitting "
                     f"the rest into a fresh pool")
                requeue.append(task)  # pool-level: no retry penalty
                _abandon_pool(pool)
                abandoned = True
            except (KeyboardInterrupt, SystemExit):
                _abandon_pool(pool)
                raise
            except Exception as error:
                # The task itself raised (a real or injected task
                # failure): charge its retry budget; the pool is fine.
                stats["task_failures"] += 1
                charge(task, error)
        if not abandoned:
            pool.shutdown(wait=True)
        pending = requeue
        if pending:
            # Fresh rolls for the retry round: a deterministic fault
            # plan must not re-fire identically forever.
            faults.advance_epoch()

    results: List[ExperimentResult] = []
    for spec in specs:
        if spec.id in failures:
            result = _failure_result(spec, failures[spec.id])
        else:
            result = payloads[spec.id]
        results.append(result)
        note(result.report())
        if on_result is not None:
            on_result(spec.id, result)
    return results


def run_all(scale: int = 1, quick: bool = False, stream=None,
            only: Optional[List[str]] = None,
            skip: Optional[List[str]] = None,
            jobs: int = 1,
            trace_dir: Optional[str] = None, *,
            retries: int = DEFAULT_RETRIES,
            task_timeout: Optional[float] = None,
            backoff: float = DEFAULT_BACKOFF,
            resume: bool = False,
            run_dir: Optional[str] = None,
            fault_plan=None,
            fault_seed: int = 0,
            with_telemetry: bool = False) -> List[ExperimentResult]:
    """Run the selected experiments; returns results in suite order.

    ``fault_plan`` may be a :class:`repro.faults.FaultPlan`, a plan
    string (CLI syntax or JSON), or None.  The plan is armed for the
    duration of the run (exported to pool workers) and disarmed
    afterwards.

    ``with_telemetry`` arms :mod:`repro.telemetry` into the run's
    journal directory (``.repro_runs/<run-key>/telemetry/``) for the
    duration of the run; ``repro report`` renders the result.
    """
    out = stream or sys.stdout

    def note(text: str) -> None:
        print(text, file=out, flush=True)

    plan: Optional[FaultPlan] = None
    if fault_plan:
        plan = (fault_plan if isinstance(fault_plan, FaultPlan)
                else FaultPlan.parse(str(fault_plan), seed=fault_seed))
        faults.install(plan)
    try:
        return _run_all(scale, quick, note, only, skip, jobs,
                        trace_dir, retries=retries,
                        task_timeout=task_timeout, backoff=backoff,
                        resume=resume, run_dir=run_dir, plan=plan,
                        with_telemetry=with_telemetry)
    finally:
        if plan is not None:
            faults.install(None)


def _run_all(scale, quick, note, only, skip, jobs, trace_dir, *,
             retries, task_timeout, backoff, resume, run_dir,
             plan, with_telemetry=False) -> List[ExperimentResult]:
    specs = registry.select(only, skip)
    stats = _new_stats()
    started = time.time()

    journal = RunJournal(
        run_key(scale=scale, quick=quick,
                suite=[spec.id for spec in specs],
                trace_dir=trace_dir),
        root=run_dir,
        manifest={"scale": scale, "quick": quick,
                  "suite": [spec.id for spec in specs],
                  "trace_dir": trace_dir, "jobs": jobs})
    telemetry_armed = False
    if with_telemetry and resume:
        # Arm before the journal replays records so the resume is
        # spanned; resuming never clears the sink directory.
        telemetry.install(journal.directory / "telemetry")
        telemetry_armed = True
    done = journal.start(resume=resume)
    if with_telemetry and not telemetry_armed:
        # Fresh run: journal.clear() just dropped any stale sink.
        telemetry.install(journal.directory / "telemetry", fresh=True)
        telemetry_armed = True
    try:
        return _run_all_inner(
            specs, journal, done, stats, started, note, scale=scale,
            quick=quick, jobs=jobs, trace_dir=trace_dir,
            retries=retries, task_timeout=task_timeout,
            backoff=backoff, resume=resume, plan=plan)
    finally:
        if telemetry_armed:
            telemetry.finalize()
            telemetry.install(None)


def _run_all_inner(specs, journal, done, stats, started, note, *,
                   scale, quick, jobs, trace_dir, retries,
                   task_timeout, backoff, resume,
                   plan) -> List[ExperimentResult]:
    ctx = RunContext(scale=scale, quick=quick, trace_dir=trace_dir,
                     fault_plan=plan.to_json() if plan else None,
                     telemetry_dir=telemetry.active_directory())
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

    def on_result(exp_id: str, result: ExperimentResult) -> None:
        # Failure placeholders are not journaled: a resumed run must
        # retry what never actually completed.
        if not (isinstance(result.data, dict)
                and result.data.get("failure")):
            journal.record(exp_id, result)

    with telemetry.span("harness.run", scale=scale, quick=quick,
                        jobs=jobs, experiments=len(specs),
                        resumed=len(done)):
        _materialize_workloads(pending_specs, ctx, note)
        by_id: Dict[str, ExperimentResult] = {}
        if jobs > 1:
            served, pooled = _split_cache_served(pending_specs, ctx)
            if served:
                note(f"result cache: {len(served)} experiment(s) fully "
                     f"cached; running inline instead of scheduling "
                     f"pool tasks "
                     f"({', '.join(spec.id for spec in served)})\n")
                inline = _run_sequential(served, ctx, note,
                                         retries=retries,
                                         backoff=backoff, stats=stats,
                                         on_result=on_result)
                by_id.update({spec.id: result for spec, result
                              in zip(served, inline)})
            fresh = _run_parallel(pooled, ctx, jobs, note,
                                  retries=retries,
                                  task_timeout=task_timeout,
                                  backoff=backoff, stats=stats,
                                  on_result=on_result)
            by_id.update({spec.id: result
                          for spec, result in zip(pooled, fresh)})
        else:
            fresh = _run_sequential(pending_specs, ctx, note,
                                    retries=retries, backoff=backoff,
                                    stats=stats, on_result=on_result)
            by_id.update({spec.id: result
                          for spec, result in zip(pending_specs, fresh)})
    results = [done.get(spec.id, by_id.get(spec.id))
               for spec in specs]

    note("=" * 64)
    note("SUMMARY")
    note("=" * 64)
    total = 0
    held = 0
    for result in results:
        for claim in result.claims:
            total += 1
            held += claim.holds
        failed = isinstance(result.data, dict) \
            and bool(result.data.get("failure"))
        status = ("FAILED  " if failed
                  else "ok " if result.all_hold else "DIVERGES")
        note(f"  [{status}] {result.experiment}")
    # Name numpy only if this run loaded it: a run whose sweeps were
    # all result-cache hits never imports it.
    from repro.sweep import np_engine
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        numpy_note = f"numpy {getattr(numpy, '__version__', 'unknown')}"
    elif np_engine.numpy_missing():
        numpy_note = "numpy absent"
    else:
        numpy_note = "numpy not loaded"
    note(f"\n{held}/{total} paper claims reproduced "
         f"(jobs={jobs}, {time.time() - started:.1f}s wall).")
    note(f"robustness: {stats['retries']} retries, "
         f"{stats['timeouts']} timeouts, "
         f"{stats['pool_breaks']} pool breaks, "
         f"{ctx.store.quarantined} quarantined payloads"
         + (", degraded to serial" if stats["degraded"] else "")
         + (f", {stats['resumed']} resumed from journal"
            if resume else "")
         + (f", {faults.fired_count()} faults injected (parent)"
            if plan is not None else "")
         + f", {numpy_note}")
    if telemetry.enabled():
        telemetry.inc("harness.experiments", len(specs))
        telemetry.inc("harness.claims_total", total)
        telemetry.inc("harness.claims_held", held)
        for key in ("retries", "timeouts", "pool_breaks",
                    "task_failures"):
            if stats[key]:
                telemetry.inc(f"harness.{key}", stats[key])
        if stats["degraded"]:
            telemetry.inc("harness.degraded")
        if stats["resumed"]:
            telemetry.inc("harness.resumed", stats["resumed"])
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
    """The run flags, shared with the ``python -m repro`` CLI."""
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink trace workloads for a fast pass")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1: in-process)")
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
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="bound each pool task's result wait; a "
                             "hung worker is terminated and the task "
                             "retried (default: no timeout)")
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
                             "plan: site:kind[:p=0.5][:times=2]"
                             "[:delay=1.5][,...] or a JSON plan "
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


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_only:
        list_experiments()
        return 0
    results = run_all(args.scale, args.quick, only=_csv(args.only),
                      skip=_csv(args.skip), jobs=args.jobs,
                      trace_dir=args.trace_dir,
                      retries=args.retries,
                      task_timeout=args.task_timeout,
                      backoff=args.retry_backoff,
                      resume=args.resume, run_dir=args.run_dir,
                      fault_plan=args.faults,
                      fault_seed=args.fault_seed,
                      with_telemetry=args.telemetry)
    return 0 if all(r.all_hold for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce every figure/claim of Dally & Kajiya 1985")
    add_run_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
