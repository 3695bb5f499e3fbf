"""The repository benchmark: one workload, measured in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 \
        --seconds 30 --trace 0

Workloads, metrics and their meaning are documented in
``perfbench/README.md`` and listed in ``BENCHMARK.json``.  Each timed
iteration is a new interpreter (``child.py``), started one at a time:
``wall_s`` is spawn to exit, ``cpu_s`` and ``peak_rss_mb`` come from
the child's ``wait4`` resource usage, ``startup_s`` from the child's own
clock.  Before the timed iterations the workload's set-up runs
``SETUP_REPEATS`` times from scratch, each in a fresh child that also
stamps the environment, and ``setup_s`` is the median of the set-up
times the children measure after their ``import repro.cli``.
Times are scaled to a reference host speed (see ``calibrate``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
traced ones, plus the tracing overhead against the untraced ones.
Every iteration's output is checked against ``reference.json``; the
last line of stdout is the JSON result.  A record with every sample
and the environment stamp goes to ``.perfbench-work/results/``
(compare two with ``perfbench/compare.py``).

Scratch state lives in ``.perfbench-work/`` only: the benchmark passes
its own trace-store and run directories to the program and never
touches ``.repro_traces/`` or ``.repro_runs/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
from pathlib import Path

import plans
import tracer as tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
#: Floor on timed iterations, whatever --seconds says.
MIN_ITERATIONS = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60

#: On a shared machine the host's speed drifts by a quarter over
#: minutes, for every process alike, so raw medians of runs made a few
#: minutes apart disagree by more than any useful bound.  A fixed
#: pure-Python loop (``calibrate``), timed in this process just before
#: and just after each child, measures that drift, and every reported
#: time is the raw time scaled to a host on which the loop takes
#: ``CALIBRATION_REF_S`` -- about what it takes on the 2-CPU
#: development box when the host is quiet.  Raw times stay in the
#: record.  The loop runs none of the program's code, so a change to
#: the program cannot move it.
CALIBRATION_REF_S = 0.013


def calibrate():
    """Seconds the fixed calibration loop takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = tracing.now_ns()
        table, total = {}, 0
        for i in range(100_000):
            total = (total + i * 7) & 0xFFFF
            table[i & 1023] = total
        best = min(best, (tracing.now_ns() - start) / 1e9)
    return best


# -- processes ------------------------------------------------------------

def _child_env(spawn_ns):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Cached bytecode, as an installed package has, kept in the
    # scratch directory so nothing is written outside the checkout.
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["REPRO_TRACE_DIR"] = str(WORK / "store")
    env["REPRO_RUN_DIR"] = str(WORK / "runs")
    env["PERFBENCH_SPAWN_NS"] = str(spawn_ns)
    return env


def spawn(arguments):
    """Run ``child.py`` to completion; returns its sample.

    The sample holds wall/cpu/rss, the exit code, captured stdout and
    the JSON the child wrote (None if it wrote none).
    """
    out = WORK / "child.json"
    stdout = WORK / "child.stdout"
    stderr = WORK / "child.stderr"
    for path in (out, stdout, stderr):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--out", str(out),
            "--store", str(WORK / "store"), "--runs", str(WORK / "runs"),
            *arguments]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_CLOSE, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = tracing.now_ns()
    pid = os.posix_spawn(sys.executable, argv, _child_env(start),
                         file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                               (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: never leave the child behind
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    end = tracing.now_ns()
    record = None
    if out.is_file():
        record = json.loads(out.read_text())
    return {
        "wall_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
        "stdout": stdout.read_text(errors="replace"),
        "stderr": stderr.read_text(errors="replace"),
        "record": record,
    }


def _git_rev():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- workloads ------------------------------------------------------------

def _clear(path):
    shutil.rmtree(path, ignore_errors=True)


def _reset_reproduce():
    pass  # the store and the result cache stay warm


def _reset_sweep():
    _clear(WORK / "store" / "results")  # every query replays and writes


def _reset_trace_build():
    _clear(WORK / "store")  # a cold start: an empty store


RESETS = {"reproduce": _reset_reproduce, "sweep": _reset_sweep,
          "trace-build": _reset_trace_build}


def check(workload, sample, reference, engine):
    """(attempted, failed, problems, output claims) for one iteration."""
    record = sample["record"] or {}
    output = record.get("output")
    claims = []
    if workload == "reproduce":
        claims = plans.parse_claims(sample["stdout"])
        attempted, failed, problems = plans.check_claims(
            claims, reference["claims"])
    elif workload == "sweep":
        attempted, failed, problems = plans.check_sweep(
            output, reference["ratios"], engine)
    else:
        attempted, failed, problems = plans.check_traces(
            output, reference["traces"])
    if sample["exit"] != 0 or not record:
        failed = attempted
        problems.append(f"child exited {sample['exit']}: "
                        f"{sample['stderr'].strip()[-400:]}")
    return attempted, failed, problems, claims


# -- statistics -----------------------------------------------------------

def summary(values):
    """(median, q1, q3, n)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return median, q1, q3, len(values)


def _table(rows, units):
    lines = [f"  {'metric':<30}{'unit':>9}{'median':>14}{'q1':>14}"
             f"{'q3':>14}{'n':>5}"]
    for name, values in rows:
        median, q1, q3, n = summary(values)
        lines.append(f"  {name:<30}{units[name]:>9}{median:>14.6g}"
                     f"{q1:>14.6g}{q3:>14.6g}{n:>5}")
    return "\n".join(lines)


# -- the run --------------------------------------------------------------

def run_setup(workload):
    """One set-up from scratch; returns (raw seconds, scale, env stamp).

    ``scale`` turns raw seconds into reference-host seconds.  A set-up
    that exits non-zero is not fatal (the timed iterations run the same
    code and count what fails); one that writes no record is.
    """
    _clear(WORK / "store")
    _clear(WORK / "runs")
    before = calibrate()
    sample = spawn(["--workload", workload, "--setup"])
    scale = CALIBRATION_REF_S / ((before + calibrate()) / 2)
    if not sample["record"]:
        raise RuntimeError(f"set-up failed: "
                           f"{sample['stderr'].strip()[-400:]}")
    return sample["record"]["setup_s"], scale, sample["record"]["env"]


def measure(args, reference, engine):
    """The timed iterations; returns (samples, per-layer readings,
    per-layer self times, attempted, failed, problems)."""
    samples = {"untraced": [], "traced": []}
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    minimum = 2 if args.trace else MIN_ITERATIONS
    readings, layer_self, problems = [], [], []
    attempted = failed = 0
    deadline = tracing.now_ns() + int(args.seconds * 1e9)
    before = calibrate()
    while (tracing.now_ns() < deadline
           or any(len(samples[kind]) < minimum for kind in kinds)):
        # --trace 1 alternates: untraced, traced, untraced, ...
        traced = args.trace and len(samples["untraced"]) \
            > len(samples["traced"])
        RESETS[args.workload]()
        sample = spawn(["--workload", args.workload,
                        "--seed", str(args.seed)]
                       + (["--trace"] if traced else []))
        after = calibrate()
        scale = CALIBRATION_REF_S / ((before + after) / 2)
        before = after
        tried, bad, found, claims = check(args.workload, sample,
                                          reference, engine)
        record = sample["record"] or {}
        if traced and "spans" in record:
            for entry in record["missing"]:
                note = f"not traced (no such entry point): {entry}"
                if note not in problems:
                    problems.append(note)
            metrics, layers = tracing.layer_metrics(
                record["spans"], sample["wall_s"], plans.EXPERIMENTS)
            metrics["experiments.claims"] = len(claims)
            exact = {key: metrics[key] for key in reference["counts"]}
            tried += 1
            if exact != reference["counts"]:
                bad += 1
                found.append(f"exact counts differ: {exact} vs "
                             f"{reference['counts']}")
            readings.append(metrics)
            layer_self.append(layers)
        attempted += tried
        failed += bad
        problems += found
        samples["traced" if traced else "untraced"].append({
            "wall_s": sample["wall_s"], "cpu_s": sample["cpu_s"],
            "peak_rss_mb": sample["peak_rss_mb"],
            "startup_s": record.get("startup_s"), "scale": scale})
    return samples, readings, layer_self, attempted, failed, problems


def _print_layers(layer_self, series, traced_wall):
    print("per-layer self time (median of traced iterations):")
    names = sorted({name for layers in layer_self for name in layers})
    rows = [(name, statistics.median(layers.get(name, 0.0)
                                     for layers in layer_self))
            for name in names]
    unattributed = statistics.median(series["unattributed_s"])
    bench = statistics.median(series["bench.self_s"])
    rows += [("unattributed", unattributed),
             ("  of it bench", bench),
             ("  of it other", unattributed - bench)]
    for name, seconds in rows:
        print(f"  {name:<14}{seconds:>10.4f} s "
              f"{seconds / traced_wall:>7.1%}")
    print(f"  {'traced wall':<14}{traced_wall:>10.4f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(RESETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("error: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference[args.workload]
    units = {metric["name"]: metric["unit"]
             for metric in config["end_to_end"] + config["per_layer"]}
    wanted = [metric["name"] for metric in
              (config["per_layer"] if args.trace else config["end_to_end"])]

    WORK.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, scale, env = run_setup(args.workload)
        setups.append({"setup_s": seconds, "scale": scale, "env": env})
    engines = {setup["env"]["engine"] for setup in setups}
    if len(engines) > 1:
        print(f"error: the sweep engine resolved differently between "
              f"set-ups: {sorted(engines)}", file=sys.stderr)
        return 1
    env = dict(env, nproc=os.cpu_count(), git_rev=_git_rev())

    samples, readings, layer_self, attempted, failed, problems = \
        measure(args, reference, env["engine"])
    timed = samples["untraced"]
    series = {name: [s[name] * s["scale"] for s in timed
                     if s[name] is not None]
              for name in ("wall_s", "cpu_s", "startup_s")}
    series["peak_rss_mb"] = [s["peak_rss_mb"] for s in timed]
    series["setup_s"] = [s["setup_s"] * s["scale"] for s in setups]
    if args.trace:
        if not readings:
            print("error: no traced iteration completed", file=sys.stderr)
            return 1
        traced_wall = statistics.median(
            s["wall_s"] for s in samples["traced"])
        overhead = (statistics.median(s["wall_s"] * s["scale"]
                                      for s in samples["traced"])
                    / statistics.median(series["wall_s"]) - 1)
        for metrics in readings:
            metrics["tracing_overhead_frac"] = overhead
        for name in wanted:
            series[name] = [metrics[name] for metrics in readings]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{args.seconds:g} s  tracing {'on' if args.trace else 'off'}")
    print("env: " + "  ".join(f"{key}={env[key]}" for key in sorted(env)))
    print(f"iterations: {len(timed)} untraced, "
          f"{len(samples['traced'])} traced")
    print(f"host speed: times scaled by a median "
          f"{statistics.median(s['scale'] for s in timed):.3f} to the "
          f"reference host (raw wall median "
          f"{statistics.median(s['wall_s'] for s in timed):.4g} s)")
    print(_table([(name, series[name]) for name in wanted], units))
    if args.trace:
        _print_layers(layer_self, series, traced_wall)
    print(f"fail_frac: {failed}/{attempted}")
    for problem in problems[:20]:
        print(f"  ! {problem}")

    values = {name: summary(series[name])[0] for name in wanted}
    for name in wanted:
        if units[name] == "count":  # exact counts stay integers
            values[name] = int(values[name])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in wanted},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = results / (f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "samples": samples, "setups": setups, "series": series,
        "result": result,
        "problems": problems}, indent=1))
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
