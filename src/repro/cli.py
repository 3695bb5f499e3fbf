"""The ``repro`` command line interface (``python -m repro``).

Subcommands::

    repro run    [--quick] [--only/--skip IDs] [--list]
                 [--retries N] [--resume]
                 [--faults PLAN] [--fault-seed N] ...
                 run the experiment suite (the registry-driven
                 harness, with retry/resume fault tolerance)
    repro sweep  [WORKLOAD] [--cache itlb|icache|both] [--sizes CSV]
                 [--assoc CSV] [--opt] [--full] [--warmup F] ...
                 single-pass cache sweep over a registered workload
    repro list   [--workloads] [--experiments] [--engines]
                 [--versions]
                 list registered workloads, experiments, the
                 available sweep execution backends and the
                 package/format/semantics versions
    repro report [--run KEY] [--run-dir DIR] [--format text|json]
                 [--top N]
                 render the latest (or named) run's telemetry:
                 phase-time breakdown, slowest tasks, store hit
                 rates, robustness ledger (requires a previous
                 `repro run --telemetry`)
    repro trace  NAME [--set k=v ...] [--force] [--stats]
                 materialize one workload into the trace store;
                 --stats prints column-level statistics (no event
                 objects are materialized)
    repro store  {stats|verify|gc} [--trace-dir DIR]
                 administer the trace library: layout/result-cache
                 statistics, integrity audit (every stored payload's
                 CRC32 checks; the corrupt ones are quarantined) and
                 litter sweep
    repro bench  [pytest args ...]
                 run the benchmark suite (pytest-benchmark)

``repro --version`` prints the package version plus the versioned
surfaces a result depends on (trace format, measurement semantics,
available engines).

Installed as the ``repro`` console script (see pyproject.toml); also
reachable as ``python -m repro`` from a source checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def _parse_override(text: str):
    """``k=v`` -> (k, v) with ints/floats/bools decoded."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    for kind in (int, float):
        try:
            return key, kind(raw)
        except ValueError:
            pass
    return key, raw


def _workload_overrides(args: argparse.Namespace) -> dict:
    """The ``--set k=v`` overrides, with ``--scale N`` as ``scale=N``.

    ``--set scale=N`` wins over ``--scale``.  As an override, the
    scale is checked like any other parameter: a workload that
    declares no ``scale`` rejects it.  Raises :class:`ValueError` for
    a scale below 1.
    """
    from repro.workloads.spec import check_scale

    overrides = dict(args.set or [])
    if args.scale is not None:
        overrides.setdefault("scale", args.scale)
    if "scale" in overrides:
        check_scale(overrides["scale"])
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import harness
    return harness.run_from_args(args)


def _format_params(params) -> str:
    return ", ".join(f"{key}={params[key]}" for key in sorted(params))


def _print_engines() -> None:
    from repro.sweep import np_engine

    print("sweep engines:")
    print("  single-pass  pure-python stack-distance engine "
          "(always available)")
    print("  grid         per-configuration simulation "
          "(always available; any policy/geometry)")
    if np_engine.numpy_available():
        import numpy
        print(f"  numpy        vectorized stack-distance backend "
              f"(available, numpy {numpy.__version__})")
    else:
        print("  numpy        UNAVAILABLE (numpy not importable; "
              "pip install .[numpy])")
    print("  auto         numpy when available and eligible, else "
          "single-pass, else grid")


def _print_versions() -> None:
    """The versioned surfaces a reproduced number depends on."""
    import repro
    from repro.sweep import np_engine
    from repro.trace.columnar import FORMAT_VERSION
    from repro.trace.semantics import SEMANTICS

    engines = ["single-pass", "grid"]
    if np_engine.numpy_available():
        engines.insert(1, "numpy")
    print(f"repro {repro.__version__}")
    print(f"  trace format:  v{FORMAT_VERSION} (columnar, CRC32 "
          f"per block)")
    print(f"  semantics:     {', '.join(SEMANTICS)}")
    print(f"  engines:       {', '.join(engines)}"
          + ("" if np_engine.numpy_available()
             else "  (numpy unavailable)"))


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import harness
    from repro.workloads import specs
    from repro.workloads.store import TraceStore

    if args.versions:
        _print_versions()
        return 0
    only_flags = (args.workloads, args.experiments, args.engines)
    show_all = not any(only_flags)
    show_workloads = args.workloads or show_all
    show_experiments = args.experiments or show_all
    show_engines = args.engines or show_all
    if show_workloads:
        store = TraceStore(args.trace_dir)
        cached = store.cached_names()
        print("workloads (scenario registry):")
        width = max(len(spec.name) for spec in specs()) + 2
        pad = " " * (width + 2)
        for spec in specs():
            entries = cached.get(spec.name, 0)
            suffix = (f"  [cached: {entries} parameterization"
                      f"{'s' if entries != 1 else ''}]" if entries else "")
            print(f"  {spec.name:<{width}}v{spec.version}  "
                  f"{spec.description}{suffix}")
            if spec.defaults:
                print(f"{pad}defaults: {_format_params(spec.defaults)}")
            if spec.quick_overrides:
                print(f"{pad}quick:    "
                      f"{_format_params(spec.quick_overrides)}")
        print(f"\ntrace store: {store.root}")
    if show_workloads and show_experiments:
        print()
    if show_experiments:
        print("experiments (claim registry):")
        harness.list_experiments()
    if show_engines:
        if show_workloads or show_experiments:
            print()
        _print_engines()
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.workloads.store import QUARANTINE_DIR, TraceStore

    store = TraceStore(args.trace_dir)
    report = store.verify()
    print(f"trace store: {store.root}")
    print(f"checked:     {report['checked']} payload(s)")
    print(f"ok:          {report['ok']}")
    if report["stale"]:
        print(f"stale:       {len(report['stale'])} legacy-format "
              f"file(s) (clean misses, left in place)")
        for name in report["stale"]:
            print(f"  - {name}")
    if report["corrupt"]:
        print(f"corrupt:     {len(report['corrupt'])} payload(s) "
              f"moved to {store.root / QUARANTINE_DIR}")
        for name, reason in report["corrupt"]:
            print(f"  - {name}: {reason}")
    else:
        print("corrupt:     0")
    if report["mismatched"]:
        print(f"mismatched:  {len(report['mismatched'])} sidecar(s) "
              f"misdescribe a healthy payload (reported only; the "
              f"payload is the truth)")
        for name, reason in report["mismatched"]:
            print(f"  - {name}: {reason}")
    return 1 if report["corrupt"] else 0


def _usage_error(error: Exception) -> int:
    """Report a bad workload name, parameter or sweep geometry as
    ``error: ...`` on stderr; the exit status is 2."""
    # str(KeyError) quotes its message; print the message itself.
    message = error.args[0] if isinstance(error, KeyError) else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads import get
    from repro.workloads.store import TraceStore

    try:
        spec = get(args.name)
        overrides = _workload_overrides(args)
        params = spec.resolve(quick=args.quick, overrides=overrides)
    except (KeyError, ValueError) as error:
        return _usage_error(error)
    store = TraceStore(args.trace_dir)
    path = store.path_for(spec, params)
    if args.force and path.exists():
        path.unlink()
    path, hit = store.ensure(spec, quick=args.quick, **overrides)
    events = store.load(spec, quick=args.quick, **overrides)
    # Everything below reads the columns.
    print(f"workload:   {spec.name} (generator v{spec.version})")
    print(f"params:     {params}")
    print(f"state:      {'cache hit' if hit else 'generated'}")
    print(f"trace:      {len(events)} events, "
          f"{events.dispatched_count()} dispatched")
    print(f"keys:       {events.unique_itlb_key_count()} distinct "
          f"ITLB keys, {events.unique_address_count()} distinct "
          f"addresses")
    print(f"store path: {path}")
    if args.stats:
        stats = events.stats()
        print()
        print("column statistics:")
        print(f"  events:              {stats['events']}")
        print(f"  dispatched:          {stats['dispatched']} "
              f"({stats['dispatched_fraction']:.1%})")
        print(f"  unique opcodes:      {stats['unique_opcodes']}")
        print(f"  unique classes:      {stats['unique_classes']}")
        print(f"  unique ITLB keys:    {stats['unique_itlb_keys']}")
        print(f"  address footprint:   {stats['unique_addresses']} "
              f"distinct addresses"
              + (f" in [{stats['address_min']}, {stats['address_max']}]"
                 if stats["events"] else ""))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.workloads.store import TraceStore

    if args.action == "verify":
        return _cmd_store_verify(args)
    store = TraceStore(args.trace_dir)
    if args.action == "stats":
        stats = store.stats()
        cache = stats["result_cache"]
        print(f"trace store:  {stats['root']}")
        print(f"payloads:     {stats['payloads']} across "
              f"{stats['shards']} shard dir(s), "
              f"{stats['payload_bytes']} bytes")
        print(f"quarantined:  {stats['quarantined']}")
        state = ("enabled" if cache["enabled"]
                 else "disabled via $REPRO_RESULT_CACHE")
        print(f"result cache: {cache['entries']} entries, "
              f"{cache['bytes']} of {cache['budget_bytes']} budget "
              f"bytes ({state})")
        return 0
    if args.action == "gc":
        report = store.library.gc()
        print(f"trace store: {store.root}")
        print(f"tmp files removed:       {len(report['tmp_files'])}")
        print(f"orphan sidecars removed: "
              f"{len(report['orphan_sidecars'])}")
        print(f"empty shards removed:    {len(report['empty_shards'])}")
        for kind in ("tmp_files", "orphan_sidecars", "empty_shards"):
            for name in report[kind]:
                print(f"  - {name}")
        return 0
    raise AssertionError(f"unhandled store action {args.action!r}")


def _warmup_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}")
    from repro.trace.semantics import validate_warmup_fraction
    try:
        return validate_warmup_fraction(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _csv_sizes(text: str):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _csv_assocs(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "full":
            out.append("full")
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"expected integers or 'full', got {part!r}")
    return tuple(out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.sweep import (Query, SweepSpec, run_batch, run_sweep,
                             semantics_delta_table)
    from repro.trace.cachesim import ascii_plot
    from repro.workloads import get
    from repro.workloads.store import TraceStore

    caches = (("itlb", "icache") if args.cache == "both"
              else (args.cache,))
    common = dict(warmup_fraction=(args.warmup if args.warmup is not None
                                   else 0.25),
                  double_pass=args.warmup is None,
                  policy=args.policy, include_full=args.full,
                  include_opt=args.opt, engine=args.engine,
                  semantics=args.semantics)
    # `is not None`: an explicitly empty CSV must reach SweepSpec's
    # "at least one size" validation, not silently mean "default grid".
    if args.sizes is not None:
        common["sizes"] = args.sizes
    if args.assoc is not None:
        common["associativities"] = args.assoc
    # Every lookup and spec check before any generation or replay.
    try:
        workload = get(args.workload)
        overrides = _workload_overrides(args)
        workload.resolve(quick=args.quick, overrides=overrides)
        specs = [SweepSpec(cache=cache,
                           line_words=(args.line_words
                                       if cache == "icache" else 1),
                           **common)
                 for cache in caches]
    except (KeyError, ValueError) as error:
        return _usage_error(error)
    store = TraceStore(args.trace_dir)
    events = store.load(workload, quick=args.quick, **overrides)
    print(f"workload: {args.workload} ({len(events)} events, "
          f"{events.dispatched_count()} dispatched)")
    print(f"warm-up:  "
          f"{'double pass' if args.warmup is None else f'fraction {args.warmup}'}"
          f" (semantics: {args.semantics})")
    batch = run_batch([Query(spec=spec) for spec in specs], events)
    for spec, surface in zip(specs, batch.surfaces):
        meta = surface.meta
        print()
        print(surface.table())
        if args.plot:
            print()
            print(ascii_plot(surface))
        thresholds = ", ".join(
            f"{'full' if assoc == 'full' else f'{assoc}-way'}: "
            f"{size if size is not None else '>max'}"
            for assoc, size in surface.isoratio(0.99).items())
        print(f"[99% threshold  {thresholds}]")
        print(f"[engine: {meta['engine']}, "
              f"semantics: {meta['semantics']}, "
              f"{meta['trace_passes']} simulation pass"
              f"{'es' if meta['trace_passes'] != 1 else ''} over the "
              f"trace]")
        if args.compare_semantics:
            print()
            if spec.double_pass:
                print(f"[{surface.label}: double-pass warm-up is "
                      f"quirk-free; paper and v2 semantics agree "
                      f"bitwise]")
            else:
                # The args.semantics side is already in hand; only
                # the counterpart costs another replay.
                other = "v2" if spec.semantics == "paper" else "paper"
                counterpart = run_sweep(
                    replace(spec, semantics=other), events)
                paper_s, v2_s = ((surface, counterpart)
                                 if spec.semantics == "paper"
                                 else (counterpart, surface))
                print(semantics_delta_table(paper_s, v2_s))
    report = batch.report
    print()
    print(f"[planner: {report.queries} "
          f"quer{'y' if report.queries == 1 else 'ies'} -> "
          f"{report.replays} replay(s), "
          f"{report.disk_hits} cache hit(s)]")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.journal import default_root
    from repro.telemetry import report as telemetry_report

    root = Path(args.run_dir) if args.run_dir else default_root()
    try:
        run_dir = telemetry_report.find_run_directory(root, run=args.run)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    data = telemetry_report.load_run(run_dir)
    document = telemetry_report.build_report(data, top=args.top)
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(telemetry_report.render(document))
    return 0


_BENCH_HELP = """\
usage: repro bench [pytest args ...]

Run the benchmark suite (pytest-benchmark).  All arguments are
forwarded to pytest verbatim; the benchmarks/ directory under the
current working directory is targeted unless an explicit file or
directory path is given.

examples:
  repro bench
  repro bench -k fith --benchmark-only
  repro bench benchmarks/test_bench_fig10.py -q
"""


def _cmd_bench(extra: List[str]) -> int:
    import subprocess

    if extra and extra[0] in ("-h", "--help"):
        print(_BENCH_HELP, end="")
        return 0
    if extra and extra[0] == "--":
        extra = extra[1:]
    command = [sys.executable, "-m", "pytest"]
    # Default target is benchmarks/; an explicit *existing* path
    # argument replaces it (`repro bench benchmarks/foo.py`), while
    # option values like `-k fith` do not.
    explicit_path = any(not part.startswith("-") and Path(part).exists()
                        for part in extra)
    if not explicit_path:
        bench_dir = Path.cwd() / "benchmarks"
        if not bench_dir.is_dir():
            print("error: no benchmarks/ directory under the current "
                  "working directory; run from a source checkout",
                  file=sys.stderr)
            return 2
        command.append(str(bench_dir))
    command += extra
    return subprocess.call(command)


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import harness

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Dally & Kajiya, 'An Object "
                    "Oriented Architecture' (ISCA 1985)")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="run the experiment suite")
    harness.add_run_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep",
        help="single-pass cache sweep (size x associativity grid) "
             "over a registered workload")
    sweep_parser.add_argument("workload", nargs="?", default="paper",
                              help="registered workload name "
                                   "(default: paper)")
    sweep_parser.add_argument("--cache", choices=("itlb", "icache",
                                                  "both"),
                              default="both",
                              help="which cache level(s) to sweep")
    sweep_parser.add_argument("--sizes", type=_csv_sizes, default=None,
                              metavar="CSV",
                              help="cache sizes (default: the paper's "
                                   "8..4096)")
    sweep_parser.add_argument("--assoc", type=_csv_assocs, default=None,
                              metavar="CSV",
                              help="associativities, integers or "
                                   "'full' (default: 1,2,4)")
    sweep_parser.add_argument("--line-words", type=int, default=1,
                              help="icache line size in words")
    sweep_parser.add_argument("--policy", default="lru",
                              choices=("lru", "fifo", "random"),
                              help="replacement policy (non-LRU falls "
                                   "back to per-config simulation)")
    sweep_parser.add_argument("--warmup", type=_warmup_fraction,
                              default=None, metavar="FRACTION",
                              help="exclude this warm-up fraction in "
                                   "[0, 1) instead of the default "
                                   "double-pass methodology")
    sweep_parser.add_argument("--semantics", default="paper",
                              choices=("paper", "v2"),
                              help="measurement-semantics version: "
                                   "'paper' reproduces the published "
                                   "warm-up quirks bit-for-bit, 'v2' "
                                   "fixes them (cut over observed "
                                   "references, reset always fires, "
                                   "symmetric end-of-trace)")
    sweep_parser.add_argument("--compare-semantics", action="store_true",
                              help="also print the per-cell paper-vs-v2 "
                                   "hit-ratio delta table")
    sweep_parser.add_argument("--full", action="store_true",
                              help="add the fully-associative LRU "
                                   "reference column")
    sweep_parser.add_argument("--opt", action="store_true",
                              help="add the OPT/Belady reference "
                                   "column (two-pass)")
    sweep_parser.add_argument("--engine", default="auto",
                              choices=("auto", "single-pass", "numpy",
                                       "grid"),
                              help="force the execution engine "
                                   "('numpy' requires the optional "
                                   "numpy extra; 'auto' uses it when "
                                   "importable and falls back to the "
                                   "pure-python single-pass engine)")
    sweep_parser.add_argument("--plot", action="store_true",
                              help="also render the ASCII figure")
    sweep_parser.add_argument("--quick", action="store_true",
                              help="use the workload's quick "
                                   "parameters")
    sweep_parser.add_argument("--scale", type=int, default=None)
    sweep_parser.add_argument("--set", action="append",
                              type=_parse_override, metavar="KEY=VALUE",
                              help="override a workload generator "
                                   "parameter")
    sweep_parser.add_argument("--trace-dir", type=str, default=None)
    sweep_parser.set_defaults(func=_cmd_sweep)

    list_parser = commands.add_parser(
        "list", help="list registered workloads, experiments and "
                     "sweep engine backends")
    list_parser.add_argument("--workloads", action="store_true",
                             help="only the workload registry")
    list_parser.add_argument("--experiments", action="store_true",
                             help="only the experiment registry")
    list_parser.add_argument("--engines", action="store_true",
                             help="only the sweep execution backends "
                                  "(reports whether numpy was "
                                  "importable, so logs show which "
                                  "path actually ran)")
    list_parser.add_argument("--versions", action="store_true",
                             help="only the package / trace-format / "
                                  "semantics / engine versions "
                                  "(same block as `repro --version`)")
    list_parser.add_argument("--trace-dir", type=str, default=None)
    list_parser.set_defaults(func=_cmd_list)

    report_parser = commands.add_parser(
        "report",
        help="render a run's telemetry (phase times, slowest tasks, "
             "store hit rates, robustness ledger)")
    report_parser.add_argument("--run", type=str, default=None,
                               metavar="KEY",
                               help="run-key prefix to report on "
                                    "(default: the newest "
                                    "telemetry-bearing run)")
    report_parser.add_argument("--run-dir", type=str, default=None,
                               help="run-journal directory (default "
                                    ".repro_runs or $REPRO_RUN_DIR)")
    report_parser.add_argument("--format", choices=("text", "json"),
                               default="text",
                               help="output format (default text)")
    report_parser.add_argument("--top", type=int, default=10,
                               help="slowest tasks to list (default 10)")
    report_parser.set_defaults(func=_cmd_report)

    trace_parser = commands.add_parser(
        "trace", help="materialize one workload into the trace store")
    trace_parser.add_argument("name", help="registered workload name")
    trace_parser.add_argument("--scale", type=int, default=None)
    trace_parser.add_argument("--quick", action="store_true")
    trace_parser.add_argument("--force", action="store_true",
                              help="regenerate even on a cache hit")
    trace_parser.add_argument("--stats", action="store_true",
                              help="print column-level statistics "
                                   "(event/dispatched counts, unique "
                                   "opcode/class/key counts, address "
                                   "footprint) computed straight from "
                                   "the stored columns")
    trace_parser.add_argument("--set", action="append",
                              type=_parse_override, metavar="KEY=VALUE",
                              help="override a generator parameter")
    trace_parser.add_argument("--trace-dir", type=str, default=None)
    trace_parser.set_defaults(func=_cmd_trace)

    store_parser = commands.add_parser(
        "store",
        help="administer the trace library (layout stats, integrity "
             "audit, litter gc)")
    store_parser.add_argument(
        "action", choices=("stats", "verify", "gc"),
        help="stats: layout + result-cache numbers; verify: audit "
             "every payload (quarantines corruption, reports stale "
             "sidecars); gc: remove orphan sidecars / tmp litter / "
             "empty shard dirs (payloads are never touched)")
    store_parser.add_argument("--trace-dir", type=str, default=None)
    store_parser.set_defaults(func=_cmd_store)

    # bench is dispatched before argparse (see main): REMAINDER cannot
    # forward leading pytest flags like `-k`.  Registered here only so
    # it appears in `repro --help`.
    commands.add_parser(
        "bench", add_help=False,
        help="run the benchmark suite (pytest-benchmark); all "
             "arguments are forwarded to pytest")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Dispatched before argparse: the subcommand is `required`, so a
    # bare top-level flag needs its own path.
    if arguments and arguments[0] in ("--version", "-V", "version"):
        _print_versions()
        return 0
    # `repro bench -k fith`: everything after `bench` goes to pytest
    # verbatim, which argparse.REMAINDER cannot express for leading
    # options.
    if arguments and arguments[0] == "bench":
        return _cmd_bench(arguments[1:])
    args = build_parser().parse_args(arguments)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
