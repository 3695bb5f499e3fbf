"""The ``repro`` command line interface (``python -m repro``).

Subcommands::

    repro run    [--quick] [--only/--skip IDs]
                 [--retries N] [--resume]
                 [--faults PLAN] [--fault-seed N] ...
                 run the experiment suite (the registry-driven
                 harness, with retry/resume fault tolerance)
    repro sweep  [WORKLOAD] [--cache itlb|icache|both] [--sizes CSV]
                 [--assoc CSV] [--opt] [--full] [--warmup F] ...
                 single-pass cache sweep over a registered workload
    repro list   [--workloads] [--experiments] [--engines]
                 list registered workloads, experiments and the
                 sweep execution engines
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
                 administer the trace store: payload/result-cache
                 statistics, integrity audit (every stored payload's
                 CRC32 checks; the corrupt ones are quarantined) and
                 removal of the temp files interrupted writes left

``repro --version`` prints the package version plus the versioned
surfaces a result depends on (trace format, measurement semantics,
sweep engines).

Installed as the ``repro`` console script (see pyproject.toml); also
reachable as ``python -m repro`` (:mod:`repro.__main__`) from a source
checkout.  Both call :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

# The workload layer loads here, not in the subcommands: every
# subcommand but `report` opens the registry or the store, and a
# `trace` or `sweep` would otherwise pay for the import after start-up.
# The simulator, Fith and the sweep engines load when a subcommand runs
# them (DESIGN.md, "Import layering").
from repro import faults
from repro.trace.columnar import FORMAT_VERSION
from repro.workloads import get, specs
from repro.workloads.spec import check_scale
from repro.workloads.store import QUARANTINE_DIR, TraceStore


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
    # The version comes from numpy's distribution metadata: listing the
    # engines never imports numpy.
    from repro.telemetry import environment_block

    numpy = environment_block()["numpy"] or "not installed"
    print("sweep engines:")
    print(f"  auto  stack-distance engine (numpy {numpy}) for LRU with "
          "power-of-two set counts, else grid")
    print("  grid  per-configuration simulation, the reference oracle "
          "(any policy and geometry)")


def _print_versions() -> None:
    """The versioned surfaces a reproduced number depends on."""
    import repro
    from repro.trace.semantics import SEMANTICS

    print(f"repro {repro.__version__}")
    print(f"  trace format:  v{FORMAT_VERSION} (columnar, CRC32 "
          f"per block)")
    print(f"  semantics:     {', '.join(SEMANTICS)}")
    print("  engines:       auto, grid")


def _cmd_list(args: argparse.Namespace) -> int:
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
        from repro.experiments import harness

        print("experiments (claim registry):")
        harness.list_experiments()
    if show_engines:
        if show_workloads or show_experiments:
            print()
        _print_engines()
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
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
    if report["unreadable"]:
        print(f"unreadable:  {len(report['unreadable'])} payload(s) "
              f"(left in place)")
        for name, reason in report["unreadable"]:
            print(f"  - {name}: {reason}")
    return 1 if report["corrupt"] or report["unreadable"] else 0


def _usage_error(error: Exception) -> int:
    """Report a bad workload name, parameter or sweep geometry as
    ``error: ...`` on stderr; the exit status is 2."""
    # str(KeyError) quotes its message; print the message itself.
    message = error.args[0] if isinstance(error, KeyError) else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_trace(args: argparse.Namespace) -> int:
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
    if args.action == "verify":
        return _cmd_store_verify(args)
    store = TraceStore(args.trace_dir)
    if args.action == "stats":
        stats = store.stats()
        cache = stats["result_cache"]
        print(f"trace store:  {stats['root']}")
        print(f"payloads:     {stats['payloads']}, "
              f"{stats['payload_bytes']} bytes")
        print(f"quarantined:  {stats['quarantined']}")
        state = ("enabled" if cache["enabled"]
                 else "disabled via $REPRO_RESULT_CACHE")
        print(f"result cache: {cache['entries']} entries, "
              f"{cache['bytes']} bytes ({state})")
        return 0
    if args.action == "gc":
        removed = store.gc()
        print(f"trace store: {store.root}")
        print(f"tmp files removed:       {len(removed)}")
        for name in removed:
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
    from repro.sweep import (Query, SweepSpec, run_batch,
                             run_semantics_delta, semantics_delta_table)
    from repro.trace.cachesim import ascii_plot

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
        sweep_specs = [SweepSpec(cache=cache,
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
    batch = run_batch([Query(spec=spec) for spec in sweep_specs], events)
    for spec, surface in zip(sweep_specs, batch.surfaces):
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
                # With the result cache on, the args.semantics side
                # comes back from it and only the counterpart replays.
                paper_s, v2_s, _ = run_semantics_delta(spec, events)
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

    from repro.telemetry import default_run_root
    from repro.telemetry import report as telemetry_report

    root = Path(args.run_dir) if args.run_dir else default_run_root()
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Dally & Kajiya, 'An Object "
                    "Oriented Architecture' (ISCA 1985)")
    commands = parser.add_subparsers(dest="command", required=True)

    # Declared here, not in the harness, so that parsing any command
    # loads no experiment module; harness.run_from_args checks them.
    run_parser = commands.add_parser(
        "run", help="run the experiment suite")
    run_parser.add_argument("--scale", type=int, default=1,
                            help="workload scale factor (default 1)")
    run_parser.add_argument("--quick", action="store_true",
                            help="shrink trace workloads for a fast pass")
    run_parser.add_argument("--only", type=str, default=None,
                            help="comma-separated experiment ids to run")
    run_parser.add_argument("--skip", type=str, default=None,
                            help="comma-separated experiment ids to skip")
    run_parser.add_argument("--trace-dir", type=str, default=None,
                            help="trace store directory "
                                 "(default .repro_traces or $REPRO_TRACE_DIR)")
    run_parser.add_argument("--retries", type=int,
                            default=faults.DEFAULT_RETRIES,
                            help="retry budget per failing task "
                                 f"(default {faults.DEFAULT_RETRIES})")
    run_parser.add_argument("--retry-backoff", type=float,
                            default=faults.DEFAULT_BACKOFF, metavar="SECONDS",
                            help="exponential backoff base between "
                                 f"retries (default {faults.DEFAULT_BACKOFF})")
    run_parser.add_argument("--resume", action="store_true",
                            help="serve already-completed experiments "
                                 "from the run journal and run the rest")
    run_parser.add_argument("--run-dir", type=str, default=None,
                            help="run-journal directory (default "
                                 ".repro_runs or $REPRO_RUN_DIR)")
    run_parser.add_argument("--faults", type=str, default=None,
                            metavar="PLAN",
                            help="arm a deterministic fault-injection "
                                 "plan: site:kind[:p=0.5][:times=2][,...] "
                                 "(sites: " + ", ".join(faults.SITES)
                                 + "; kinds: " + ", ".join(faults.KINDS)
                                 + ")")
    run_parser.add_argument("--fault-seed", type=int, default=0,
                            help="seed for the fault plan's deterministic "
                                 "injection rolls (default 0)")
    run_parser.add_argument("--telemetry", action="store_true",
                            help="record spans + metrics under the run's "
                                 "journal directory (render with "
                                 "`repro report`)")
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
                              choices=("auto", "grid"),
                              help="execution engine: 'auto' runs the "
                                   "numpy stack-distance engine when "
                                   "the grid is LRU with power-of-two "
                                   "set counts, else the grid; 'grid' "
                                   "simulates each configuration")
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
                     "sweep engines")
    list_parser.add_argument("--workloads", action="store_true",
                             help="only the workload registry")
    list_parser.add_argument("--experiments", action="store_true",
                             help="only the experiment registry")
    list_parser.add_argument("--engines", action="store_true",
                             help="only the sweep execution engines "
                                  "(with the installed numpy version)")
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
        help="administer the trace store (stats, integrity audit, "
             "temp-file gc)")
    store_parser.add_argument(
        "action", choices=("stats", "verify", "gc"),
        help="stats: payload + result-cache numbers; verify: audit "
             "every payload (quarantines corruption, lists stale "
             "formats); gc: remove the temp files interrupted writes "
             "left (payloads and result entries are never touched)")
    store_parser.add_argument("--trace-dir", type=str, default=None)
    store_parser.set_defaults(func=_cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Dispatched before argparse: the subcommand is `required`, so a
    # bare top-level flag needs its own path.
    if arguments and arguments[0] in ("--version", "-V", "version"):
        _print_versions()
        return 0
    args = build_parser().parse_args(arguments)
    return args.func(args)
