"""Load a run's telemetry and build the ``repro report`` views.

The report answers the post-hoc questions the raw JSONL cannot:

* **phase-time breakdown tree** -- spans aggregated by their
  name-path (``harness.run/harness.task/store.load``), with total,
  self (total minus instrumented children) and call counts, so the
  totals reconcile against the root span's wall-clock;
* **top-N slowest tasks** -- the individual ``harness.task`` spans,
  worst first, with wall and CPU seconds;
* **store hit rates** -- disk hits / misses / generator executions /
  memo hits / quarantines from the metrics counters;
* **robustness ledger** -- retries, task failures, resumed
  experiments and every fault that fired;
* the **counters / gauges / histograms** verbatim, for CI
  consumption via ``--format json``.

Loading reads the run's three sink files (``spans.jsonl``,
``metrics.json``, ``environment.json``) and its ``manifest.json``,
and never writes.  A run that died before finalizing has no
``environment.json`` yet; the spans and metrics it flushed are still
reported.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.telemetry import (ENVIRONMENT_FILE, METRICS_FILE, SPANS_FILE,
                             _load_json, split_metric_key)

#: The telemetry subdirectory of a ``.repro_runs/<run-key>/`` entry.
TELEMETRY_DIR = "telemetry"


def find_run_directory(root: os.PathLike,
                       run: Optional[str] = None) -> Path:
    """The newest run directory under *root* that carries telemetry.

    ``run`` narrows the search to run keys starting with the given
    prefix.  Raises :class:`FileNotFoundError` when nothing matches.
    """
    root = Path(root)
    candidates = []
    if root.is_dir():
        for child in sorted(root.iterdir()):
            if not child.is_dir():
                continue
            if run and not child.name.startswith(run):
                continue
            if (child / TELEMETRY_DIR).is_dir():
                candidates.append(child)
    if not candidates:
        wanted = f" matching {run!r}" if run else ""
        raise FileNotFoundError(
            f"no telemetry-bearing run{wanted} under {root} -- run "
            f"`repro run --telemetry` first")
    return max(candidates,
               key=lambda path: (path / TELEMETRY_DIR).stat().st_mtime)


def _read_jsonl(path: Path) -> List[dict]:
    records = []
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return records
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def load_run(run_dir: os.PathLike) -> dict:
    """All telemetry for one run directory.

    Returns ``{"run", "directory", "spans", "events", "metrics",
    "environment", "manifest"}``.  Never mutates the directory.
    """
    run_dir = Path(run_dir)
    tdir = run_dir / TELEMETRY_DIR
    records = _read_jsonl(tdir / SPANS_FILE)
    metrics = _load_json(tdir / METRICS_FILE)
    metrics.setdefault("counters", {})
    metrics.setdefault("gauges", {})
    metrics.setdefault("histograms", {})
    return {
        "run": run_dir.name,
        "directory": str(run_dir),
        "spans": [r for r in records if r.get("kind") == "span"],
        "events": [r for r in records if r.get("kind") == "event"],
        "metrics": metrics,
        "environment": _load_json(tdir / ENVIRONMENT_FILE),
        "manifest": _load_json(run_dir / "manifest.json"),
    }


def counter_total(metrics: dict, name: str) -> float:
    """Sum of a counter across every label combination."""
    total = 0
    for key, value in (metrics.get("counters") or {}).items():
        if split_metric_key(key)[0] == name:
            total += value
    return total


def counter_by_labels(metrics: dict, name: str) -> Dict[str, float]:
    """label-string -> value for one counter family."""
    out = {}
    for key, value in (metrics.get("counters") or {}).items():
        base, labels = split_metric_key(key)
        if base == name:
            label = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            out[label or "(total)"] = value
    return out


def _span_paths(spans: List[dict]) -> List[Tuple[Tuple[str, ...], dict]]:
    """Each span with its name-path (root-first ancestor names)."""
    by_id = {span["id"]: span for span in spans if "id" in span}
    paths = []
    for span in spans:
        names = [span.get("name", "?")]
        parent = span.get("parent")
        hops = 0
        while parent is not None and hops < 64:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break  # parent never closed (crash): treat as a root
            names.append(ancestor.get("name", "?"))
            parent = ancestor.get("parent")
            hops += 1
        paths.append((tuple(reversed(names)), span))
    return paths


def build_report(data: dict, top: int = 10) -> dict:
    """The report document (JSON-serializable) for one run's data."""
    spans = data["spans"]
    metrics = data["metrics"]
    paths = _span_paths(spans)

    # Aggregate the tree: one node per distinct name-path.
    nodes: Dict[Tuple[str, ...], dict] = {}
    child_seconds: Dict[str, float] = {}
    for path, span in paths:
        node = nodes.setdefault(path, {"count": 0, "total": 0.0,
                                       "cpu": 0.0, "errors": 0})
        node["count"] += 1
        node["total"] += span.get("dur", 0.0)
        node["cpu"] += span.get("cpu", 0.0)
        if str(span.get("status", "ok")) != "ok":
            node["errors"] += 1
        parent = span.get("parent")
        if parent is not None:
            child_seconds[parent] = (child_seconds.get(parent, 0.0)
                                     + span.get("dur", 0.0))
    self_by_path: Dict[Tuple[str, ...], float] = {}
    for path, span in paths:
        own = span.get("dur", 0.0) - child_seconds.get(span.get("id"), 0.0)
        self_by_path[path] = self_by_path.get(path, 0.0) + own

    roots = [span for path, span in paths if len(path) == 1]
    wall = max((span.get("dur", 0.0) for span in roots
                if span.get("name") == "harness.run"),
               default=max((span.get("dur", 0.0) for span in roots),
                           default=0.0))

    # Depth-first ordering, siblings by total seconds descending.
    ordered: List[dict] = []

    def emit(prefix: Tuple[str, ...]) -> None:
        children = sorted(
            (path for path in nodes
             if len(path) == len(prefix) + 1 and path[:-1] == prefix),
            key=lambda path: -nodes[path]["total"])
        for path in children:
            node = nodes[path]
            ordered.append({
                "path": "/".join(path),
                "name": path[-1],
                "depth": len(path) - 1,
                "count": node["count"],
                "errors": node["errors"],
                "total_seconds": round(node["total"], 6),
                "self_seconds": round(max(0.0, self_by_path.get(path, 0.0)),
                                      6),
                "cpu_seconds": round(node["cpu"], 6),
                "fraction_of_wall": (round(node["total"] / wall, 4)
                                     if wall else None),
            })
            emit(path)

    emit(())

    tasks = sorted((span for span in spans
                    if span.get("name") == "harness.task"),
                   key=lambda span: -span.get("dur", 0.0))
    slowest = [{
        "task": (span.get("attrs") or {}).get("task", "?"),
        "seconds": round(span.get("dur", 0.0), 6),
        "cpu_seconds": round(span.get("cpu", 0.0), 6),
        "pid": span.get("pid"),
        "status": span.get("status", "ok"),
    } for span in tasks[:top]]

    counters = metrics.get("counters") or {}
    hits = counter_total(metrics, "store.hit")
    misses = counter_total(metrics, "store.miss")
    memo = counter_total(metrics, "store.memo_hit")
    lookups = hits + misses
    store = {
        "hits": hits,
        "misses": misses,
        "memo_hits": memo,
        "generated": counter_total(metrics, "store.generated"),
        "quarantined": counter_total(metrics, "store.quarantined"),
        "hit_rate": round(hits / lookups, 4) if lookups else None,
        "memo_hit_rate": (round((hits + memo) / (lookups + memo), 4)
                          if lookups + memo else None),
    }
    cache_hits = counter_total(metrics, "result_cache.hit")
    cache_misses = counter_total(metrics, "result_cache.miss")
    cache_lookups = cache_hits + cache_misses
    result_cache = {
        "hits": cache_hits,
        "misses": cache_misses,
        "puts": counter_total(metrics, "result_cache.put"),
        "evictions": counter_total(metrics, "result_cache.evict"),
        "hit_rate": (round(cache_hits / cache_lookups, 4)
                     if cache_lookups else None),
        "sweep_replays": counter_total(metrics, "sweep.replay"),
        "sweep_replays_by_labels": counter_by_labels(metrics,
                                                     "sweep.replay"),
    }
    robustness = {
        "retries": counter_total(metrics, "harness.retries"),
        "task_failures": counter_total(metrics, "harness.task_failures"),
        "resumed": counter_total(metrics, "harness.resumed"),
        "faults_fired": counter_total(metrics, "faults.fired"),
        "faults_by_site": counter_by_labels(metrics, "faults.fired"),
        "fault_events": len([e for e in data["events"]
                             if e.get("name") == "fault.fired"]),
    }
    task_spans = len([s for s in spans if s.get("name") == "harness.task"])
    return {
        "run": data["run"],
        "directory": data["directory"],
        "manifest": data["manifest"],
        "environment": data["environment"],
        "wall_seconds": round(wall, 6),
        "span_count": len(spans),
        "event_count": len(data["events"]),
        "task_spans": task_spans,
        "task_counter": counter_total(metrics, "harness.tasks"),
        "phases": ordered,
        "slowest_tasks": slowest,
        "store": store,
        "result_cache": result_cache,
        "robustness": robustness,
        "counters": counters,
        "gauges": metrics.get("gauges") or {},
        "histograms": metrics.get("histograms") or {},
    }


def _seconds(value: float) -> str:
    return f"{value:8.3f}s"


def render(report: dict) -> str:
    """The human-readable report text."""
    lines = []
    manifest = report.get("manifest") or {}
    env = report.get("environment") or {}
    lines.append(f"run:        {report['run']}")
    if manifest:
        knobs = ", ".join(f"{key}={manifest[key]}"
                          for key in ("scale", "quick")
                          if key in manifest)
        if knobs:
            lines.append(f"manifest:   {knobs}")
    if env:
        numpy_note = (f"numpy {env['numpy']}" if env.get("numpy")
                      else "numpy absent")
        lines.append(f"host:       {env.get('implementation')} "
                     f"{env.get('python')} on {env.get('system')} "
                     f"{env.get('machine')}, {env.get('cpus')} cpu(s), "
                     f"{numpy_note}")
    lines.append(f"telemetry:  {report['span_count']} spans, "
                 f"{report['event_count']} events "
                 f"[{report['directory']}]")
    lines.append("")
    lines.append(f"phase-time breakdown "
                 f"({report['wall_seconds']:.3f}s wall):")
    lines.append(f"  {'phase':<44}{'total':>9}{'self':>10}"
                 f"{'calls':>7}  %wall")
    for phase in report["phases"]:
        indent = "  " * phase["depth"]
        label = f"{indent}{phase['name']}"
        errors = f" !{phase['errors']}" if phase["errors"] else ""
        pct = (f"{100.0 * phase['fraction_of_wall']:5.1f}%"
               if phase["fraction_of_wall"] is not None else "     ")
        lines.append(
            f"  {label:<44}{_seconds(phase['total_seconds'])}"
            f"{_seconds(phase['self_seconds'])}"
            f"{phase['count']:>7}  {pct}{errors}")
    if report["slowest_tasks"]:
        lines.append("")
        lines.append(f"slowest tasks (top {len(report['slowest_tasks'])}):")
        for entry in report["slowest_tasks"]:
            status = ("" if entry["status"] == "ok"
                      else f"  [{entry['status']}]")
            lines.append(f"  {_seconds(entry['seconds'])}  "
                         f"(cpu {entry['cpu_seconds']:.3f}s)  "
                         f"{entry['task']}{status}")
    store = report["store"]
    lines.append("")
    lines.append("trace store:")
    rate = ("n/a" if store["hit_rate"] is None
            else f"{100.0 * store['hit_rate']:.1f}%")
    lines.append(f"  disk hits {store['hits']:.0f} / misses "
                 f"{store['misses']:.0f} (hit rate {rate}), "
                 f"memo hits {store['memo_hits']:.0f}, "
                 f"generated {store['generated']:.0f}, "
                 f"quarantined {store['quarantined']:.0f}")
    cache = report.get("result_cache") or {}
    if cache:
        cache_rate = ("n/a" if cache["hit_rate"] is None
                      else f"{100.0 * cache['hit_rate']:.1f}%")
        lines.append("")
        lines.append("sweep-result cache:")
        lines.append(f"  hits {cache['hits']:.0f} / misses "
                     f"{cache['misses']:.0f} (hit rate {cache_rate}), "
                     f"puts {cache['puts']:.0f}, "
                     f"evictions {cache['evictions']:.0f}")
        lines.append(f"  engine replays {cache['sweep_replays']:.0f}")
    robustness = report["robustness"]
    lines.append("")
    lines.append("robustness ledger:")
    lines.append(f"  {robustness['retries']:.0f} retries, "
                 f"{robustness['task_failures']:.0f} task failures, "
                 f"{robustness['resumed']:.0f} resumed")
    if robustness["faults_by_site"]:
        fired = ", ".join(f"{label}: {count:.0f}" for label, count
                          in sorted(robustness["faults_by_site"].items()))
        lines.append(f"  faults fired: {robustness['faults_fired']:.0f} "
                     f"({fired})")
    else:
        lines.append("  faults fired: 0")
    counters = report["counters"]
    replay = counter_by_labels({"counters": counters},
                               "sweep.refs_replayed")
    if replay:
        lines.append("")
        lines.append("sweep replay:")
        for label, count in sorted(replay.items()):
            lines.append(f"  {label}: {count:.0f} references replayed")
    histograms = report["histograms"]
    eps = {key: hist for key, hist in histograms.items()
           if split_metric_key(key)[0] == "sweep.replay_events_per_sec"}
    for key, hist in sorted(eps.items()):
        mean = hist["sum"] / hist["count"] if hist.get("count") else 0.0
        lines.append(f"  {key}: mean {mean:,.0f} ev/s over "
                     f"{hist['count']} replay(s)")
    tasks = report["task_spans"]
    counted = report["task_counter"]
    lines.append("")
    lines.append(f"tasks: {tasks} task span(s), {counted:.0f} counted "
                 f"in the registry"
                 + ("" if tasks == counted else "  [MISMATCH]"))
    return "\n".join(lines)
