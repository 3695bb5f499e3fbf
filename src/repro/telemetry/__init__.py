"""Zero-dependency tracing + metrics for the experiment pipeline.

The pipeline's only after-the-fact visibility used to be the
harness's one-line robustness summary: there was no way to answer
"where did the time go?", "what was the store hit rate?" or "which
retry fired?" once a run finished.  This package is the observability
layer: **spans** (nested, monotonic-clock timed trace sections),
**events** (point-in-time markers such as a fault firing) and a
**metrics registry** (counters / gauges / histograms), all behind a
no-op fast path so the instrumented seams cost one global lookup
when telemetry is off.

The sink
--------

``install(directory)`` arms recording in this process (the harness
does so for the length of a ``--telemetry`` run).  The run is one
process, so one recorder owns the directory's three files:

* ``spans.jsonl`` -- one JSON record per finished span or event,
  appended and flushed immediately (a run that dies keeps everything
  it completed, and ``repro report`` can still read it);
* ``metrics.json`` -- the registry, rewritten atomically on
  :func:`flush`.  :func:`install` starts from the ``metrics.json``
  already in the directory, so a ``--resume`` adds to the counters of
  the run it resumes;
* ``environment.json`` -- the host block, written by :func:`finalize`
  at run end.

Span ids carry the pid and a per-recorder token, so a crashed run and
its ``--resume`` keep distinct ids even when the pid is recycled.

With telemetry disabled nothing is ever opened or created: the
disabled :func:`span` returns a shared no-op context manager and the
metric calls return after one global lookup.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import tempfile
import time
import uuid
from pathlib import Path
from typing import Dict, Optional

#: The sink files under the telemetry directory.
SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"
ENVIRONMENT_FILE = "environment.json"


def _metric_key(name: str, labels: Dict[str, object]) -> str:
    """``name`` or ``name{k=v,...}`` with labels sorted -- flat keys
    keep the registry a plain JSON object."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str):
    """Inverse of the label flattening: ``(name, labels_dict)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for part in inner[:-1].split(","):
        if "=" in part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Temp-file + ``os.replace``: the file is whole or absent."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True,
                                    default=str) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_json(path: Path) -> dict:
    """A JSON object file's contents; ``{}`` if unreadable."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


class Span:
    """One timed, possibly-nested trace section.

    Context-manager only; the record is written (and flushed) on
    exit, carrying wall-clock start, monotonic duration, CPU time,
    the parent span id, and any attributes set at creation or via
    :meth:`set`.  An exception escaping the block stamps the record's
    status with the exception type (and is never swallowed).
    """

    __slots__ = ("_recorder", "name", "attrs", "id", "parent",
                 "_wall0", "_mono0", "_cpu0")

    def __init__(self, recorder: "_Recorder", name: str,
                 attrs: Dict[str, object]) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.id = None
        self.parent = None

    def __enter__(self) -> "Span":
        recorder = self._recorder
        self.id = recorder.next_id()
        self.parent = recorder.stack[-1].id if recorder.stack else None
        recorder.stack.append(self)
        self._wall0 = time.time()
        self._mono0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (hit/miss, counts)."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        if recorder.stack and recorder.stack[-1] is self:
            recorder.stack.pop()
        else:  # unbalanced exit (a span leaked): recover, don't raise
            try:
                recorder.stack.remove(self)
            except ValueError:
                pass
        record = {
            "kind": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "pid": recorder.pid,
            "t0": round(self._wall0, 6),
            "dur": round(time.perf_counter() - self._mono0, 9),
            "cpu": round(time.process_time() - self._cpu0, 9),
            "status": ("ok" if exc_type is None
                       else f"error:{exc_type.__name__}"),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        recorder.write(record)
        return False


class _NoopSpan:
    """The shared disabled-path span: every call is a constant no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Recorder:
    """The run's telemetry state: span sink, metric registry."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        #: Per-recorder-unique id discriminator: a recycled PID
        #: (crash + resume) must never repeat a span id.
        self.token = uuid.uuid4().hex[:8]
        self.stack = []
        self._sequence = 0
        self._file = None
        registry = _load_json(self.directory / METRICS_FILE)
        self.counters: Dict[str, float] = registry.get("counters") or {}
        self.gauges: Dict[str, float] = registry.get("gauges") or {}
        self.histograms: Dict[str, Dict[str, float]] = \
            registry.get("histograms") or {}
        self._metrics_dirty = False

    def next_id(self) -> str:
        self._sequence += 1
        return f"{self.pid}-{self.token}-{self._sequence}"

    # -- span sink -------------------------------------------------------

    def write(self, record: dict) -> None:
        """Append one JSONL record, flushed through to the OS so a run
        that dies later cannot lose it.  IO failures are swallowed:
        telemetry must never fail the run."""
        try:
            if self._file is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = open(self.directory / SPANS_FILE, "a",
                                  encoding="utf-8")
            self._file.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":"),
                                        default=str) + "\n")
            self._file.flush()
        except OSError:
            pass

    # -- metric registry -------------------------------------------------

    def inc(self, name: str, n, labels: Dict[str, object]) -> None:
        key = _metric_key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n
        self._metrics_dirty = True

    def gauge_set(self, name: str, value, labels) -> None:
        self.gauges[_metric_key(name, labels)] = value
        self._metrics_dirty = True

    def observe(self, name: str, value, labels) -> None:
        key = _metric_key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = {
                "count": 0, "sum": 0.0, "min": value, "max": value}
        hist["count"] += 1
        hist["sum"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        self._metrics_dirty = True

    def registry(self) -> dict:
        return {"counters": self.counters, "gauges": self.gauges,
                "histograms": self.histograms}

    def flush_metrics(self) -> None:
        """Atomically rewrite ``metrics.json`` with the registry."""
        if not self._metrics_dirty:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _atomic_write_json(self.directory / METRICS_FILE,
                               self.registry())
            self._metrics_dirty = False
        except OSError:
            pass

    def close(self) -> None:
        self.flush_metrics()
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None


#: The armed recorder, or None.
_RECORDER: Optional[_Recorder] = None


def enabled() -> bool:
    """Whether telemetry is armed in this process."""
    return _RECORDER is not None


def active_directory() -> Optional[str]:
    """The armed sink directory, or None."""
    return str(_RECORDER.directory) if _RECORDER is not None else None


def install(directory: Optional[os.PathLike]) -> None:
    """Arm telemetry into *directory*, continuing the metrics registry
    already there.  ``install(None)`` closes the recorder and disarms.
    """
    global _RECORDER
    if _RECORDER is not None:
        _RECORDER.close()
    if directory is None:
        _RECORDER = None
        return
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _RECORDER = _Recorder(directory)


def span(name: str, **attrs):
    """A timed context manager; the no-op singleton when disabled."""
    recorder = _RECORDER
    if recorder is None:
        return _NOOP
    return Span(recorder, name, attrs)


def event(name: str, **attrs) -> None:
    """Record a point-in-time marker (written and flushed at once)."""
    recorder = _RECORDER
    if recorder is None:
        return
    record = {"kind": "event", "name": name,
              "id": recorder.next_id(), "pid": recorder.pid,
              "t0": round(time.time(), 6)}
    if attrs:
        record["attrs"] = attrs
    recorder.write(record)


def inc(name: str, n=1, **labels) -> None:
    """Add *n* to a counter (labels flatten into the metric key)."""
    recorder = _RECORDER
    if recorder is None:
        return
    recorder.inc(name, n, labels)


def gauge(name: str, value, **labels) -> None:
    """Set a gauge to its latest value."""
    recorder = _RECORDER
    if recorder is None:
        return
    recorder.gauge_set(name, value, labels)


def observe(name: str, value, **labels) -> None:
    """Record one sample into a histogram (count/sum/min/max)."""
    recorder = _RECORDER
    if recorder is None:
        return
    recorder.observe(name, value, labels)


def flush() -> None:
    """Rewrite ``metrics.json`` (spans are already flushed per
    record)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.flush_metrics()


def finalize() -> Optional[dict]:
    """Flush the sink and write ``environment.json`` (at run end).

    Returns the metrics registry, or None when disabled.  The
    recorder stays armed: spans recorded afterwards append to the same
    ``spans.jsonl``.
    """
    recorder = _RECORDER
    if recorder is None:
        return None
    recorder.close()
    environment = recorder.directory / ENVIRONMENT_FILE
    if not environment.exists():
        try:
            _atomic_write_json(environment, environment_block())
        except OSError:
            pass
    return recorder.registry()


def environment_block() -> dict:
    """The host/interpreter identity block, including the numpy
    version (or None) so engine-dependent numbers are attributable."""
    try:
        import numpy
        numpy_version = getattr(numpy, "__version__", "unknown")
    except Exception:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "python": platform.python_version(),
        "system": platform.system(),
    }


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exit-path safety net
    recorder = _RECORDER
    if recorder is not None:
        recorder.flush_metrics()


__all__ = [
    "SPANS_FILE", "METRICS_FILE", "ENVIRONMENT_FILE",
    "Span", "enabled", "active_directory", "install",
    "span", "event", "inc", "gauge", "observe", "flush", "finalize",
    "environment_block", "split_metric_key",
]
