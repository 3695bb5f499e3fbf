"""The on-disk trace store: generate a workload once, load it forever.

Every consumer of the section-5 measurement traces (harness,
benchmarks, tests, examples) used to re-run the Fith interpreter from
scratch -- seconds of pure regeneration per process.  The store keys
each materialized trace by ``(spec name, parameters, generator
version)`` -- hashed into a content key -- and keeps it under
``.repro_traces/`` (override with ``REPRO_TRACE_DIR`` or the ``root``
argument) in the columnar binary format of
:mod:`repro.trace.columnar`.

Layout (see :mod:`repro.workloads.library`): payloads live sharded
under ``shards/<key[:2]>/``; the payload files are the only index.  A
payload in an older layout (a flat file at the store root) is a cache
miss: the trace regenerates into its shard and the old file is left
alone.  Sweep results are memoized under ``results/`` by the
:class:`~repro.workloads.library.ResultCache`.

Load path: on a little-endian host with no fault plan armed, a hit is
**memory-mapped** -- :meth:`~repro.trace.columnar.Trace.from_buffer`
builds the columns as zero-copy views over the mapping (the
``store.mmap_open`` counter), per-block CRC32 checks deferred to
first touch.  The store owns every mapping it opens;
:meth:`TraceStore.close` releases them (after which the mapped traces
raise the typed :class:`~repro.errors.MappedBufferClosed`; use
:meth:`~repro.trace.columnar.Trace.copy` first to keep data).  The
copying ``read -> from_bytes`` path remains for big-endian hosts,
for ``REPRO_STORE_MMAP=0``, and whenever a fault plan is armed --
payload-mutating chaos needs the byte stream, and this keeps
injection sequences identical to the pre-mmap store.

Cache rules:

* **key** -- sha256 over the canonical JSON of ``{name, version,
  format, params}``.  Different parameters or a bumped generator
  version produce a different key; nothing is ever invalidated in
  place.  ``format`` is the columnar payload version
  (:data:`repro.trace.columnar.FORMAT_VERSION`), so a layout change
  invalidates by missing, never by misreading.
* **write** -- to a temp file in the same directory then
  ``os.replace``, so concurrent writers (two runs sharing a store)
  can race harmlessly: last atomic rename wins and both contents are
  identical by construction.
* **read** -- a file in a *legacy or foreign format* (wrong magic,
  old payload version) is a clean miss and regenerated in place.  A
  file in the *current* format that fails its integrity check (length
  or a CRC32 block trailer; see payload v3 in
  :mod:`repro.trace.columnar`) is **quarantined**: moved to
  ``quarantine/`` under the store root with a ``.reason.json``
  sidecar recording why, then regenerated.  Corruption is evidence of
  a disk/transfer problem -- it is preserved for inspection, never
  silently destroyed.  On the mmap path the structural checks stay
  eager (same quarantine flow) while per-block CRC failures surface
  at first column touch as :class:`~repro.errors.StoreCorruption`;
  ``TraceStore.verify()`` (CLI: ``repro trace --verify`` / ``repro
  store verify``) audits every payload eagerly either way, and
  additionally cross-checks each sidecar's recorded identity against
  the content key in the filename, *reporting* (never quarantining)
  sidecars that misdescribe a healthy payload.

A JSON sidecar (same stem, ``.json``) records the human-readable
identity of each entry for ``python -m repro list``/``trace``.  The
sidecar is *regenerable metadata*: a missing or corrupt sidecar never
hides or invalidates a valid binary payload -- it is rewritten on
load (full fidelity, since the spec and parameters are in hand) and
reconstructed best-effort from the payload during enumeration.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro import faults, telemetry
from repro.errors import PayloadFormatError, StoreCorruption
from repro.trace.columnar import (FORMAT_VERSION, MappedTrace, Trace,
                                  as_trace)
from repro.workloads.library import ResultCache, TraceLibrary
from repro.workloads.spec import WorkloadSpec, get as get_spec

#: Subdirectory (under the store root) corrupt payloads are moved to.
QUARANTINE_DIR = "quarantine"

#: ``REPRO_STORE_MMAP=0`` forces the copying read path everywhere
#: (debugging aid; also useful on filesystems where mapping is slow).
ENV_MMAP = "REPRO_STORE_MMAP"


def default_root() -> Path:
    """The store directory: $REPRO_TRACE_DIR or ./.repro_traces."""
    return Path(os.environ.get("REPRO_TRACE_DIR", ".repro_traces"))


class TraceStore:
    """Content-keyed trace cache with an in-process memo on top.

    ``hits``/``misses`` count disk-level outcomes (a memo hit does
    not touch the counters twice); ``generated`` counts actual
    generator executions -- the number the "no Fith re-execution"
    guarantee is asserted on.
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_root()
        self.library = TraceLibrary(self.root)
        self.hits = 0
        self.misses = 0
        self.generated = 0
        self.quarantined = 0
        self._memo: Dict[str, Trace] = {}
        #: (mmap, MappedTrace) pairs this store opened; released by
        #: :meth:`close`.
        self._mapped: List[Tuple[mmap.mmap, MappedTrace]] = []

    # -- keying ---------------------------------------------------------

    @staticmethod
    def _identity_key(name: str, version, params) -> str:
        identity = json.dumps(
            {"name": name, "version": version,
             "format": FORMAT_VERSION, "params": dict(params)},
            sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(identity.encode()).hexdigest()[:20]

    @staticmethod
    def key_for(spec: WorkloadSpec, params: Mapping[str, object]) -> str:
        return TraceStore._identity_key(spec.name, spec.version, params)

    def path_for(self, spec: WorkloadSpec,
                 params: Mapping[str, object]) -> Path:
        """The (sharded) location of one trace payload."""
        return self._payload_path(spec.name, self.key_for(spec, params))

    def _payload_path(self, name: str, key: str) -> Path:
        return self.library.shard_path(f"{name}-{key}.trace", key)

    # -- load / materialize ---------------------------------------------

    def load(self, name_or_spec, *, quick: bool = False,
             scale: Optional[int] = None,
             **overrides) -> Trace:
        """Load a workload's trace, generating and caching on miss."""
        spec = (name_or_spec if isinstance(name_or_spec, WorkloadSpec)
                else get_spec(name_or_spec))
        params = spec.resolve(quick=quick, scale=scale,
                              overrides=overrides)
        return self._load_resolved(spec, params)

    def trace_key(self, name_or_spec, *, quick: bool = False,
                  scale: Optional[int] = None, **overrides) -> str:
        """The content key a load would use, without touching disk.

        The harness's result-cache probe needs this key (it
        parameterizes the sweep-result cache) *before* deciding
        whether an experiment has to be scheduled at all, so it must
        not cost a payload read or a generator run.
        """
        spec = (name_or_spec if isinstance(name_or_spec, WorkloadSpec)
                else get_spec(name_or_spec))
        params = spec.resolve(quick=quick, scale=scale,
                              overrides=overrides)
        return self.key_for(spec, params)

    def ensure(self, name_or_spec, *, quick: bool = False,
               scale: Optional[int] = None,
               **overrides) -> Tuple[Path, bool]:
        """Materialize a workload on disk; returns (path, was_hit)."""
        spec = (name_or_spec if isinstance(name_or_spec, WorkloadSpec)
                else get_spec(name_or_spec))
        params = spec.resolve(quick=quick, scale=scale,
                              overrides=overrides)
        before = self.generated
        self._load_resolved(spec, params)
        return self.path_for(spec, params), self.generated == before

    def _load_resolved(self, spec: WorkloadSpec,
                       params: Mapping[str, object]) -> Trace:
        key = self.key_for(spec, params)
        memo = self._memo.get(key)
        if memo is not None:
            telemetry.inc("store.memo_hit")
            return memo
        path = self._payload_path(spec.name, key)
        with telemetry.span("store.load", workload=spec.name) as sp:
            events = self._read(path)
            if events is not None:
                self.hits += 1
                telemetry.inc("store.hit")
                sp.set(outcome="hit", events=len(events),
                       mapped=isinstance(events, MappedTrace))
                if self._read_sidecar(path) is None:
                    self._write_sidecar(path, self._sidecar_meta(
                        spec.name, spec.version, params, events))
            else:
                self.misses += 1
                self.generated += 1
                telemetry.inc("store.miss")
                telemetry.inc("store.generated")
                events = as_trace(spec.generate(params))
                self._write(path, spec, params, events)
                sp.set(outcome="generated", events=len(events))
        events.store_key = key
        events.store_root = str(self.root)
        self._memo[key] = events
        return events

    # -- binary format --------------------------------------------------

    @staticmethod
    def serialize(events) -> bytes:
        """The columnar payload of a trace (or legacy event list)."""
        return as_trace(events).to_bytes()

    @staticmethod
    def deserialize(blob: bytes) -> Trace:
        """Columns straight from the payload; zero TraceEvent objects."""
        return Trace.from_bytes(blob)

    def _mmap_enabled(self) -> bool:
        """Zero-copy reads apply only when nothing needs the byte
        stream: chaos plans mutate payload bytes in flight, so any
        armed plan routes reads through the legacy path (keeping
        injection sequences identical to the pre-mmap store)."""
        if os.environ.get(ENV_MMAP, "1").strip().lower() in (
                "0", "off", "false", "no"):
            return False
        if self.deserialize is not _DEFAULT_DESERIALIZE:
            # A subclass (or a test) replaced the payload decoder;
            # the zero-copy path would bypass it, so honor the
            # override by reading bytes through it instead.
            return False
        return faults.active_plan() is None

    def _read_mapped(self, path: Path) -> Tuple[bool, Optional[Trace]]:
        """(handled, trace): ``handled=False`` falls back to the
        copying read path (open/map failed -- missing file, an empty
        file mmap refuses, a directory in the way)."""
        try:
            with open(path, "rb") as handle:
                mapping = mmap.mmap(handle.fileno(), 0,
                                    access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return False, None
        try:
            trace = Trace.from_buffer(mapping)
        except PayloadFormatError:
            mapping.close()
            return True, None  # legacy layout or foreign file: a miss
        except StoreCorruption as error:
            mapping.close()
            self.quarantine(path, error.reason)
            return True, None
        if isinstance(trace, MappedTrace):
            try:
                # Zero-copy eager integrity: CRC32 straight over the
                # mapped pages, so the load-time quarantine contract
                # holds on this path too (no byte buffers built).
                trace.verify()
            except StoreCorruption as error:
                trace.close()
                try:
                    mapping.close()
                except BufferError:  # pragma: no cover - defensive
                    pass
                self.quarantine(path, error.reason)
                return True, None
            self._mapped.append((mapping, trace))
            telemetry.inc("store.mmap_open")
        else:
            # A big-endian host fell back to the copying decoder
            # inside from_buffer; the mapping has served its purpose.
            try:
                mapping.close()
            except BufferError:  # pragma: no cover - defensive
                pass
        return True, trace

    def _read(self, path: Path) -> Optional[Trace]:
        """Decode one stored payload, or None for a miss.

        Only *payload-decode* failures are misses: an unreadable file
        or a legacy/foreign format (``PayloadFormatError``).  A
        current-format payload that fails its integrity check is
        quarantined (still a miss, but preserved and counted), and
        any other exception -- a genuine programming error -- is NOT
        swallowed: it propagates.
        """
        if self._mmap_enabled():
            handled, trace = self._read_mapped(path)
            if handled:
                return trace
        try:
            blob = path.read_bytes()
            blob = faults.inject("store.read", key=path.name,
                                 payload=blob)
        except OSError:
            return None
        try:
            return self.deserialize(blob)
        except PayloadFormatError:
            return None  # legacy layout or foreign file: a clean miss
        except StoreCorruption as error:
            self.quarantine(path, error.reason)
            return None

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a corrupt payload (and sidecar) into ``quarantine/``.

        Writes a ``<name>.reason.json`` sidecar recording why.  Best
        effort: quarantining is bookkeeping around a miss and must
        never fail the load; returns the destination or None.
        """
        destination = None
        try:
            qdir = self.root / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            destination = qdir / path.name
            os.replace(path, destination)
        except OSError:
            return None
        self.quarantined += 1
        telemetry.inc("store.quarantined")
        telemetry.event("store.quarantine", file=path.name, reason=reason)
        sidecar = path.with_suffix(".json")
        try:
            os.replace(sidecar, qdir / sidecar.name)
        except OSError:
            pass  # the sidecar is regenerable metadata anyway
        try:
            (qdir / f"{path.name}.reason.json").write_text(json.dumps(
                {"file": path.name, "reason": reason,
                 "quarantined_at": time.strftime(
                     "%Y-%m-%dT%H:%M:%S%z")},
                indent=2, sort_keys=True) + "\n")
        except OSError:
            pass
        return destination

    def _sidecar_mismatch(self, path: Path) -> Optional[str]:
        """Why this payload's sidecar misdescribes it, or None.

        Cross-checks (a) the sidecar's recorded identity against the
        content key in the filename -- only when every parameter
        survived the sidecar round-trip as a JSON primitive, since
        ``repr``-stringified parameters cannot be re-keyed faithfully
        -- and (b) the recorded event/dispatched counts against the
        payload columns.  A mismatch means the *sidecar* is stale
        (the payload already passed its CRC audit); it is reported
        for repair, never quarantined.
        """
        meta = self._read_sidecar(path)
        if meta is None:
            return None  # missing/corrupt sidecars are healed on load
        filename_key = path.stem.rsplit("-", 1)[-1]
        params = meta.get("params")
        if isinstance(params, dict) and all(
                isinstance(value, (int, float, str, bool, type(None)))
                for value in params.values()) \
                and "workload" in meta and "version" in meta:
            recorded = self._identity_key(meta["workload"],
                                          meta["version"], params)
            if recorded != filename_key:
                return (f"sidecar identity keys to {recorded}, "
                        f"file is keyed {filename_key}")
        expected = (meta.get("events"), meta.get("dispatched"))
        if all(isinstance(value, int) for value in expected):
            try:
                trace = self.deserialize(path.read_bytes())
            except (OSError, ValueError):
                return None  # the payload audit already covered this
            actual = (len(trace), trace.dispatched_count())
            if expected != actual:
                return (f"sidecar records events/dispatched "
                        f"{expected[0]}/{expected[1]}, payload has "
                        f"{actual[0]}/{actual[1]}")
        return None

    def verify(self) -> dict:
        """Audit every payload in the store; quarantine the corrupt.

        Returns ``{"checked", "ok", "stale", "corrupt",
        "mismatched"}`` where ``stale`` lists legacy-format files
        (harmless misses, left in place), ``corrupt`` lists ``(name,
        reason)`` pairs for current-format payloads that failed
        integrity and were moved to quarantine, and ``mismatched``
        lists ``(name, reason)`` pairs whose payload is healthy but
        whose sidecar misdescribes it (stale metadata: reported so it
        can be repaired, not quarantined -- the payload is the truth).
        """
        report = {"checked": 0, "ok": 0, "stale": [], "corrupt": [],
                  "mismatched": []}
        for path in self.library.payload_paths():
            report["checked"] += 1
            try:
                self.deserialize(path.read_bytes())
            except PayloadFormatError:
                report["stale"].append(path.name)
            except StoreCorruption as error:
                self.quarantine(path, error.reason)
                report["corrupt"].append((path.name, error.reason))
            except OSError as error:
                report["corrupt"].append((path.name, str(error)))
            else:
                report["ok"] += 1
                mismatch = self._sidecar_mismatch(path)
                if mismatch is not None:
                    report["mismatched"].append((path.name, mismatch))
        return report

    def _write(self, path: Path, spec: WorkloadSpec,
               params: Mapping[str, object], events: Trace) -> None:
        try:
            with telemetry.span("store.write", file=path.name) as sp:
                path.parent.mkdir(parents=True, exist_ok=True)
                blob = self.serialize(events)
                blob = faults.inject("store.write", key=path.name,
                                     payload=blob)
                sp.set(bytes=len(blob))
                fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                           prefix=path.stem, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(blob)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            self._write_sidecar(path, self._sidecar_meta(
                spec.name, spec.version, params, events))
        except OSError:
            # The store is a cache: failing to persist must never fail
            # the run that produced the trace.
            pass

    # -- result cache ----------------------------------------------------

    def result_cache(self) -> ResultCache:
        """The sweep-result cache rooted under this store."""
        return ResultCache(self.root)

    # -- lifetime --------------------------------------------------------

    def close(self) -> None:
        """Release every memory mapping this store opened.

        Mapped traces handed out by :meth:`load` raise
        :class:`~repro.errors.MappedBufferClosed` afterwards; column
        views sliced out *before* the close stay valid (each pins the
        mapping until it is itself released).  Idempotent.
        """
        for mapping, trace in self._mapped:
            trace.close()
            try:
                mapping.close()
            except BufferError:
                # A caller still holds a column view; the mapping is
                # unmapped when the last view goes away.
                pass
        self._mapped.clear()
        self._memo.clear()

    # -- sidecar metadata -----------------------------------------------

    @staticmethod
    def _sidecar_meta(name: str, version,
                      params: Optional[Mapping[str, object]],
                      events) -> dict:
        trace = as_trace(events)
        return {
            "workload": name,
            "version": version,
            "format": FORMAT_VERSION,
            "params": None if params is None else {
                k: repr(v) if not isinstance(
                    v, (int, float, str, bool, type(None))) else v
                for k, v in params.items()},
            "events": len(trace),
            "dispatched": trace.dispatched_count(),
        }

    @staticmethod
    def _read_sidecar(path: Path) -> Optional[dict]:
        """The trace's sidecar dict, or None when missing/corrupt."""
        try:
            meta = json.loads(path.with_suffix(".json").read_text())
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) and "workload" in meta \
            else None

    @staticmethod
    def _write_sidecar(path: Path, meta: dict) -> None:
        try:
            path.with_suffix(".json").write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass  # regenerable metadata: never fail the load

    # -- introspection --------------------------------------------------

    def entries(self) -> List[dict]:
        """Sidecar metadata for every materialized trace.

        Enumerates the binary payloads, not the sidecars: a trace whose sidecar is missing or corrupt is
        still listed, with its metadata reconstructed from the
        payload (workload name from the file name, event counts from
        the columns; the generator version and parameters are
        unrecoverable and marked so) and the sidecar healed on disk
        for the next caller.
        """
        out = []
        for trace_path in self.library.payload_paths():
            meta = self._read_sidecar(trace_path)
            if meta is None:
                events = self._read(trace_path)
                if events is None:
                    continue  # corrupt payload: a miss, not an entry
                name = trace_path.stem.rsplit("-", 1)[0]
                meta = self._sidecar_meta(name, None, None, events)
                meta["recovered"] = True
                self._write_sidecar(trace_path, meta)
            meta["path"] = str(trace_path)
            out.append(meta)
        return out

    def cached_names(self) -> Dict[str, int]:
        """workload name -> number of materialized parameterizations."""
        counts: Dict[str, int] = {}
        for meta in self.entries():
            name = meta.get("workload")
            if name:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def stats(self) -> dict:
        """Layout + result-cache numbers for ``repro store stats``."""
        stats = self.library.stats()
        stats["quarantined"] = len(list(
            (self.root / QUARANTINE_DIR).glob("*.trace"))) \
            if (self.root / QUARANTINE_DIR).is_dir() else 0
        stats["result_cache"] = self.result_cache().stats()
        return stats


#: The stock payload decoder; the mmap fast path only applies while
#: it is in place (see :meth:`TraceStore._mmap_enabled`).
_DEFAULT_DESERIALIZE = TraceStore.deserialize

_DEFAULT: Optional[TraceStore] = None


def default_store() -> TraceStore:
    """The process-wide store rooted at :func:`default_root`."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.root != default_root():
        _DEFAULT = TraceStore()
    return _DEFAULT
