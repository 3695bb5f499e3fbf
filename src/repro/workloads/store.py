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

Load path: one, for every host and every run, with or without a
fault plan.  A hit reads the payload's bytes, passes them through the
``store.read`` fault site and decodes them with
:meth:`TraceStore.deserialize`
(:meth:`~repro.trace.columnar.Trace.from_bytes`), which checks every
block's CRC32 before it builds a column.  The loaded trace owns its
columns, so it stays valid after :meth:`TraceStore.close`.

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
  silently destroyed.  ``TraceStore.verify()`` (CLI: ``repro store
  verify``) audits every payload in the store the same way, and
  additionally cross-checks each sidecar's recorded identity
  against the content key in the filename, *reporting* (never
  quarantining) sidecars that misdescribe a healthy payload.

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
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro import faults, telemetry
from repro.errors import PayloadFormatError, StoreCorruption
from repro.trace.columnar import FORMAT_VERSION, Trace
from repro.workloads.library import ResultCache, TraceLibrary
from repro.workloads.spec import WorkloadSpec, get as get_spec

#: Subdirectory (under the store root) corrupt payloads are moved to.
QUARANTINE_DIR = "quarantine"


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
                sp.set(outcome="hit", events=len(events))
                if self._read_sidecar(path) is None:
                    self._write_sidecar(path, self._sidecar_meta(
                        spec.name, spec.version, params, events))
            else:
                self.misses += 1
                self.generated += 1
                telemetry.inc("store.miss")
                telemetry.inc("store.generated")
                events = spec.generate(params)
                self._write(path, spec, params, events)
                sp.set(outcome="generated", events=len(events))
        events.store_key = key
        events.store_root = str(self.root)
        self._memo[key] = events
        return events

    # -- binary format --------------------------------------------------

    @staticmethod
    def deserialize(blob: bytes) -> Trace:
        """Columns straight from the payload."""
        return Trace.from_bytes(blob)

    def _read(self, path: Path) -> Optional[Trace]:
        """Decode one stored payload, or None for a miss.

        The store's one read path, with or without a fault plan: the
        file's bytes pass the ``store.read`` fault site, then
        :meth:`deserialize`.  Only *payload-decode* failures are
        misses: an unreadable file or a legacy/foreign format
        (``PayloadFormatError``).  A current-format payload that fails
        its integrity check is quarantined (still a miss, but
        preserved and counted), and any other exception -- a genuine
        programming error -- is NOT swallowed: it propagates.
        """
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

    def _sidecar_mismatch(self, path: Path,
                          trace: Trace) -> Optional[str]:
        """Why this payload's sidecar misdescribes it, or None.

        Cross-checks (a) the sidecar's recorded identity against the
        content key in the filename -- only when every parameter
        survived the sidecar round-trip as a JSON primitive, since
        ``repr``-stringified parameters cannot be re-keyed faithfully
        -- and (b) the recorded event/dispatched counts against
        *trace*, the payload as the audit decoded it.  A mismatch
        means the *sidecar* is stale (the payload already passed its
        CRC audit); it is reported for repair, never quarantined.
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
                trace = self.deserialize(path.read_bytes())
            except PayloadFormatError:
                report["stale"].append(path.name)
            except StoreCorruption as error:
                self.quarantine(path, error.reason)
                report["corrupt"].append((path.name, error.reason))
            except OSError as error:
                report["corrupt"].append((path.name, str(error)))
            else:
                report["ok"] += 1
                mismatch = self._sidecar_mismatch(path, trace)
                if mismatch is not None:
                    report["mismatched"].append((path.name, mismatch))
        return report

    def _write(self, path: Path, spec: WorkloadSpec,
               params: Mapping[str, object], events: Trace) -> None:
        try:
            with telemetry.span("store.write", file=path.name) as sp:
                path.parent.mkdir(parents=True, exist_ok=True)
                blob = events.to_bytes()
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
        """Drop the in-process memo; the next :meth:`load` of a trace
        reads its payload again.  Traces already handed out own their
        columns and stay valid.  Idempotent."""
        self._memo.clear()

    # -- sidecar metadata -----------------------------------------------

    @staticmethod
    def _sidecar_meta(name: str, version,
                      params: Optional[Mapping[str, object]],
                      trace: Trace) -> dict:
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


_DEFAULT: Optional[TraceStore] = None


def default_store() -> TraceStore:
    """The process-wide store rooted at :func:`default_root`."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.root != default_root():
        _DEFAULT = TraceStore()
    return _DEFAULT
