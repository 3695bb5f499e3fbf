"""The on-disk trace store: generate a workload once, load it forever.

Every consumer of the section-5 measurement traces (harness,
benchmarks, tests, examples) used to re-run the Fith interpreter from
scratch -- seconds of pure regeneration per process.  The store keys
each materialized trace by ``(spec name, parameters, generator
version)`` -- hashed into a content key -- and keeps it under
``.repro_traces/`` (override with ``REPRO_TRACE_DIR`` or the ``root``
argument) in the columnar binary format of
:mod:`repro.trace.columnar`.

Layout: one flat directory, and the files are the store's only
record.  Payloads live at ``<root>/<name>-<key>.trace``; listings,
``verify``, ``stats`` and ``gc`` glob them.  The key is hex, so the
workload name is the file stem up to its last hyphen.  Sweep results
are memoized under ``results/`` by the
:class:`~repro.workloads.library.ResultCache`, and corrupt payloads
go to ``quarantine/``.  A payload in an older layout (under
``shards/``) is a cache miss: the trace regenerates at the root and
the old file is left alone.

Load path: one, for every host and every run, with or without a
fault plan.  A hit reads the payload's bytes -- one file -- passes
them through the ``store.read`` fault site and decodes them with
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
* **write** -- through :func:`repro.atomic.atomic_write` (temp file +
  ``os.replace``), so concurrent writers (two runs sharing a store)
  can race harmlessly: last atomic rename wins and both contents are
  identical by construction.  A failed write is not an error: the
  store is a cache.
* **read** -- a file in a *legacy or foreign format* (wrong magic,
  old payload version) is a clean miss and regenerated in place.  A
  file in the *current* format that fails its integrity check (length
  or a CRC32 block trailer; see payload v3 in
  :mod:`repro.trace.columnar`) is **quarantined**: moved to
  ``quarantine/`` under the store root with a ``.reason.json``
  beside it recording why, then regenerated.  Corruption is evidence
  of a disk/transfer problem -- it is preserved for inspection, never
  silently destroyed.  ``TraceStore.verify()`` (CLI: ``repro store
  verify``) audits every payload in the store the same way.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro import faults, telemetry
from repro.atomic import atomic_write
from repro.errors import PayloadFormatError, StoreCorruption
from repro.trace.columnar import FORMAT_VERSION, Trace
from repro.workloads.library import ResultCache
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
        self.hits = 0
        self.misses = 0
        self.generated = 0
        self.quarantined = 0
        self._memo: Dict[str, Trace] = {}

    # -- keying ---------------------------------------------------------

    @staticmethod
    def key_for(spec: WorkloadSpec, params: Mapping[str, object]) -> str:
        identity = json.dumps(
            {"name": spec.name, "version": spec.version,
             "format": FORMAT_VERSION, "params": dict(params)},
            sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(identity.encode()).hexdigest()[:20]

    def path_for(self, spec: WorkloadSpec,
                 params: Mapping[str, object]) -> Path:
        """The location of one trace payload."""
        return self._payload_path(spec.name, self.key_for(spec, params))

    def _payload_path(self, name: str, key: str) -> Path:
        return self.root / f"{name}-{key}.trace"

    def _payload_paths(self) -> List[Path]:
        """Every payload in the store (regular files only), sorted by
        file name."""
        return sorted(path for path in self.root.glob("*.trace")
                      if path.is_file())

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
            else:
                self.misses += 1
                self.generated += 1
                telemetry.inc("store.miss")
                telemetry.inc("store.generated")
                events = spec.generate(params)
                self._write(path, events)
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
        """Move a corrupt payload into ``quarantine/``.

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
        try:
            (qdir / f"{path.name}.reason.json").write_text(json.dumps(
                {"file": path.name, "reason": reason,
                 "quarantined_at": time.strftime(
                     "%Y-%m-%dT%H:%M:%S%z")},
                indent=2, sort_keys=True) + "\n")
        except OSError:
            pass
        return destination

    def verify(self) -> dict:
        """Audit every payload in the store; quarantine the corrupt.

        Returns ``{"checked", "ok", "stale", "corrupt",
        "unreadable"}`` where ``stale`` lists legacy-format files
        (harmless misses, left in place), ``corrupt`` lists ``(name,
        reason)`` pairs for current-format payloads that failed
        integrity and were moved to quarantine, and ``unreadable``
        lists ``(name, reason)`` pairs for payloads left in place: the
        ones whose read raised :class:`OSError` and the corrupt ones
        quarantine could not move.
        """
        report = {"checked": 0, "ok": 0, "stale": [], "corrupt": [],
                  "unreadable": []}
        for path in self._payload_paths():
            report["checked"] += 1
            try:
                self.deserialize(path.read_bytes())
            except PayloadFormatError:
                report["stale"].append(path.name)
            except StoreCorruption as error:
                if self.quarantine(path, error.reason) is None:
                    report["unreadable"].append(
                        (path.name, f"{error.reason} (could not move it "
                                    f"to quarantine)"))
                else:
                    report["corrupt"].append((path.name, error.reason))
            except OSError as error:
                report["unreadable"].append((path.name, str(error)))
            else:
                report["ok"] += 1
        return report

    def _write(self, path: Path, events: Trace) -> None:
        try:
            with telemetry.span("store.write", file=path.name) as sp:
                blob = events.to_bytes()
                blob = faults.inject("store.write", key=path.name,
                                     payload=blob)
                sp.set(bytes=len(blob))
                atomic_write(path, blob)
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

    # -- introspection --------------------------------------------------

    def cached_names(self) -> Dict[str, int]:
        """workload name -> number of materialized parameterizations.

        Counts payload file names without reading them, so a corrupt
        payload counts until a load or ``verify`` quarantines it.
        """
        return Counter(path.stem.rsplit("-", 1)[0]
                       for path in self._payload_paths())

    def stats(self) -> dict:
        """Payload + result-cache numbers for ``repro store stats``."""
        payloads = payload_bytes = 0
        for path in self._payload_paths():
            try:
                payload_bytes += path.stat().st_size
            except OSError:
                continue
            payloads += 1
        return {
            "root": str(self.root),
            "payloads": payloads,
            "payload_bytes": payload_bytes,
            "quarantined": len(list(
                (self.root / QUARANTINE_DIR).glob("*.trace"))),
            "result_cache": self.result_cache().stats(),
        }

    def gc(self) -> List[str]:
        """Remove the ``*.tmp`` files interrupted writes left at the
        root and in the result cache; their paths relative to the
        root.  Never touches a payload or a result entry."""
        removed = []
        for directory in (self.root, self.result_cache().root):
            for tmp in sorted(directory.glob("*.tmp")):
                try:
                    tmp.unlink()
                except OSError:
                    continue
                removed.append(str(tmp.relative_to(self.root)))
        return removed
