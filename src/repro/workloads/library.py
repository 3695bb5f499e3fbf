"""The trace library: sharded payload layout plus the result cache.

This module holds the two layout-level services the trace store
composes:

:class:`TraceLibrary`
    The on-disk *shape* of the store: payloads live under
    ``shards/<key[:2]>/`` (256-way fan-out by the leading content-key
    byte), each beside its JSON sidecar.  The payload files are the
    only index: every listing scans the shard directories.  ``gc``
    sweeps litter (temp files, orphan sidecars, empty shards) and
    never touches a payload.

:class:`ResultCache`
    Disk memoization of sweep *results* keyed by the caller-computed
    content key (trace key + spec hash + semantics + engine version;
    see :func:`repro.sweep.runner.result_cache_key` -- this module
    never imports the sweep layer).  Entries are JSON documents under
    ``results/<key[:2]>/``, each behind a CRC32 header line, written
    atomically, read through the ``store.result_cache`` injection site
    (an entry that fails its checksum or does not parse is a clean
    miss, never an error), and evicted LRU by a byte budget (a
    constructor argument, default 256 MiB) where "recently used" is
    the file mtime, refreshed on every hit.  Disable entirely with
    ``REPRO_RESULT_CACHE=0``.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro import faults, telemetry

#: Subdirectory names under the store root.
SHARDS_DIR = "shards"
RESULTS_DIR = "results"

#: The result cache's default byte budget: enough for ~10^4
#: paper-grid surfaces, small next to one full-scale trace payload.
DEFAULT_RESULT_BUDGET = 256 * 1024 * 1024

ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"

#: A result-cache entry starts with the CRC32 of the rest of the file
#: as eight lowercase hex digits and a newline.
_HEADER_BYTES = 9


def _crc_header(body: bytes) -> bytes:
    return b"%08x\n" % zlib.crc32(body)


def _atomic_write(path: Path, blob: bytes) -> bool:
    """tmp + ``os.replace`` under the target's directory; False on
    any OS failure (cache writes are best-effort)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
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
    except OSError:
        return False
    return True


class TraceLibrary:
    """The sharded layout of one store root.

    Stateless between calls: every method works off the directory
    tree, so concurrent writers (two runs racing on the same
    generation) can interleave harmlessly.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    # -- layout ----------------------------------------------------------

    def shard_dir(self, key: str) -> Path:
        return self.root / SHARDS_DIR / key[:2]

    def shard_path(self, filename: str, key: str) -> Path:
        """Where a payload named *filename* with content *key* lives."""
        return self.shard_dir(key) / filename

    def payload_paths(self) -> Iterator[Path]:
        """Every payload in the library, shard by shard, sorted by
        name."""
        shards = self.root / SHARDS_DIR
        if shards.is_dir():
            for shard in sorted(shards.iterdir()):
                if shard.is_dir():
                    yield from sorted(shard.glob("*.trace"))

    def gc(self) -> dict:
        """Sweep litter: orphan sidecars (no payload -- this includes
        the ``manifest.json`` / ``catalog.json`` indexes older stores
        kept), leftover ``*.tmp`` files from interrupted atomic
        writes, and empty shard directories.  Payloads themselves are
        never touched --
        deleting cached traces is what eviction policies are for, and
        the trace store deliberately has none (content-keyed entries
        are immutable and always valid)."""
        report = {"orphan_sidecars": [], "tmp_files": [],
                  "empty_shards": []}
        directories = [self.root]
        shards = self.root / SHARDS_DIR
        if shards.is_dir():
            directories += [d for d in sorted(shards.iterdir())
                            if d.is_dir()]
        for directory in directories:
            for tmp in sorted(directory.glob("*.tmp")):
                try:
                    tmp.unlink()
                    report["tmp_files"].append(tmp.name)
                except OSError:
                    pass
            for sidecar in sorted(directory.glob("*.json")):
                if not sidecar.with_suffix(".trace").exists():
                    try:
                        sidecar.unlink()
                        report["orphan_sidecars"].append(sidecar.name)
                    except OSError:
                        pass
        if shards.is_dir():
            for shard in sorted(shards.iterdir()):
                if not shard.is_dir() or any(shard.iterdir()):
                    continue
                try:
                    shard.rmdir()
                    report["empty_shards"].append(shard.name)
                except OSError:
                    pass
        return report

    def stats(self) -> dict:
        """Layout-level numbers for ``repro store stats``."""
        payloads = payload_bytes = 0
        shard_names = set()
        for path in self.payload_paths():
            try:
                payload_bytes += path.stat().st_size
            except OSError:
                continue
            payloads += 1
            shard_names.add(path.parent.name)
        return {
            "root": str(self.root),
            "payloads": payloads,
            "shards": len(shard_names),
            "payload_bytes": payload_bytes,
        }


class ResultCache:
    """Content-keyed disk memoization of sweep result surfaces.

    The key is computed by the caller (the sweep runner) and is
    opaque here; this class only handles placement (sharded like the
    trace payloads), atomicity, the miss-on-corruption rule, LRU
    eviction by byte budget, and telemetry.
    """

    def __init__(self, root: os.PathLike,
                 budget_bytes: int = DEFAULT_RESULT_BUDGET) -> None:
        self.root = Path(root) / RESULTS_DIR
        self.budget_bytes = budget_bytes
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    @staticmethod
    def enabled() -> bool:
        """False when ``REPRO_RESULT_CACHE=0`` (or ``off``/``false``)
        disables result memoization for the process."""
        return os.environ.get(ENV_RESULT_CACHE, "1").strip().lower() \
            not in ("0", "off", "false", "no")

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for *key*, or None on a miss.

        Any failure -- missing file, injected or real IO error, a
        header that does not match the CRC32 of the JSON bytes (a
        flipped bit, a torn write, an entry from before the checksum),
        JSON that does not parse -- is a clean miss: the caller
        replays the sweep and overwrites the entry.  A hit refreshes
        the entry's mtime, which is the LRU clock eviction sorts by.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
            blob = faults.inject("store.result_cache", key=key,
                                 payload=blob)
            header, body = blob[:_HEADER_BYTES], blob[_HEADER_BYTES:]
            if header != _crc_header(body):
                raise ValueError("result-cache entry failed its CRC32")
            document = json.loads(body.decode("utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            telemetry.inc("result_cache.miss")
            return None
        if not isinstance(document, dict):
            self.misses += 1
            telemetry.inc("result_cache.miss")
            return None
        self.hits += 1
        telemetry.inc("result_cache.hit")
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass
        return document

    def put(self, key: str, payload: dict) -> None:
        """Store *payload* under *key* (atomic, best-effort), then
        enforce the byte budget."""
        body = (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        if not _atomic_write(self.path_for(key), _crc_header(body) + body):
            return
        telemetry.inc("result_cache.put")
        self.evict()

    def _entries(self) -> List[Tuple[int, int, Path]]:
        """(mtime_ns, bytes, path) for every cache entry.

        Nanosecond mtime, not the float seconds: coarse-granularity
        filesystems (FAT, some network mounts, ext timestamps after a
        float round-trip) stamp whole batches of puts with the same
        second, and a float clock would then order eviction by
        whatever the directory scan happened to yield.
        """
        out = []
        if not self.root.is_dir():
            return out
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                out.append((stat.st_mtime_ns, stat.st_size, path))
        return out

    def evict(self) -> int:
        """Drop least-recently-used entries until under budget.

        Returns how many entries were removed.  Nanosecond mtime is
        the LRU clock (refreshed by :meth:`get`); exact ties -- same
        stamp on a coarse-granularity filesystem -- break by the
        entry's filename (the content key, unique and root-relative),
        so two processes evicting concurrently converge on the same
        survivors regardless of scan order or where the root is
        mounted.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for mtime_ns, size, path in sorted(
                entries, key=lambda item: (item[0], item[2].name)):
            if total <= self.budget_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            self.evicted += 1
            telemetry.inc("result_cache.evict")
        return removed

    def clear(self) -> int:
        """Remove every entry (CLI maintenance); the count removed."""
        removed = 0
        for _, _, path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "budget_bytes": self.budget_bytes,
            "enabled": self.enabled(),
        }
