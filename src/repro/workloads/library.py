"""The sweep-result cache: one file per result surface.

:class:`ResultCache` memoizes sweep *results* on disk, keyed by the
caller-computed content key (trace key + spec hash + semantics +
engine version; see :func:`repro.sweep.runner.result_cache_key` --
this module never imports the sweep layer).  Each entry is a JSON
document at ``results/<key>.json`` under the store root, behind a
CRC32 header line, written atomically and read through the
``store.result_cache`` injection site: an entry that fails its
checksum or does not parse is a clean miss, never an error.

Nothing is ever evicted.  Like the trace payloads, an entry is
content-keyed and immutable, so it can only go stale by missing, and
an entry is about 1 KB.  Disable the cache with
``REPRO_RESULT_CACHE=0``; :meth:`ResultCache.clear` empties it.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Optional

from repro import faults, telemetry
from repro.atomic import atomic_write

#: The result cache's subdirectory under the store root.
RESULTS_DIR = "results"

ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"

#: A result-cache entry starts with the CRC32 of the rest of the file
#: as eight lowercase hex digits and a newline.
_HEADER_BYTES = 9


def _crc_header(body: bytes) -> bytes:
    return b"%08x\n" % zlib.crc32(body)


class ResultCache:
    """Content-keyed disk memoization of sweep result surfaces.

    The key is computed by the caller (the sweep runner) and is
    opaque here; this class only handles placement, atomicity, the
    miss-on-corruption rule and telemetry.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root) / RESULTS_DIR

    @staticmethod
    def enabled() -> bool:
        """False when ``REPRO_RESULT_CACHE=0`` (or ``off``/``false``)
        disables result memoization for the process."""
        return os.environ.get(ENV_RESULT_CACHE, "1").strip().lower() \
            not in ("0", "off", "false", "no")

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for *key*, or None on a miss.

        Any failure -- missing file, injected or real IO error, a
        header that does not match the CRC32 of the JSON bytes (a
        flipped bit, a torn write, an entry from before the checksum),
        JSON that does not parse -- is a clean miss: the caller
        replays the sweep and overwrites the entry.
        """
        try:
            blob = self.path_for(key).read_bytes()
            blob = faults.inject("store.result_cache", key=key,
                                 payload=blob)
            header, body = blob[:_HEADER_BYTES], blob[_HEADER_BYTES:]
            if header != _crc_header(body):
                raise ValueError("result-cache entry failed its CRC32")
            document = json.loads(body.decode("utf-8"))
        except (OSError, ValueError):
            document = None
        if not isinstance(document, dict):
            telemetry.inc("result_cache.miss")
            return None
        telemetry.inc("result_cache.hit")
        return document

    def put(self, key: str, payload: dict) -> None:
        """Store *payload* under *key*: atomic, and best-effort -- a
        failed write leaves a miss, never an error."""
        body = (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        try:
            atomic_write(self.path_for(key), _crc_header(body) + body)
        except OSError:
            return
        telemetry.inc("result_cache.put")

    def clear(self) -> int:
        """Remove every entry (CLI maintenance); the count removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        entries = size = 0
        for path in self.root.glob("*.json"):
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            "enabled": self.enabled(),
        }
