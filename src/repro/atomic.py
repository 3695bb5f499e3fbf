"""Whole-or-absent file writes.

:func:`atomic_write` is the one temp-file + ``os.replace`` sequence
the package writes files through: trace payloads, sweep-result
entries, run-journal records and telemetry's ``metrics.json``.  It
raises ``OSError``; each caller decides whether a failed write is
fatal (journal, telemetry) or a skipped cache fill (store, result
cache).  A leaf module: it imports nothing from the package, so
telemetry can use it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(path: Path, data: bytes) -> None:
    """Put *data* at *path* whole, or leave *path* as it was.

    The bytes go to a temp file in the target's directory (created if
    missing), which ``os.replace`` then renames over *path*, so a
    reader sees the old file or the new one and never a torn write.
    Two writers racing on one path are safe: the last rename wins.  On
    any failure the temp file is removed and the error propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
