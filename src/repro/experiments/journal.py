"""Crash-safe run journal: atomic per-experiment result records.

A harness run that dies halfway (crash, OOM, ^C) used to lose
every completed result.  The journal writes one record per finished
experiment under ``.repro_runs/<run-key>/`` (override the root with
``REPRO_RUN_DIR`` or the ``--run-dir`` flag) the moment it completes,
via :func:`repro.atomic.atomic_write`, as the trace store writes its
payloads, so a record is either fully present or absent -- never torn.

``repro run --resume`` replays the journal: experiments with a valid
record for the *same run key* are served from disk and skipped.  The
run key is a hash of everything that could change a result -- scale,
quick mode, the selected suite, the trace directory -- so a resume
can never stitch together results from two different runs.

Records are pickles of :class:`~repro.experiments.common
.ExperimentResult` (plain dataclasses).  A truncated or unreadable
record (the crash may have hit mid-replace on exotic filesystems) is
treated as absent and deleted.  Failure placeholders are never
journaled: a resumed run retries what did not complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro import telemetry
from repro.atomic import atomic_write
from repro.experiments.common import ExperimentResult

_RECORD_SUFFIX = ".result"


def run_key(*, scale: int, quick: bool, suite: Sequence[str],
            trace_dir: Optional[str]) -> str:
    """Hash of the run identity; resume only matches identical runs."""
    identity = json.dumps(
        {"scale": scale, "quick": quick, "suite": list(suite),
         "trace_dir": trace_dir},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(identity.encode()).hexdigest()[:16]


class RunJournal:
    """Per-experiment result records for one run identity."""

    def __init__(self, key: str, root: Optional[os.PathLike] = None,
                 manifest: Optional[dict] = None) -> None:
        self.key = key
        self.root = (Path(root) if root is not None
                     else telemetry.default_run_root())
        self.directory = self.root / key
        self._manifest = dict(manifest or {})

    # -- record naming ---------------------------------------------------

    def _record_path(self, exp_id: str) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_"
                       for ch in exp_id)
        return self.directory / f"{safe}{_RECORD_SUFFIX}"

    # -- lifecycle -------------------------------------------------------

    def start(self, *, resume: bool) -> Dict[str, ExperimentResult]:
        """Open the journal; returns the completed records.

        Without ``resume`` any stale records for this key are cleared
        first, so the returned dict is empty and the run starts
        fresh.
        """
        if not resume:
            self.clear()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_manifest()
        if not resume:
            return {}
        with telemetry.span("journal.resume", run=self.key) as sp:
            done = self.completed()
            sp.set(served=len(done))
        return done

    def _write_manifest(self) -> None:
        manifest = dict(self._manifest)
        manifest.setdefault("key", self.key)
        manifest["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        try:
            (self.directory / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass  # the manifest is documentation, not state

    def record(self, exp_id: str, result: ExperimentResult) -> None:
        """Atomically persist one completed experiment's result."""
        with telemetry.span("journal.record", experiment=exp_id):
            atomic_write(self._record_path(exp_id),
                         pickle.dumps((exp_id, result),
                                      protocol=pickle.HIGHEST_PROTOCOL))
            telemetry.inc("journal.records")

    def completed(self) -> Dict[str, ExperimentResult]:
        """exp id -> journaled result, skipping unreadable records."""
        out: Dict[str, ExperimentResult] = {}
        if not self.directory.is_dir():
            return out
        for path in sorted(self.directory.glob(f"*{_RECORD_SUFFIX}")):
            try:
                exp_id, result = pickle.loads(path.read_bytes())
            except Exception:
                # Torn or stale record: absent, and not worth keeping.
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            if isinstance(exp_id, str) \
                    and isinstance(result, ExperimentResult):
                out[exp_id] = result
        return out

    def clear(self) -> None:
        """Drop every record (and temp debris) for this run key.

        Subdirectories -- notably the run's ``telemetry/`` sink --
        are removed too: a fresh (non-resume) run must not inherit a
        previous run's spans or metrics.
        """
        if not self.directory.is_dir():
            return
        for path in self.directory.iterdir():
            try:
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink()
            except OSError:
                pass
