"""The whole-or-absent write helper and its best-effort store caller.

A write whose final ``os.replace`` fails must leave the old file
byte-identical and no ``*.tmp`` behind.  The helper raises; a trace
store write swallows the error, because the store is a cache.
"""

import os

import pytest

from repro.atomic import atomic_write
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import TraceStore
from trace_helpers import trace_of


def _failing_replace(src, dst):
    raise OSError("injected: replace failed")


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "entry.bin"
    atomic_write(path, b"old bytes")
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="injected"):
        atomic_write(path, b"new bytes")
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == ["entry.bin"]


def test_failed_store_write_does_not_fail_the_load(tmp_path,
                                                    monkeypatch):
    events = trace_of((i, 1 + i % 3, i % 5, bool(i % 2))
                      for i in range(32))
    spec = WorkloadSpec(name="synthetic", description="test-only",
                        build=lambda: events)
    store = TraceStore(tmp_path)
    path = store.path_for(spec, spec.resolve())
    # A stale-format file at the payload path: a miss, so the load
    # regenerates and tries to write over it.
    stale = b"RTRC\x02" + b"\x00" * 32
    path.write_bytes(stale)
    monkeypatch.setattr(os, "replace", _failing_replace)
    assert store.load(spec) == events
    assert store.generated == 1
    assert path.read_bytes() == stale
    assert os.listdir(tmp_path) == [path.name]
