"""Payload-v3 integrity: CRC fuzzing, quarantine, and store.verify.

The satellite requirement: for a valid payload, *every* single-bit
flip and *every* truncation must be detected -- either as a
:class:`~repro.errors.PayloadFormatError` (the damage hit the magic
or version, so the bytes no longer claim to be a current payload; a
clean miss) or as a :class:`~repro.errors.StoreCorruption` (a
recognized payload failed its length or CRC32 checks; quarantined).
No damaged payload may ever silently decode.
"""

import json

import pytest

from repro import faults
from repro.errors import PayloadFormatError, StoreCorruption
from repro.faults import FaultPlan
from repro.trace.columnar import FORMAT_VERSION, Trace
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import QUARANTINE_DIR, TraceStore
from trace_helpers import trace_of


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.setattr(faults, "_ACTIVE", None)
    yield
    faults.install(None)


def _events(n=17):
    return trace_of(((i * 37) % 251 - 17, i % 9, (i * 5) % 11,
                     bool(i % 3)) for i in range(n))


def _spec(counter, name="synthetic"):
    def build(length=32):
        counter["runs"] += 1
        return trace_of((i % 8, 1 + i % 3, i % 5, bool(i % 2))
                        for i in range(length))
    return WorkloadSpec(name=name, description="test-only",
                        build=build, defaults={"length": 32})


class TestPayloadFuzz:
    """Exhaustive single-bit-flip and truncation detection."""

    def test_clean_round_trip(self):
        events = _events()
        blob = events.to_bytes()
        assert blob[4] == FORMAT_VERSION == 3
        assert TraceStore.deserialize(blob) == events

    def test_every_single_bit_flip_is_detected(self):
        blob = bytearray(_events().to_bytes())
        for offset in range(len(blob)):
            for bit in range(8):
                blob[offset] ^= 1 << bit
                with pytest.raises((PayloadFormatError,
                                    StoreCorruption)):
                    TraceStore.deserialize(bytes(blob))
                blob[offset] ^= 1 << bit  # restore

    def test_every_truncation_is_detected(self):
        blob = _events().to_bytes()
        for length in range(len(blob)):
            with pytest.raises((PayloadFormatError, StoreCorruption)):
                TraceStore.deserialize(blob[:length])

    def test_every_extension_is_detected(self):
        blob = _events().to_bytes()
        for extra in (b"\x00", b"junk", blob):
            with pytest.raises(StoreCorruption):
                TraceStore.deserialize(blob + extra)

    def test_empty_trace_round_trips_and_fuzzes_clean(self):
        blob = bytearray(trace_of([]).to_bytes())
        assert len(TraceStore.deserialize(bytes(blob))) == 0
        for offset in range(len(blob)):
            blob[offset] ^= 0xFF
            with pytest.raises((PayloadFormatError, StoreCorruption)):
                TraceStore.deserialize(bytes(blob))
            blob[offset] ^= 0xFF


class TestLegacyFormats:
    """v1/v2 files (and foreign bytes) are clean misses, never
    corruption and never a misread."""

    def _v2_blob(self, n=8):
        # The PR-5 layout: header + three raw int columns + bitset,
        # no CRC trailers.
        import zlib  # noqa: F401 (documentation: v2 had no CRCs)
        columns = b"\x00" * (3 * 4 * n)
        bits = b"\x00" * ((n + 7) >> 3)
        return b"RTRC\x02" + n.to_bytes(4, "little") + columns + bits

    @pytest.mark.parametrize("blob", [
        b"",
        b"RT",
        b"not a trace at all",
        b"RTRC\x01" + b"\x00" * 260,              # v1 array-of-structs
        b"RTRC\x63" + b"\x00" * 64,               # future version
    ], ids=["empty", "short", "foreign", "v1", "future"])
    def test_non_v3_bytes_are_format_errors(self, blob):
        with pytest.raises(PayloadFormatError):
            TraceStore.deserialize(blob)

    def test_v2_payload_is_a_format_error(self):
        with pytest.raises(PayloadFormatError):
            TraceStore.deserialize(self._v2_blob())

    def test_legacy_file_is_a_clean_miss_no_quarantine(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        path = store.path_for(spec, spec.resolve())
        store.load(spec)
        path.write_bytes(self._v2_blob())
        fresh = TraceStore(tmp_path)
        assert len(fresh.load(spec)) == 32
        assert counter["runs"] == 2          # regenerated in place
        assert fresh.quarantined == 0
        assert not (tmp_path / QUARANTINE_DIR).exists()


class TestQuarantine:
    def _corrupt_stored(self, tmp_path, counter):
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        path = store.path_for(spec, spec.resolve())
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        return spec, path

    def test_corrupt_payload_is_quarantined_and_regenerated(
            self, tmp_path):
        counter = {"runs": 0}
        spec, path = self._corrupt_stored(tmp_path, counter)
        fresh = TraceStore(tmp_path)
        events = fresh.load(spec)
        assert len(events) == 32 and counter["runs"] == 2
        assert fresh.quarantined == 1
        # The corrupt bytes were preserved as evidence, with a
        # reason sidecar, and the live path regenerated.
        moved = tmp_path / QUARANTINE_DIR / path.name
        assert moved.exists()
        reason = json.loads(
            (tmp_path / QUARANTINE_DIR /
             f"{path.name}.reason.json").read_text())
        assert "CRC32" in reason["reason"] or "expected" in \
            reason["reason"]
        assert path.exists()  # regenerated, valid again
        assert TraceStore(tmp_path).load(spec) == events

    def test_quarantined_files_are_not_entries(self, tmp_path):
        counter = {"runs": 0}
        spec, path = self._corrupt_stored(tmp_path, counter)
        fresh = TraceStore(tmp_path)
        fresh.load(spec)
        # The regenerated payload only.
        assert TraceStore(tmp_path).cached_names() == {"synthetic": 1}

    def test_verify_audits_and_quarantines(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        good = _spec(counter, name="good")
        bad = _spec(counter, name="bad")
        store.load(good)
        store.load(bad)
        bad_path = store.path_for(bad, bad.resolve())
        blob = bytearray(bad_path.read_bytes())
        blob[-1] ^= 0x01
        bad_path.write_bytes(bytes(blob))
        stale = tmp_path / "stale-0000.trace"
        stale.write_bytes(b"RTRC\x02" + b"\x00" * 32)
        report = TraceStore(tmp_path).verify()
        assert report["checked"] == 3
        assert report["ok"] == 1
        assert report["stale"] == ["stale-0000.trace"]
        assert [name for name, _ in report["corrupt"]] == \
            [bad_path.name]
        assert (tmp_path / QUARANTINE_DIR / bad_path.name).exists()

    def test_verify_decodes_each_payload_once(self, tmp_path,
                                              monkeypatch):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        for name in ("first", "second", "third"):
            store.load(_spec(counter, name=name))
        decodes = []

        def counting(blob):
            decodes.append(len(blob))
            return Trace.from_bytes(blob)

        monkeypatch.setattr(TraceStore, "deserialize",
                            staticmethod(counting))
        report = TraceStore(tmp_path).verify()
        assert (report["checked"], report["ok"]) == (3, 3)
        assert len(decodes) == 3

    def test_trace_verify_cli(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 0
        assert "corrupt:     0" in capsys.readouterr().out
        path = store.path_for(spec, spec.resolve())
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0x80
        path.write_bytes(bytes(blob))
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "quarantine" in out and path.name in out
        # The audit moved it; a second audit is clean.
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 0

    def test_verify_and_stats_skip_a_directory_named_like_a_payload(
            self, tmp_path, capsys):
        from repro.cli import main as cli_main
        TraceStore(tmp_path).load(_spec({"runs": 0}))
        (tmp_path / "odd-0000.trace").mkdir()
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "checked:     1 payload(s)" in out
        assert "moved to" not in out and "odd-0000" not in out
        assert not (tmp_path / QUARANTINE_DIR).exists()
        assert cli_main(["store", "stats",
                         "--trace-dir", str(tmp_path)]) == 0
        assert "payloads:     1," in capsys.readouterr().out
        assert TraceStore(tmp_path).cached_names() == {"synthetic": 1}

    def test_verify_leaves_an_unreadable_payload_in_place(
            self, tmp_path, capsys, monkeypatch):
        from pathlib import Path

        from repro.cli import main as cli_main
        spec = _spec({"runs": 0})
        store = TraceStore(tmp_path)
        store.load(spec)
        path = store.path_for(spec, spec.resolve())
        read_bytes = Path.read_bytes

        def failing(self):
            if self.name == path.name:
                raise PermissionError(13, "Permission denied")
            return read_bytes(self)

        # A superuser reads any file whatever its mode, so the
        # failure is patched in rather than made with chmod.
        monkeypatch.setattr(Path, "read_bytes", failing)
        report = TraceStore(tmp_path).verify()
        assert report["corrupt"] == []
        assert [name for name, _ in report["unreadable"]] == [path.name]
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "unreadable:  1 payload(s) (left in place)" in out
        assert "Permission denied" in out and "moved to" not in out
        assert path.exists()
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_verify_lists_a_corrupt_payload_it_could_not_move(
            self, tmp_path, monkeypatch):
        import os

        spec = _spec({"runs": 0})
        store = TraceStore(tmp_path)
        store.load(spec)
        path = store.path_for(spec, spec.resolve())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))

        def refuse(source, destination):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        report = TraceStore(tmp_path).verify()
        assert report["corrupt"] == []
        assert [name for name, _ in report["unreadable"]] == [path.name]
        assert path.exists()

    def test_trace_cli_requires_name_without_verify(self, tmp_path,
                                                    capsys):
        from repro.cli import main as cli_main
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["trace", "--trace-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "required: name" in capsys.readouterr().err


class TestNarrowedMissHandling:
    """The old ``except (OSError, ValueError)`` swallowed *any*
    ValueError as a miss; only payload-decode failures may be."""

    def test_programming_errors_propagate(self, tmp_path,
                                          monkeypatch):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        fresh = TraceStore(tmp_path)

        def buggy(blob):
            raise ValueError("a genuine bug, not a decode failure")

        monkeypatch.setattr(TraceStore, "deserialize",
                            staticmethod(buggy))
        with pytest.raises(ValueError, match="genuine bug"):
            fresh.load(spec)

    def test_unreadable_file_is_still_a_miss(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        path = store.path_for(spec, spec.resolve())
        path.unlink()
        path.mkdir()  # read_bytes -> IsADirectoryError (an OSError)
        fresh = TraceStore(tmp_path)
        # Regeneration succeeds in memory even though persisting
        # under the directory-shaped path cannot.
        assert len(fresh.load(spec)) == 32
        assert counter["runs"] == 2


class TestInjectionSites:
    """The store's chaos hooks: store.read / store.write."""

    def test_injected_read_corruption_quarantines_and_recovers(
            self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        baseline = TraceStore(tmp_path)
        baseline.load(spec)
        clean = baseline.path_for(spec, spec.resolve()).read_bytes()
        faults.install(FaultPlan.parse("store.read:corrupt:times=1",
                                       seed=11))
        fresh = TraceStore(tmp_path)
        events = fresh.load(spec)
        # The corrupted read was detected, the (actually clean) file
        # quarantined, and the trace regenerated byte-identically.
        assert fresh.quarantined == 1
        assert counter["runs"] == 2
        assert events.to_bytes() == clean

    def test_injected_read_io_error_is_a_miss(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)
        faults.install(FaultPlan.parse("store.read:io-error:times=1",
                                       seed=11))
        fresh = TraceStore(tmp_path)
        assert len(fresh.load(spec)) == 32
        assert counter["runs"] == 2
        assert fresh.quarantined == 0

    def test_injected_write_corruption_is_caught_on_next_read(
            self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        faults.install(FaultPlan.parse("store.write:corrupt:times=1",
                                       seed=11))
        first = TraceStore(tmp_path)
        events = first.load(spec)       # written corrupt behind us
        assert counter["runs"] == 1
        faults.install(None)
        fresh = TraceStore(tmp_path)
        recovered = fresh.load(spec)
        assert fresh.quarantined == 1   # detected, never misread
        assert counter["runs"] == 2
        assert recovered == events

