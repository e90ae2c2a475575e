"""Atomic durable writes (``repro.util.atomicio``): the one write path
shared by the result store, the disk cache, and the bench snapshots —
plus its seeded disk-fault hooks."""

import errno
import os

import pytest

from repro import faults, obs
from repro.util.atomicio import write_atomic


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.configure(None)
    obs.disable()
    obs.reset()
    yield
    faults.configure(None)
    obs.disable()
    obs.reset()


class TestWriteAtomic:
    def test_writes_bytes(self, tmp_path):
        p = tmp_path / "out.bin"
        write_atomic(p, b"\x00\x01payload")
        assert p.read_bytes() == b"\x00\x01payload"

    def test_writes_str_as_utf8(self, tmp_path):
        p = tmp_path / "out.txt"
        write_atomic(p, "héllo\n")
        assert p.read_text() == "héllo\n"

    def test_overwrites_atomically(self, tmp_path):
        p = tmp_path / "out.txt"
        write_atomic(p, "old")
        write_atomic(p, "new")
        assert p.read_text() == "new"

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "a" / "b" / "out.txt"
        write_atomic(p, "x")
        assert p.read_text() == "x"

    def test_no_mkdirs_fails_on_missing_parent(self, tmp_path):
        p = tmp_path / "missing" / "out.txt"
        with pytest.raises(OSError):
            write_atomic(p, "x", mkdirs=False)

    def test_error_names_the_destination(self, tmp_path):
        # Not the temp file the write went through.
        p = tmp_path / "missing" / "x.json"
        with pytest.raises(FileNotFoundError) as info:
            write_atomic(p, "{}", mkdirs=False)
        assert info.value.filename == str(p)
        assert info.value.errno == errno.ENOENT
        assert ".tmp" not in str(info.value)

    def test_replace_error_names_the_destination(self, tmp_path):
        target = tmp_path / "dir-not-file"
        target.mkdir()
        with pytest.raises(OSError) as info:
            write_atomic(target, "x")
        assert info.value.filename == str(target)

    def test_no_temp_droppings(self, tmp_path):
        p = tmp_path / "out.txt"
        write_atomic(p, "x")
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_cleans_temp(self, tmp_path):
        # Unwritable destination: the temp file must not leak.
        target = tmp_path / "dir-not-file"
        target.mkdir()
        with pytest.raises(OSError):
            write_atomic(target, "x")
        names = {f.name for f in tmp_path.iterdir()}
        assert names == {"dir-not-file"}


class TestDiskFaults:
    def test_enospc_raises_enospc(self, tmp_path):
        faults.configure("seed=1,disk.enospc=1.0")
        p = tmp_path / "out.txt"
        with pytest.raises(OSError) as ei:
            write_atomic(p, "x")
        assert ei.value.errno == errno.ENOSPC
        assert not p.exists()

    def test_torn_write_lands_a_prefix(self, tmp_path):
        faults.configure("seed=1,disk.torn_write=1.0")
        p = tmp_path / "out.txt"
        write_atomic(p, "0123456789")
        # The rename still happens, so the torn payload is visible —
        # exactly the damage checksums and fsck exist to catch.
        assert p.read_text() == "01234"

    def test_rates_below_one_are_deterministic(self, tmp_path):
        faults.configure("seed=9,disk.enospc=0.5")
        outcomes1 = []
        for i in range(32):
            try:
                write_atomic(tmp_path / f"f{i}", "x")
                outcomes1.append(True)
            except OSError:
                outcomes1.append(False)
        faults.configure("seed=9,disk.enospc=0.5")
        outcomes2 = []
        for i in range(32):
            try:
                write_atomic(tmp_path / f"g{i}", "x")
                outcomes2.append(True)
            except OSError:
                outcomes2.append(False)
        assert outcomes1 == outcomes2
        assert True in outcomes1 and False in outcomes1
