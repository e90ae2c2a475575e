"""The persistent result store: keys, lookup, invalidation, eviction,
durability, two writers without a lock, and the machine fingerprint it
keys on."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machine.cache import CacheConfig
from repro.machine.cost import CostParams
from repro.machine.dash import dash_machine, scaled_dash
from repro.pipeline.store import (
    MODEL_VERSION,
    QUARANTINE_KEEP,
    ResultStore,
    payload_checksum,
    resolve_store_dir,
    result_key,
)


# -- machine fingerprint (what the keys hang off) ----------------------------

class TestDashFingerprint:
    def test_stable_across_instances(self):
        a = scaled_dash(4, scale=16)
        b = scaled_dash(4, scale=16)
        assert a.fingerprint() == b.fingerprint()

    def test_is_sha256_hex(self):
        fp = scaled_dash(2, scale=16).fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # hex digest

    @pytest.mark.parametrize("mutate", [
        lambda m: m.with_procs(8),
        lambda m: m.with_l2(),
        lambda m: scaled_dash(4, scale=32),
        lambda m: scaled_dash(4, scale=16, line_bytes=32),
        lambda m: scaled_dash(4, scale=16, word_bytes=4),
        lambda m: scaled_dash(4, scale=16, page_bytes=512),
        lambda m: scaled_dash(4, scale=16,
                              cost=CostParams(remote_miss=200.0)),
    ])
    def test_sensitive_to_every_knob(self, mutate):
        base = scaled_dash(4, scale=16)
        assert mutate(base).fingerprint() != base.fingerprint()

    def test_l2_geometry_covered(self):
        a = dash_machine(4)
        b = a.with_l2(size_bytes=2 * a.l2.size_bytes)
        assert a.fingerprint() != b.fingerprint()

    def test_nested_config_equality(self):
        # Same geometry through different construction paths.
        a = dash_machine(8)
        b = dash_machine(32).with_procs(8)
        assert a.fingerprint() == b.fingerprint()


# -- key schema --------------------------------------------------------------

class TestResultKey:
    def test_deterministic(self):
        k1 = result_key("pfp", "comp", 4, "mfp")
        k2 = result_key("pfp", "comp", 4, "mfp")
        assert k1 == k2
        assert len(k1) == 64

    @pytest.mark.parametrize("kwargs", [
        dict(program_fp="other"),
        dict(scheme="data"),
        dict(nprocs=8),
        dict(machine_fp="other"),
        dict(model_version="sim-v999"),
        dict(kind="verify"),
    ])
    def test_every_component_matters(self, kwargs):
        base = dict(program_fp="pfp", scheme="comp", nprocs=4,
                    machine_fp="mfp")
        assert result_key(**base) != result_key(**{**base, **kwargs})

    def test_extras_change_key(self):
        assert (result_key("p", "comp", 4, "m", locality=True)
                != result_key("p", "comp", 4, "m", locality=False))

    def test_model_version_default(self):
        assert result_key("p", "comp", 4, "m") == result_key(
            "p", "comp", 4, "m", model_version=MODEL_VERSION)


# -- directory resolution ----------------------------------------------------

class TestResolveStoreDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        assert resolve_store_dir(str(tmp_path / "x")) == tmp_path / "x"

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        assert resolve_store_dir() == tmp_path / "env"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert str(resolve_store_dir()).endswith(
            os.path.join(".cache", "repro", "results"))


# -- store behaviour ---------------------------------------------------------

class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        assert store.get("sim:x", key) is None
        store.put("sim:x", key, {"total_time": 1.5})
        assert store.get("sim:x", key) == {"total_time": 1.5}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.stores == 1

    def test_persists_across_instances(self, tmp_path):
        key = result_key("p", "comp", 4, "m")
        ResultStore(tmp_path).put("c", key, {"v": 7})
        assert ResultStore(tmp_path).get("c", key) == {"v": 7}

    def test_same_coord_new_key_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        k_old = result_key("prog-v1", "comp", 4, "m")
        k_new = result_key("prog-v2", "comp", 4, "m")
        store.put("sim:simple/comp/P4", k_old, {"v": 1})
        store.put("sim:simple/comp/P4", k_new, {"v": 2})
        assert store.stats.invalidations == 1
        # The stale entry is replaced, not just shadowed.
        assert store.get("sim:simple/comp/P4", k_old) is None
        assert store.get("sim:simple/comp/P4", k_new) == {"v": 2}
        assert len(store) == 1

    def test_same_coord_same_key_no_invalidation(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put("c", key, {"v": 1})
        store.put("c", key, {"v": 1})
        assert store.stats.invalidations == 0

    def test_other_key_is_plain_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        k1 = result_key("p1", "comp", 4, "m")
        k2 = result_key("p2", "comp", 4, "m")
        store.put("c", k1, {"v": 1})
        assert store.get("c", k2) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == store.stats.quarantined == 0
        assert store.get("c", k1) == {"v": 1}

    def test_different_coords_coexist(self, tmp_path):
        store = ResultStore(tmp_path)
        k1 = result_key("p", "comp", 4, "m")
        k2 = result_key("p", "comp", 8, "m")
        store.put("c1", k1, {"v": 1})
        store.put("c2", k2, {"v": 2})
        assert store.stats.invalidations == 0
        assert len(store) == 2

    def test_eviction_caps_entries(self, tmp_path):
        store = ResultStore(tmp_path, keep=3)
        key = result_key("p", "comp", 4, "m")
        coords = [f"c{i}" for i in range(6)]
        for i, c in enumerate(coords):
            store.put(c, key, {"v": i})
            # mtime resolution can be coarse; force distinct ordering.
            os.utime(store._path(c), (i, i))
        assert len(store) == 3
        assert store.stats.evictions == 3
        # Newest survive, oldest are gone.
        assert store.get(coords[-1], key) is not None
        assert store.get(coords[0], key) is None

    def test_eviction_skips_entry_that_vanished(self, tmp_path,
                                                monkeypatch):
        # Another driver can quarantine, replace or evict an entry
        # between this put's listing and its stat: skip it, never raise.
        store = ResultStore(tmp_path, keep=2)
        key = result_key("p", "comp", 4, "m")
        for i in range(2):
            store.put(f"c{i}", key, {"v": i})
            os.utime(store._path(f"c{i}"), (i + 1, i + 1))
        listed = store._listing
        vanished = str(store._path("gone"))
        monkeypatch.setattr(store, "_listing",
                            lambda: [*listed(), vanished])
        store.put("c2", key, {"v": 2})
        assert store.stats.evictions == 1
        assert store.get("c0", key) is None  # the oldest real entry
        assert store.get("c1", key) == {"v": 1}
        assert store.get("c2", key) == {"v": 2}

    def test_put_below_cap_stats_no_entry(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path, keep=8, fsync=False)
        key = result_key("p", "comp", 4, "m")
        for i in range(4):
            store.put(f"c{i}", key, {"v": i})
        stated = []
        real_stat = os.stat

        def counting_stat(path, *args, **kwargs):
            if str(path).endswith(".json"):
                stated.append(path)
            return real_stat(path, *args, **kwargs)

        globbed = []
        real_glob = Path.glob

        def counting_glob(self, pattern):
            globbed.append(pattern)
            return real_glob(self, pattern)

        monkeypatch.setattr(os, "stat", counting_stat)
        monkeypatch.setattr(Path, "glob", counting_glob)
        store.put("c4", key, {"v": 4})
        store.put("c0", result_key("p2", "comp", 4, "m"), {"v": 0})
        assert stated == [] and globbed == []
        assert store.stats.stores == 6 and store.stats.invalidations == 1

    def test_corrupt_entry_is_miss_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put("c", key, {"v": 1})
        path = store._path("c")
        path.write_text("{not json")
        assert store.get("c", key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1
        # Quarantined for post-mortem, not silently deleted.
        assert not path.exists()
        assert (store._quarantine_dir() / path.name).exists()

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put("c", key, {"v": 1})
        path = store._path("c")
        entry = json.loads(path.read_text())
        entry["payload"] = {"v": 2}  # payload no longer matches sha256
        path.write_text(json.dumps(entry))
        assert store.get("c", key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1

    def test_entries_carry_verifiable_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put("c", key, {"v": 1, "nested": {"a": [1, 2]}})
        entry = json.loads(store._path("c").read_text())
        assert entry["sha256"] == payload_checksum(entry["payload"])
        assert (entry["coord"], entry["key"]) == ("c", key)

    def test_quarantine_is_capped(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        for i in range(QUARANTINE_KEEP + 9):
            store.put(f"c{i}", key, {"v": i})
            store._path(f"c{i}").write_text("{broken")
            assert store.get(f"c{i}", key) is None
            qfile = store._quarantine_dir() / store._path(f"c{i}").name
            os.utime(qfile, (i, i))
        files = [p for p in store._quarantine_dir().iterdir()
                 if p.is_file()]
        assert len(files) == QUARANTINE_KEEP

    def test_key_mismatch_is_corrupt(self, tmp_path):
        # An entry's file is named by its coordinate's digest: one that
        # records another coordinate is misnamed, so it is corrupt.
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put("c", key, {"v": 1})
        path = store._path("c")
        entry = json.loads(path.read_text())
        entry["coord"] = "elsewhere"
        path.write_text(json.dumps(entry))
        assert store.get("c", key) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        assert (store._quarantine_dir() / path.name).exists()

    def test_stats_dict_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("c", result_key("p", "comp", 4, "m"), {"v": 1})
        st = store.stats_dict()
        for field in ("hits", "misses", "stores", "invalidations",
                      "evictions", "corrupt", "errors", "entries",
                      "bytes"):
            assert field in st
        assert st["entries"] == 1
        assert st["bytes"] > 0

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, keep=0)


# -- two writers, no lock ----------------------------------------------------

_WRITER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.pipeline.store import ResultStore, result_key
store = ResultStore({root!r})
key = result_key({prog!r}, "comp", 4, "m")
deadline = time.monotonic() + {seconds}
while time.monotonic() < deadline:
    for i in range({ncoords}):
        store.put(f"c{{i}}", key, {{"writer": {prog!r}, "i": i}})
print(store.stats.stores, store.stats.errors)
"""


class TestConcurrentPuts:
    def test_two_writers_leave_one_entry_per_coord(self, tmp_path):
        """Two processes put different keys to the same coordinates
        over and over: every coordinate ends with exactly one entry,
        which verifies, and fsck --strict is clean."""
        root = tmp_path / "store"
        src = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER.format(
                    src=src, root=str(root), prog=prog, seconds=2.0,
                    ncoords=20)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for prog in ("writer-a", "writer-b")
        ]
        for p in procs:
            out, err = p.communicate(timeout=60)
            assert p.returncode == 0, err
            stores, errors = map(int, out.split())
            assert stores >= 20 and errors == 0
        store = ResultStore(root)
        keys = {result_key(prog, "comp", 4, "m")
                for prog in ("writer-a", "writer-b")}
        coords = [f"c{i}" for i in range(20)]
        assert sorted(store._entries()) == sorted(
            store._path(c) for c in coords)
        for c in coords:
            entry = store.read_entry(store._path(c))
            assert entry["coord"] == c and entry["key"] in keys
        fsck = subprocess.run(
            [sys.executable, "-m", "repro", "fsck", "--store-dir",
             str(root), "--strict"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert fsck.returncode == 0, fsck.stdout + fsck.stderr
