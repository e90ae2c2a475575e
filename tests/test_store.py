"""The persistent result store: keys, lookup, invalidation, eviction,
durability, and the machine fingerprint it keys on."""

import json
import os

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
        assert store.get(key) is None
        store.put(key, {"total_time": 1.5}, coord="sim:x")
        assert store.get(key) == {"total_time": 1.5}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.stores == 1

    def test_persists_across_instances(self, tmp_path):
        key = result_key("p", "comp", 4, "m")
        ResultStore(tmp_path).put(key, {"v": 7})
        assert ResultStore(tmp_path).get(key) == {"v": 7}

    def test_same_coord_new_key_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        k_old = result_key("prog-v1", "comp", 4, "m")
        k_new = result_key("prog-v2", "comp", 4, "m")
        store.put(k_old, {"v": 1}, coord="sim:simple/comp/P4")
        store.put(k_new, {"v": 2}, coord="sim:simple/comp/P4")
        assert store.stats.invalidations == 1
        # The stale entry is deleted, not just shadowed.
        assert store.get(k_old) is None
        assert store.get(k_new) == {"v": 2}
        assert len(store) == 1

    def test_same_coord_same_key_no_invalidation(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put(key, {"v": 1}, coord="c")
        store.put(key, {"v": 1}, coord="c")
        assert store.stats.invalidations == 0

    def test_different_coords_coexist(self, tmp_path):
        store = ResultStore(tmp_path)
        k1 = result_key("p", "comp", 4, "m")
        k2 = result_key("p", "comp", 8, "m")
        store.put(k1, {"v": 1}, coord="c1")
        store.put(k2, {"v": 2}, coord="c2")
        assert store.stats.invalidations == 0
        assert len(store) == 2

    def test_eviction_caps_entries(self, tmp_path):
        store = ResultStore(tmp_path, keep=3)
        keys = [result_key("p", "comp", n, "m") for n in range(1, 7)]
        for i, k in enumerate(keys):
            store.put(k, {"v": i}, coord=f"c{i}")
            # mtime resolution can be coarse; force distinct ordering.
            os.utime(store._path(k), (i, i))
        assert len(store) == 3
        assert store.stats.evictions == 3
        # Newest survive, oldest are gone.
        assert store.get(keys[-1]) is not None
        assert store.get(keys[0]) is None

    def test_eviction_skips_entry_that_vanished(self, tmp_path,
                                                monkeypatch):
        # Another driver's lock-free get() can quarantine an entry
        # between this put's listing and its stat: skip it, never raise.
        store = ResultStore(tmp_path, keep=2)
        keys = [result_key("p", "comp", n, "m") for n in range(1, 4)]
        for i, k in enumerate(keys[:2]):
            store.put(k, {"v": i}, coord=f"c{i}")
            os.utime(store._path(k), (i + 1, i + 1))
        listed = store._entries
        vanished = store._path(result_key("gone", "comp", 1, "m"))
        monkeypatch.setattr(store, "_entries",
                            lambda: [*listed(), vanished])
        store.put(keys[2], {"v": 2}, coord="c2")
        assert store.stats.evictions == 1
        assert store.get(keys[0]) is None  # the oldest real entry
        assert store.get(keys[1]) == {"v": 1}
        assert store.get(keys[2]) == {"v": 2}

    def test_corrupt_entry_is_miss_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put(key, {"v": 1}, coord="c")
        path = store._path(key)
        path.write_text("{not json")
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1
        # Quarantined for post-mortem, not silently deleted.
        assert not path.exists()
        assert (store._quarantine_dir() / path.name).exists()

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put(key, {"v": 1})
        path = store._path(key)
        entry = json.loads(path.read_text())
        entry["payload"] = {"v": 2}  # payload no longer matches sha256
        path.write_text(json.dumps(entry))
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert store.stats.quarantined == 1

    def test_entries_carry_verifiable_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put(key, {"v": 1, "nested": {"a": [1, 2]}})
        entry = json.loads(store._path(key).read_text())
        assert entry["sha256"] == payload_checksum(entry["payload"])

    def test_quarantine_is_capped(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [result_key("p", "comp", n, "m")
                for n in range(1, QUARANTINE_KEEP + 10)]
        for i, k in enumerate(keys):
            store.put(k, {"v": i})
            store._path(k).write_text("{broken")
            assert store.get(k) is None
            qfile = store._quarantine_dir() / f"{k}.json"
            os.utime(qfile, (i, i))
        files = [p for p in store._quarantine_dir().iterdir()
                 if p.is_file()]
        assert len(files) == QUARANTINE_KEEP

    def test_key_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put(key, {"v": 1})
        path = store._path(key)
        entry = json.loads(path.read_text())
        entry["key"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert store.get(key) is None
        assert store.stats.corrupt == 1

    def test_corrupt_index_tolerated(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("p", "comp", 4, "m")
        store.put(key, {"v": 1}, coord="c")
        store._index_path().write_text("garbage")
        fresh = ResultStore(tmp_path)
        # Lookup still works; a put rebuilds the index.
        assert fresh.get(key) == {"v": 1}
        fresh.put(result_key("p2", "comp", 4, "m"), {"v": 2}, coord="c2")

    def test_stats_dict_shape(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(result_key("p", "comp", 4, "m"), {"v": 1})
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
