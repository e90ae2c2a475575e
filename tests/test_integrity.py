"""``repro fsck`` (``repro.pipeline.integrity``): entry verification,
quarantine, and a scan that races a writer."""

import json
import os

import pytest

from repro import obs
from repro.pipeline.integrity import fsck_store
from repro.pipeline.store import ResultStore, result_key


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _seed(store, n=3):
    coords = []
    for i in range(n):
        store.put(f"c{i}", result_key("p", "comp", i + 1, "m"), {"v": i})
        coords.append(f"c{i}")
    return coords


class TestCleanStore:
    def test_clean_report(self, tmp_path):
        store = ResultStore(tmp_path)
        _seed(store)
        report = fsck_store(store)
        assert report.scanned == 3
        assert report.ok == 3
        assert report.clean
        assert report.damage == 0

    def test_empty_store_is_clean(self, tmp_path):
        report = fsck_store(ResultStore(tmp_path))
        assert report.scanned == 0
        assert report.clean

    def test_report_dict_shape(self, tmp_path):
        report = fsck_store(ResultStore(tmp_path))
        d = report.as_dict()
        for field in ("scanned", "ok", "quarantined",
                      "checksum_mismatch", "key_mismatch", "clean",
                      "problems"):
            assert field in d


class TestEntryDamage:
    def test_unparseable_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        coords = _seed(store)
        path = store._path(coords[0])
        path.write_text("{garbage")
        report = fsck_store(store)
        assert report.unparseable == 1
        assert report.quarantined == 1
        assert not report.clean
        assert not path.exists()
        assert (store._quarantine_dir() / path.name).exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        coords = _seed(store)
        path = store._path(coords[0])
        entry = json.loads(path.read_text())
        entry["payload"] = {"v": 999}
        path.write_text(json.dumps(entry))
        report = fsck_store(store)
        assert report.checksum_mismatch == 1
        assert report.quarantined == 1
        assert not path.exists()

    def test_key_mismatch_quarantined(self, tmp_path):
        # The file is named by its coordinate's digest; a recorded
        # coordinate that hashes elsewhere makes it misnamed.
        store = ResultStore(tmp_path)
        coords = _seed(store)
        path = store._path(coords[0])
        entry = json.loads(path.read_text())
        entry["coord"] = "elsewhere"
        path.write_text(json.dumps(entry))
        report = fsck_store(store)
        assert report.key_mismatch == 1
        assert report.quarantined == 1
        assert not path.exists()
        assert (store._quarantine_dir() / path.name).exists()

    def test_missing_payload_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        coords = _seed(store)
        path = store._path(coords[0])
        entry = json.loads(path.read_text())
        del entry["payload"]
        path.write_text(json.dumps(entry))
        report = fsck_store(store)
        assert report.missing_payload == 1
        assert report.quarantined == 1

    def test_repair_converges(self, tmp_path):
        store = ResultStore(tmp_path)
        coords = _seed(store)
        store._path(coords[0]).write_text("{garbage")
        first = fsck_store(store)
        assert not first.clean
        second = fsck_store(store)
        assert second.clean
        assert second.scanned == 2  # quarantined entry gone from scan


class TestNoRepair:
    def test_report_only_leaves_damage_in_place(self, tmp_path):
        store = ResultStore(tmp_path)
        coords = _seed(store)
        path = store._path(coords[0])
        path.write_text("{garbage")
        report = fsck_store(store, repair=False)
        assert report.unparseable == 1
        assert report.quarantined == 0
        assert not report.clean
        assert path.exists()  # untouched
        # A second report-only pass finds the same damage.
        assert not fsck_store(store, repair=False).clean


class TestScanRacesAWriter:
    def test_entries_evicted_or_replaced_mid_scan_are_no_damage(
            self, tmp_path, monkeypatch):
        """fsck takes no lock: a driver that evicts one entry and
        replaces another after fsck listed them costs no finding."""
        store = ResultStore(tmp_path)
        coords = _seed(store, n=4)
        listed = store._entries()
        driver = ResultStore(tmp_path)

        def listing_then_writer():
            os.unlink(driver._path(coords[0]))  # evicted
            driver.put(coords[1], result_key("p2", "comp", 2, "m"),
                       {"v": 9})  # replaced
            return listed

        monkeypatch.setattr(store, "_entries", listing_then_writer)
        report = fsck_store(store)
        assert report.clean
        assert (report.scanned, report.ok) == (3, 3)
