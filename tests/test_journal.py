"""The crash-consistent run journal: append/read round trips, torn
tails, spec-fingerprint validation, resume resolution, and the seeded
disk-fault behaviour of the append path."""

import json
import os
from dataclasses import asdict

import pytest

from repro import faults
from repro.errors import JournalError
from repro.pipeline.grid import GridPoint, GridResult
from repro.pipeline.journal import (
    JournalState,
    JournalWriter,
    journal_dir,
    list_runs,
    new_run_id,
    resolve_run_id,
    spec_fingerprint,
)


@pytest.fixture(autouse=True)
def _clean_state():
    faults.configure(None)
    yield
    faults.configure(None)


def _points(n=3):
    return [
        GridPoint(app="simple", scheme="comp", nprocs=p, n=8,
                  time_steps=2)
        for p in (1, 2, 4)[:n]
    ]


def _spec(points):
    return {"points": [asdict(p) for p in points],
            "degrade": True, "locality": False}


def _synced_inodes(monkeypatch):
    """The inode of every file ``os.fsync`` syncs from now on."""
    synced = []
    real = os.fsync

    def fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


def _result(point, t=123.0):
    return GridResult(point=point, ok=True, total_time=t,
                      n_accesses=42, miss_breakdown={"cold": 7},
                      elapsed=0.5, attempts=1)


class TestWriterReader:
    def test_round_trip(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        writer.wave(1, 3)
        for i, p in enumerate(points):
            writer.point_started(i, p)
            writer.point_done(i, _result(p, t=100.0 + i))
        writer.end("complete", executed=3)
        writer.close()

        state = JournalState.load(tmp_path / f"{writer.run_id}.jsonl")
        state.validate()
        assert state.complete
        assert state.waves == 1
        assert state.started == 3
        assert not state.torn_tail and state.bad_lines == 0
        assert state.points() == points
        assert sorted(state.finished) == [0, 1, 2]
        for i, p in enumerate(points):
            # Each done record carries the full result dict.
            assert state.finished[i] == _result(p, t=100.0 + i).as_dict()
            assert not state.finished[i]["store_hit"]

    def test_appends_are_fsynced_by_default(self, tmp_path, monkeypatch):
        synced = _synced_inodes(monkeypatch)
        writer = JournalWriter.create(tmp_path, _spec(_points()))
        writer.wave(1, 3)
        writer.close()
        journal = tmp_path / f"{writer.run_id}.jsonl"
        assert writer.appends == 2
        assert synced.count(journal.stat().st_ino) == writer.appends

    def test_torn_tail_is_skipped(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        writer.point_done(0, _result(points[0]))
        writer.close()
        path = tmp_path / f"{writer.run_id}.jsonl"
        with open(path, "a") as fh:
            fh.write('{"type": "done", "i": 1, "resu')  # the crash window
        state = JournalState.load(path)
        state.validate()
        assert state.torn_tail
        assert sorted(state.finished) == [0]

    def test_garbled_interior_line_loses_only_that_record(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        writer.point_done(0, _result(points[0]))
        writer.close()
        path = tmp_path / f"{writer.run_id}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(1, "garbage not json\n")
        path.write_text("".join(lines))
        state = JournalState.load(path)
        assert state.bad_lines == 1
        assert sorted(state.finished) == [0]

    def test_no_header_raises(self, tmp_path):
        path = tmp_path / "RUN_X.jsonl"
        path.write_text('{"type": "wave", "wave": 1, "pending": 3}\n')
        with pytest.raises(JournalError, match="header"):
            JournalState.load(path)

    def test_reopen_appends_resume_record(self, tmp_path):
        writer = JournalWriter.create(tmp_path, _spec(_points()))
        run_id = writer.run_id
        writer.close()
        again = JournalWriter.reopen(tmp_path, run_id)
        again.close()
        state = JournalState.load(tmp_path / f"{run_id}.jsonl")
        assert state.resumes == 1

    def test_reopen_missing_run_raises(self, tmp_path):
        with pytest.raises(JournalError):
            JournalWriter.reopen(tmp_path, "RUN_nope")

    def test_failed_result_is_journaled(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        bad = GridResult(point=points[0], ok=False,
                         error="boom", attempts=3)
        writer.point_done(0, bad)
        writer.close()
        state = JournalState.load(tmp_path / f"{writer.run_id}.jsonl")
        finished = state.finished
        assert not finished[0]["ok"]
        assert finished[0]["error"] == "boom"
        assert finished[0]["attempts"] == 3


class TestFingerprint:
    def test_sensitive_to_spec_changes(self):
        a = _spec(_points())
        b = _spec(_points())
        assert spec_fingerprint(a) == spec_fingerprint(b)
        b["degrade"] = False
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_validate_rejects_edited_spec(self, tmp_path):
        writer = JournalWriter.create(tmp_path, _spec(_points()))
        writer.close()
        path = tmp_path / f"{writer.run_id}.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["degrade"] = False  # hand-edited journal
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        state = JournalState.load(path)
        with pytest.raises(JournalError, match="fingerprint mismatch"):
            state.validate()


class TestResolution:
    def test_latest_pointer(self, tmp_path):
        w1 = JournalWriter.create(tmp_path, _spec(_points()))
        w1.close()
        w2 = JournalWriter.create(tmp_path, _spec(_points()))
        w2.close()
        assert resolve_run_id(tmp_path, "latest") == w2.run_id
        assert resolve_run_id(tmp_path, w1.run_id) == w1.run_id

    def test_latest_falls_back_to_newest_on_disk(self, tmp_path):
        w = JournalWriter.create(tmp_path, _spec(_points()))
        w.close()
        (tmp_path / "latest").unlink()
        assert resolve_run_id(tmp_path, "latest") == w.run_id

    def test_unknown_run_raises(self, tmp_path):
        with pytest.raises(JournalError):
            resolve_run_id(tmp_path, "RUN_missing")
        with pytest.raises(JournalError):
            resolve_run_id(tmp_path, "latest")

    def test_run_ids_are_unique(self, tmp_path):
        ids = set()
        for _ in range(3):
            w = JournalWriter.create(tmp_path, _spec(_points()))
            w.close()
            ids.add(w.run_id)
        assert len(ids) == 3
        assert list_runs(tmp_path)

    def test_journal_dir_is_under_store_root(self, tmp_path):
        assert journal_dir(tmp_path) == tmp_path / "journal"


class TestAppendFaults:
    def test_enospc_drops_record_and_counts(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        faults.configure("seed=1,disk.enospc=1.0")
        writer.point_done(0, _result(points[0]))
        faults.configure(None)
        assert writer.errors >= 1
        writer.close()
        state = JournalState.load(tmp_path / f"{writer.run_id}.jsonl")
        # The record is lost; the run goes on.
        assert state.finished == {}

    def test_torn_write_lands_prefix_reader_skips_it(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        faults.configure("seed=1,disk.torn_write=1.0")
        writer.point_done(0, _result(points[0]))
        faults.configure(None)
        writer.close()
        state = JournalState.load(tmp_path / f"{writer.run_id}.jsonl")
        assert state.torn_tail
        assert state.finished == {}


class TestHeartbeats:
    def test_heartbeat_replay_and_in_flight(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        writer.point_started(0, points[0])
        writer.point_started(1, points[1])
        writer.point_done(0, _result(points[0]))
        writer.heartbeat(pid=999, wave=1, finished=1, in_flight=[1])
        writer.close()
        state = JournalState.load(tmp_path / f"{writer.run_id}.jsonl")
        state.validate()
        assert state.heartbeats == 1
        assert state.last_heartbeat["finished"] == 1
        assert state.pid == 999  # heartbeat pid wins over header pid
        assert state.in_flight == [1]  # started, never journaled done
        assert state.started == 2

    def test_heartbeats_are_never_fsynced(self, tmp_path, monkeypatch):
        synced = _synced_inodes(monkeypatch)
        writer = JournalWriter.create(tmp_path, _spec(_points()))
        writer.heartbeat(finished=0)
        writer.heartbeat(finished=0)
        writer.close()
        journal = tmp_path / f"{writer.run_id}.jsonl"
        # The durable header is synced; the two heartbeats are appended
        # and flushed only.
        assert writer.appends == 3
        assert synced.count(journal.stat().st_ino) == 1
        assert JournalState.load(journal).heartbeats == 2

    def test_start_records_carry_timestamps(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points))
        writer.point_started(0, points[0])
        writer.point_done(0, _result(points[0]))
        writer.close()
        path = tmp_path / f"{writer.run_id}.jsonl"
        records = [json.loads(l) for l in path.read_text().splitlines()]
        by_type = {r["type"]: r for r in records}
        assert isinstance(by_type["start"]["t"], float)
        assert isinstance(by_type["done"]["t"], float)
        assert by_type["done"]["t"] >= by_type["start"]["t"]
