"""Crash-consistent run journal: every grid run is resumable.

A long incremental grid run dies for boring reasons — SIGTERM from CI,
a driver crash, a full disk, Ctrl-C.  The journal makes the run's
progress itself durable data, in the same "computation is just data"
spirit as the artifact cache and result store: one append-only JSONL
file per run under ``<store-root>/journal/``, every record fsync'd, so
whatever survives a crash is a complete prefix of the run's history
(modulo one possibly-torn final line, which the reader skips).

Record stream (``type`` field)::

    header     run_id, schema, created, the driver's pid and ``jobs``,
               the full grid *spec* (every point coordinate plus the
               result-shaping knobs) and its SHA-256 fingerprint — the
               resume contract
    resume     appended when ``--resume`` reopens the journal (pid and
               ``jobs`` of the resuming driver)
    wave       the executor started wave N with M points pending
    start      point i was dispatched (carries a wall-clock ``t`` so a
               reader can see how long it has been in flight)
    done       point i reached a terminal state; carries the full
               :class:`~repro.pipeline.grid.GridResult` dict, which
               ``repro status`` and ``repro report`` read
    heartbeat  periodic liveness: ``t``, driver pid, rss.  The writer
               appends one whenever its interval has passed at one of
               its own appends or at a :meth:`~JournalWriter.tick`;
               flushed-but-not-fsync'd — heartbeats are monitoring
               data, not resume state, so they never pay the fsync
    end        the run finished ("complete") or was interrupted
               ("interrupted") — a journal with no ``end`` record
               means the driver died mid-run

``repro batch --resume <run-id|latest>`` rebuilds the point list from
the header, refuses to run if the recorded spec fingerprint does not
match (the journal describes a *different* grid), and re-runs the grid
against the result store with incremental lookup on — appending to the
same journal so a twice-interrupted run resumes again.  The store is
the one record of a finished point: the points an earlier run
stored are served, and the rest (unfinished, failed or degraded, which
the store never keeps) execute.  Every simulated outcome matches an
uninterrupted run because a served point is bit-identical to
re-executing it — see DESIGN.md.

Fault injection: journal appends honour ``disk.enospc`` (the append is
dropped and counted — a lost record is missing from ``status`` and
``report``, never from what a resume executes) and
``disk.torn_write`` (a prefix of the line lands, unsynced —
exercising the reader's torn-tail skip).

Concurrency: a journal file has exactly one writer (the run id embeds
the pid and a serial), so appends need no lock, and the shared
``latest`` pointer is replaced whole by one atomic write.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.errors import JournalError
from repro.pipeline.fingerprint import make_key
from repro.pipeline.grid import GridPoint, GridResult
from repro.util.atomicio import write_atomic

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalState",
    "JournalWriter",
    "journal_dir",
    "list_runs",
    "read_records",
    "resolve_run_id",
    "spec_fingerprint",
]

JOURNAL_SCHEMA = 1
_LATEST = "latest"


def journal_dir(store_root: os.PathLike) -> Path:
    """Where a store's run journals live."""
    return Path(store_root).expanduser() / "journal"


def spec_fingerprint(spec: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a grid spec (the point list
    plus every result-shaping knob).  ``--resume`` refuses a journal
    whose recorded fingerprint does not match its recorded spec, and
    the fingerprint pins what the resumed run will execute."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                      default=str)
    return make_key(["journal-spec", text])


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def new_run_id(jdir: Path) -> str:
    """A unique, human-sortable run id: UTC stamp + pid (+ serial)."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = f"RUN_{stamp}-{os.getpid()}"
    run_id, serial = base, 0
    while (jdir / f"{run_id}.jsonl").exists():
        serial += 1
        run_id = f"{base}-{serial}"
    return run_id


def list_runs(jdir: os.PathLike) -> List[str]:
    """Run ids with a journal file, newest-stamp first."""
    try:
        names = [p.stem for p in Path(jdir).glob("RUN_*.jsonl")]
    except OSError:
        return []
    return sorted(names, reverse=True)


def resolve_run_id(jdir: os.PathLike, token: str) -> str:
    """Resolve a ``--resume`` argument: a literal run id, or
    ``latest`` (the pointer file, falling back to the newest journal
    on disk).  Raises :class:`JournalError` when nothing matches."""
    jdir = Path(jdir)
    if token != _LATEST:
        if (jdir / f"{token}.jsonl").exists():
            return token
        raise JournalError(f"no journal for run id {token!r}",
                           journal_dir=str(jdir))
    try:
        run_id = (jdir / _LATEST).read_text().strip()
    except OSError:
        run_id = ""
    if run_id and (jdir / f"{run_id}.jsonl").exists():
        return run_id
    runs = list_runs(jdir)
    if runs:
        return runs[0]
    raise JournalError("no journaled runs to resume",
                       journal_dir=str(jdir))


def rss_bytes() -> Optional[int]:
    """Resident set size of this process, best effort."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


class JournalWriter:
    """Single-writer append side of one run's journal.

    Appends are fsync'd by default (``fsync=False`` trades durability
    for speed).  ``appends`` counts the records written and ``errors``
    the appends (and ``latest`` pointer moves) that failed, which are
    swallowed: a resume takes only the grid from the journal, and the
    store decides which points it serves.

    ``heartbeat`` is the interval in seconds between liveness records
    (0, the default, writes none): a heartbeat is appended whenever the
    interval has passed at a ``wave``/``start``/``done`` append or at a
    :meth:`tick`, which the grid executor calls while it waits.
    """

    def __init__(self, jdir: Path, run_id: str, fh: IO[str],
                 fsync: bool = True, heartbeat: float = 0.0):
        self.jdir = jdir
        self.run_id = run_id
        self.fsync = fsync
        self.heartbeat_s = heartbeat
        self.appends = 0
        self.errors = 0
        self._fh: Optional[IO[str]] = fh
        self._last_beat: Optional[float] = None  # monotonic

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, jdir: os.PathLike, spec: Dict[str, Any],
               fsync: bool = True,
               run_id: Optional[str] = None,
               heartbeat: float = 0.0,
               jobs: int = 1) -> "JournalWriter":
        """Start a fresh journal: write the header record and move the
        ``latest`` pointer."""
        jdir = Path(jdir).expanduser()
        jdir.mkdir(parents=True, exist_ok=True)
        if run_id is None:
            run_id = new_run_id(jdir)
        fh = open(jdir / f"{run_id}.jsonl", "a")
        writer = cls(jdir, run_id, fh, fsync=fsync, heartbeat=heartbeat)
        writer._append({
            "type": "header",
            "schema": JOURNAL_SCHEMA,
            "run_id": run_id,
            "created": _utcnow(),
            "pid": os.getpid(),
            "jobs": jobs,
            "total": len(spec.get("points", [])),
            "fingerprint": spec_fingerprint(spec),
            "spec": spec,
        })
        writer._point_latest()
        return writer

    @classmethod
    def reopen(cls, jdir: os.PathLike, run_id: str,
               fsync: bool = True,
               heartbeat: float = 0.0,
               jobs: int = 1) -> "JournalWriter":
        """Reopen an interrupted run's journal for a resume: appends a
        ``resume`` record and points ``latest`` back at this run."""
        jdir = Path(jdir).expanduser()
        path = jdir / f"{run_id}.jsonl"
        if not path.exists():
            raise JournalError(f"no journal for run id {run_id!r}",
                               journal_dir=str(jdir))
        fh = open(path, "a")
        writer = cls(jdir, run_id, fh, fsync=fsync, heartbeat=heartbeat)
        writer._append({
            "type": "resume",
            "created": _utcnow(),
            "pid": os.getpid(),
            "jobs": jobs,
        })
        writer._point_latest()
        return writer

    def _point_latest(self) -> None:
        """Move the ``latest`` pointer to this run."""
        try:
            write_atomic(self.jdir / _LATEST, self.run_id + "\n",
                         fsync=self.fsync)
        except OSError:
            self.errors += 1

    # -- the append path ---------------------------------------------------

    def _append(self, record: Dict[str, Any],
                durable: bool = True) -> None:
        if self._fh is None:
            return
        try:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
            if faults.should_fire("disk.enospc"):
                raise OSError("no space left on device (injected fault)")
            if faults.should_fire("disk.torn_write"):
                # A torn append: a prefix lands, nothing is synced.
                self._fh.write(line[: max(len(line) // 2, 1)])
                self._fh.flush()
                self.appends += 1
                return
            self._fh.write(line)
            self._fh.flush()
            if self.fsync and durable:
                os.fsync(self._fh.fileno())
        except (OSError, ValueError, TypeError):
            self.errors += 1
            return
        self.appends += 1

    # -- state transitions -------------------------------------------------

    def wave(self, wave: int, pending: int) -> None:
        self._append({"type": "wave", "wave": wave, "pending": pending,
                      "t": round(time.time(), 3)})
        self.tick()

    def point_started(self, index: int, point: GridPoint) -> None:
        self._append({"type": "start", "i": index,
                      "label": point.label(),
                      "t": round(time.time(), 3)})
        self.tick()

    def point_done(self, index: int, result: GridResult) -> None:
        """The record of a point's terminal result (``status`` and
        ``report`` read it; a resume serves the point from the store)."""
        self._append({"type": "done", "i": index,
                      "ok": result.ok,
                      "t": round(time.time(), 3),
                      "result": result.as_dict()})
        self.tick()

    def tick(self) -> None:
        """Append a heartbeat if ``heartbeat`` seconds have passed since
        the last one (the first tick lands at once)."""
        if self.heartbeat_s > 0 and (
                self._last_beat is None
                or time.monotonic() - self._last_beat >= self.heartbeat_s):
            self.heartbeat()

    def heartbeat(self, **fields: Any) -> None:
        """Liveness record: ``t``, pid and rss (``fields`` add to or
        override them).  Flushed but never fsync'd: a lost heartbeat
        costs a stale status display, not resume state."""
        self._last_beat = time.monotonic()
        self._append({"type": "heartbeat", "t": round(time.time(), 3),
                      "pid": os.getpid(), "rss": rss_bytes(), **fields},
                     durable=False)

    def end(self, status: str, executed: int) -> None:
        self._append({"type": "end", "status": status,
                      "executed": executed, "created": _utcnow()})

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_records(path: os.PathLike) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Lenient raw record reader: ``(records, bad_lines, torn_tail)``.

    The one parsing path for everything that consumes a journal —
    :meth:`JournalState.load` for resume, the run-state monitor for
    ``repro status``, and the report builder for the timeline.  A torn
    final line (the crash window) is skipped and flagged; a garbled
    interior line loses only itself."""
    records: List[Dict[str, Any]] = []
    bad_lines, torn_tail = 0, False
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal: {exc}",
                           journal=str(path)) from exc
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if lineno == len(lines) - 1:
                torn_tail = True
            else:
                bad_lines += 1
    return records, bad_lines, torn_tail


@dataclass
class JournalState:
    """Parsed read side of one run's journal."""

    path: Path
    header: Optional[Dict[str, Any]] = None
    finished: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    started: int = 0
    started_indices: Set[int] = field(default_factory=set)
    waves: int = 0
    wave: int = 0                   # number of the last wave record
    jobs: int = 1                   # the last driver's --jobs
    resumes: int = 0
    ended: Optional[str] = None
    bad_lines: int = 0
    torn_tail: bool = False
    heartbeats: int = 0
    last_heartbeat: Optional[Dict[str, Any]] = None
    pid: Optional[int] = None

    @classmethod
    def load(cls, path: os.PathLike) -> "JournalState":
        """Parse a journal leniently: a torn final line (the crash
        window) is skipped and counted; a garbled interior line (a torn
        append that later appends ran into) loses at most the records
        on that line."""
        path = Path(path)
        state = cls(path=path)
        records, state.bad_lines, state.torn_tail = read_records(path)
        for record in records:
            state._apply(record)
        if state.header is None:
            raise JournalError(
                "journal has no readable header record",
                journal=str(path))
        return state

    def _apply(self, record: Dict[str, Any]) -> None:
        rtype = record.get("type")
        if rtype in ("header", "resume", "heartbeat"):
            # The driver's pid and --jobs: the header or resume record
            # carries them (older journals put jobs in heartbeats).
            if record.get("pid") is not None:
                self.pid = record["pid"]
            if isinstance(record.get("jobs"), int):
                self.jobs = record["jobs"]
        if rtype == "header" and self.header is None:
            self.header = record
        elif rtype == "resume":
            self.resumes += 1
        elif rtype == "wave":
            self.waves += 1
            if isinstance(record.get("wave"), int):
                self.wave = record["wave"]
        elif rtype == "start":
            self.started += 1
            try:
                self.started_indices.add(int(record["i"]))
            except (KeyError, TypeError, ValueError):
                self.bad_lines += 1
        elif rtype == "done":
            try:
                self.finished[int(record["i"])] = record["result"]
            except (KeyError, TypeError, ValueError):
                self.bad_lines += 1
        elif rtype == "heartbeat":
            self.heartbeats += 1
            self.last_heartbeat = record
        elif rtype == "end":
            self.ended = str(record.get("status"))

    # -- the resume contract -----------------------------------------------

    @property
    def run_id(self) -> str:
        return str(self.header.get("run_id", self.path.stem))

    @property
    def spec(self) -> Dict[str, Any]:
        return dict(self.header.get("spec") or {})

    @property
    def complete(self) -> bool:
        return self.ended == "complete"

    @property
    def in_flight(self) -> List[int]:
        """Points with a ``start`` record but no ``done`` — mid-flight
        when the journal was written (or, for a dead run, when the
        driver died).  Sorted for stable display."""
        return sorted(self.started_indices - set(self.finished))

    def validate(self) -> None:
        """Refuse to resume from a journal whose spec does not hash to
        its recorded fingerprint (damaged header, or hand-edited)."""
        spec = self.header.get("spec")
        recorded = self.header.get("fingerprint")
        if not spec or not recorded:
            raise JournalError(
                "journal header carries no spec/fingerprint",
                journal=str(self.path))
        actual = spec_fingerprint(spec)
        if actual != recorded:
            raise JournalError(
                "spec fingerprint mismatch: journal records "
                f"{recorded[:12]}… but its spec hashes to "
                f"{actual[:12]}… — refusing to resume a damaged or "
                "edited journal",
                journal=str(self.path))

    def points(self) -> List[GridPoint]:
        """The full grid the journaled run was executing."""
        try:
            return [GridPoint(**p) for p in self.spec["points"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"journal spec does not describe a point list: {exc}",
                journal=str(self.path)) from exc
