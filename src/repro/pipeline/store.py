"""Persistent result store: simulation results as content-addressed data.

The compiler side of the repo already treats computation as data —
pass artifacts are keyed by SHA-256 content fingerprints and replayed
from the cache.  This module extends the same model to *results*: a
:class:`ResultStore` persists one JSON document per executed grid
point, keyed by a SHA-256 digest over everything that determines the
outcome —

* the **program fingerprint** (IR content, including statement
  bytecode — editing an app changes it);
* the **scheme** and **processor count**;
* the **machine fingerprint** (:meth:`repro.machine.dash.DashConfig.fingerprint`
  — full cache/L2/NUMA/cost geometry);
* the **model version** (:data:`MODEL_VERSION`, bumped whenever the
  simulator's semantics change);
* a ``kind`` namespace (``sim`` results, ``verify`` verdicts, ``bench``
  detail blocks) plus any extra flags that shape the payload.

A warm lookup therefore means "nothing that could change this result
has changed" — the grid engine (:mod:`repro.pipeline.grid`) serves the
stored result instead of re-executing the point, which is what makes
``repro batch --incremental`` re-run only the rows of a grid whose
program, machine, or model actually changed.

Each grid *coordinate* (``sim:app/scheme/P4/n=16/...``) has at most one
entry, by construction: the entry's file is named by a digest of the
coordinate (``v2/<d[:2]>/<d>.json``) and holds ``coord``, ``key``,
``sha256`` and ``payload``.  A lookup is a hit only when that file
holds the requested key; a file with another key is a plain miss.
Storing a new key for a coordinate replaces the file and counts an
**invalidation** — the observable difference between "new point" and
"this app changed".

Durability and concurrency:

* every write is one :func:`repro.util.atomicio.write_atomic` (temp
  file + fsync + rename + directory fsync), so a reader only ever sees
  a complete entry or none, and two drivers sharing one
  ``--store-dir`` need no lock: each ``put`` replaces one whole file,
  and no shared state is read, modified and written back;
* every entry carries a SHA-256 **payload checksum**; one entry reader
  (:meth:`ResultStore.read_entry`, shared with ``repro fsck``) checks
  it and that the recorded coordinate is the one the file is named
  by.  A corrupt entry (torn write, bit rot, misnamed) is moved to the
  store's ``quarantine/`` directory — capped at the newest
  :data:`QUARANTINE_KEEP` — counted (``StoreStats.quarantined``) and
  reported as a miss, never raised;
* eviction takes no lock either: two drivers evicting at once can at
  worst both drop an old entry, which costs one later miss.

``repro fsck`` (:mod:`repro.pipeline.integrity`) audits every entry,
even while drivers write, and quarantines what it finds.  One
:class:`StoreStats` per store instance keeps its counts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.pipeline.fingerprint import make_key
from repro.util.atomicio import write_atomic

__all__ = [
    "MODEL_VERSION",
    "QUARANTINE_KEEP",
    "SCHEMA_VERSION",
    "CorruptEntry",
    "ResultStore",
    "StoreStats",
    "canonical_payload",
    "payload_checksum",
    "resolve_store_dir",
    "result_key",
]

# The on-disk layout (``v<N>/`` under the root).  A tree of another
# version is neither read nor migrated: the store is a cache, so the
# first run after a bump executes everything again.
SCHEMA_VERSION = 2

# Version of the simulated-machine model the stored results were
# produced by.  Bump on any semantic change to the simulator (miss
# classification, cost model, trace generation): every stored result is
# then unreachable and the next run repopulates the store.
MODEL_VERSION = "sim-v1"

# Entry-count cap (oldest evicted first): bound the on-disk footprint,
# keep the most recently useful evidence.
DEFAULT_KEEP = 4096

# Quarantined (corrupt) entries kept for post-mortem, newest first —
# bounded so a chaos loop that corrupts entries forever cannot grow it.
QUARANTINE_KEEP = 32

ENV_DIR = "REPRO_STORE_DIR"


def canonical_payload(payload: Any) -> str:
    """The canonical JSON text a payload checksum is computed over.

    Idempotent across a JSON round trip (``dumps(loads(dumps(x)))`` is
    the same text), so a checksum written at ``put`` time can be
    verified against the parsed-back payload at read/fsck time.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":"), default=str)


def payload_checksum(payload: Any) -> str:
    """SHA-256 hex digest of the canonical payload text."""
    return hashlib.sha256(canonical_payload(payload).encode()).hexdigest()


def resolve_store_dir(explicit: Optional[str] = None) -> Path:
    """The result-store directory: an explicit path, ``$REPRO_STORE_DIR``,
    or the default ``~/.cache/repro/results``."""
    if explicit:
        return Path(explicit).expanduser()
    env_dir = os.environ.get(ENV_DIR)
    if env_dir:
        return Path(env_dir).expanduser()
    return Path("~/.cache/repro/results").expanduser()


def result_key(
    program_fp: str,
    scheme: str,
    nprocs: int,
    machine_fp: str,
    model_version: str = MODEL_VERSION,
    kind: str = "sim",
    **extras: Any,
) -> str:
    """The SHA-256 store key of one grid point's result."""
    parts = [
        "result", kind, model_version, program_fp, scheme, str(nprocs),
        machine_fp,
    ]
    for name in sorted(extras):
        parts.append(f"{name}={extras[name]}")
    return make_key(parts)


class CorruptEntry(ValueError):
    """An entry file that cannot be trusted.  ``kind`` names the
    damage: ``unparseable``, ``key_mismatch`` (the recorded coordinate
    is not the one the file is named by), ``missing_payload`` or
    ``checksum_mismatch``."""

    def __init__(self, kind: str, reason: str):
        super().__init__(reason)
        self.kind = kind


@dataclass
class StoreStats:
    """Counters for one store instance (always on)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    evictions: int = 0
    corrupt: int = 0
    quarantined: int = 0
    quarantine_evicted: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "quarantine_evicted": self.quarantine_evicted,
            "errors": self.errors,
        }


class ResultStore:
    """Atomic on-disk JSON store of grid-point results, one file per
    grid coordinate.

    The store is driver-side only (workers never touch it), but two
    *drivers* may share one directory: every mutation replaces one
    whole file atomically, so they interleave safely without a lock.
    """

    def __init__(self, root: os.PathLike, keep: int = DEFAULT_KEEP,
                 fsync: bool = True):
        if keep <= 0:
            raise ValueError("store keep cap must be positive")
        self.root = Path(root).expanduser()
        self.keep = keep
        self.fsync = fsync
        self.stats = StoreStats()

    # -- paths -------------------------------------------------------------

    @property
    def _dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    def _path(self, coord: str) -> Path:
        """The one file that may hold ``coord``'s entry."""
        digest = make_key(["coord", coord])
        return self._dir / digest[:2] / f"{digest}.json"

    def _quarantine_dir(self) -> Path:
        return self._dir / "quarantine"

    # -- the one entry reader ----------------------------------------------

    def read_entry(self, path: Path) -> Dict[str, Any]:
        """The entry stored at ``path``, verified.

        Raises ``OSError`` when there is no such file, and
        :class:`CorruptEntry` when the file does not parse, records a
        coordinate other than the one it is named by, has no payload
        object, or fails its payload checksum.
        """
        with open(path) as fh:
            try:
                entry = json.load(fh)
            except ValueError:
                entry = None
        if not isinstance(entry, dict):
            raise CorruptEntry("unparseable", "unparseable entry")
        coord = entry.get("coord")
        if (not isinstance(coord, str)
                or self._path(coord).parts[-2:] != path.parts[-2:]):
            raise CorruptEntry(
                "key_mismatch",
                f"recorded coord {str(coord)[:40]!r} does not match "
                "its file name")
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            raise CorruptEntry("missing_payload",
                               "entry has no payload object")
        if entry.get("sha256") != payload_checksum(payload):
            raise CorruptEntry("checksum_mismatch",
                               "payload checksum mismatch")
        return entry

    # -- lookup ------------------------------------------------------------

    def get(self, coord: str, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored for ``coord`` under ``key``, or ``None``.

        A coordinate whose entry holds another key is a plain miss.  A
        corrupt entry is *quarantined* — moved into the store's
        ``quarantine/`` directory for post-mortem, never silently
        deleted — counted, and reported as a miss.  A read never
        raises.
        """
        path = self._path(coord)
        try:
            entry = self.read_entry(path)
        except OSError:
            entry = None
        except CorruptEntry:
            self.stats.corrupt += 1
            self.quarantine(path)
            entry = None
        if entry is None or entry["key"] != key:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry["payload"]

    def quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``quarantine/`` (best effort — on
        failure the file is deleted; on *that* failing, ignored), and
        prune the quarantine to the newest :data:`QUARANTINE_KEEP`."""
        try:
            qdir = self._quarantine_dir()
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                return
        self.stats.quarantined += 1
        self._prune_quarantine()

    def _prune_quarantine(self) -> None:
        try:
            entries = sorted(
                (p for p in self._quarantine_dir().iterdir()
                 if p.is_file()),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return
        for stale in entries[QUARANTINE_KEEP:]:
            try:
                os.unlink(stale)
            except OSError:
                continue
            self.stats.quarantine_evicted += 1

    def put(self, coord: str, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` as ``coord``'s entry under ``key`` (one
        atomic, fsync'd, checksummed write; failures counted, never
        raised).  Replacing an entry that holds another key counts an
        invalidation."""
        path = self._path(coord)
        try:
            old_key = self.read_entry(path)["key"]
        except (OSError, CorruptEntry):
            old_key = None
        entry = {
            "coord": coord,
            "key": key,
            "sha256": payload_checksum(payload),
            "payload": payload,
        }
        try:
            write_atomic(
                path, json.dumps(entry, sort_keys=True, default=str),
                fsync=self.fsync,
            )
        except Exception:
            self.stats.errors += 1
            return
        self.stats.stores += 1
        if old_key is not None and old_key != key:
            self.stats.invalidations += 1
        self._evict()

    # -- maintenance -------------------------------------------------------

    def _listing(self) -> List[str]:
        """Every entry file's path — the files ``??/*.json`` matches,
        so no ``.tmp`` file of an unfinished write — listed with one
        :func:`os.scandir` per shard; nothing is stat'ed."""
        try:
            with os.scandir(self._dir) as it:
                shards = [e.path for e in it
                          if len(e.name) == 2 and e.is_dir()]
        except OSError:
            return []
        listed: List[str] = []
        for shard in shards:
            try:
                with os.scandir(shard) as it:
                    listed.extend(e.path for e in it
                                  if e.name.endswith(".json"))
            except OSError:
                continue
        return listed

    def _entries(self) -> List[Path]:
        """Every entry file (listed, not stat'ed)."""
        return [Path(p) for p in self._listing()]

    def _evict(self) -> None:
        """Drop oldest entries (by mtime) beyond the ``keep`` cap; below
        the cap nothing is stat'ed.  An entry that vanishes between
        listing and stat — another driver quarantining or evicting it —
        is skipped, not raised."""
        listed = self._listing()
        if len(listed) <= self.keep:
            return
        stamped = []
        for p in listed:
            try:
                stamped.append((os.stat(p).st_mtime, p))
            except OSError:
                continue
        stamped.sort(key=lambda e: e[0], reverse=True)
        for _, stale in stamped[self.keep:]:
            try:
                os.unlink(stale)
            except OSError:
                continue
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._listing())

    def bytes(self) -> int:
        """Total on-disk size of stored entries."""
        total = 0
        for p in self._listing():
            try:
                total += os.stat(p).st_size
            except OSError:
                continue
        return total

    def stats_dict(self) -> Dict[str, int]:
        """JSON-ready statistics including the current footprint."""
        out = self.stats.as_dict()
        out["entries"] = len(self)
        out["bytes"] = self.bytes()
        return out
