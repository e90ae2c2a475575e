"""Offline result-store audit — the engine behind ``repro fsck``.

The store's read path already defends itself (checksums, quarantine on
corruption), but only for entries it happens to read.  ``fsck`` walks
*every* entry through the same reader
(:meth:`~repro.pipeline.store.ResultStore.read_entry`) and classifies
each as:

* **ok** — parses, its recorded coordinate is the one its file is
  named by, checksum verifies;
* **corrupt** — unparseable JSON, a recorded coordinate that disagrees
  with the file name (``key_mismatch``), a missing payload, or a
  checksum mismatch: moved to ``quarantine/`` via the store's normal
  quarantine path (``quarantined``), never silently deleted.

The audit takes no lock, so a driver writing into the same store keeps
running.  An entry evicted during the scan is skipped, and one
replaced during it is read whole, old or new (every write is an atomic
rename), so neither is reported as damage.

``repro fsck --strict`` exits nonzero when the report is not
:attr:`~FsckReport.clean` — any quarantine is damage worth failing CI
over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.pipeline.store import CorruptEntry, ResultStore

__all__ = ["FsckReport", "fsck_store"]


@dataclass
class FsckReport:
    """What one fsck pass found (and, unless ``repair=False``, fixed)."""

    scanned: int = 0
    ok: int = 0
    quarantined: int = 0
    unparseable: int = 0
    key_mismatch: int = 0
    checksum_mismatch: int = 0
    missing_payload: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def damage(self) -> int:
        """Count of findings that mean the store was not clean."""
        return (self.unparseable + self.key_mismatch
                + self.checksum_mismatch + self.missing_payload)

    @property
    def clean(self) -> bool:
        return self.damage == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "quarantined": self.quarantined,
            "unparseable": self.unparseable,
            "key_mismatch": self.key_mismatch,
            "checksum_mismatch": self.checksum_mismatch,
            "missing_payload": self.missing_payload,
            "clean": self.clean,
            "problems": list(self.problems),
        }


def fsck_store(store: ResultStore, repair: bool = True) -> FsckReport:
    """Audit every entry of ``store``.

    With ``repair=True`` (the default) each corrupt entry is
    quarantined as it is found; with ``repair=False`` the pass only
    reports.
    """
    report = FsckReport()
    for path in sorted(store._entries()):
        try:
            store.read_entry(path)
        except OSError:
            continue  # evicted or quarantined since the listing
        except CorruptEntry as exc:
            setattr(report, exc.kind, getattr(report, exc.kind) + 1)
            report.problems.append(f"{path.name}: {exc}")
            if repair:
                store.quarantine(path)
                report.quarantined += 1
        else:
            report.ok += 1
        report.scanned += 1
    return report
