"""Atomic, durable file writes — the one implementation.

The result store (:mod:`repro.pipeline.store`), the run journal's
``latest`` pointer and ``repro bench --json`` snapshots
(:mod:`repro.obs.bench`) all write through this function.  The write protocol is the standard
crash-safe sequence:

1. create a temp file *in the destination directory* (same filesystem,
   so the final rename is atomic);
2. write the full payload, ``flush`` + ``fsync`` it (data reaches the
   platter, not just the page cache);
3. ``os.replace`` over the destination (atomic on POSIX);
4. ``fsync`` the destination directory so the rename itself is durable.

A reader therefore only ever observes the old content or the complete
new content — never a prefix.  ``fsync=False`` skips both syncs for
callers that prefer throughput over durability (e.g. the bench
snapshot, which a crash costs at most the newest run of).

Fault injection (:mod:`repro.faults`) hooks the write path so chaos
tests can reach every recovery branch deterministically:

* ``disk.enospc`` — the write raises ``OSError(ENOSPC)`` before any
  byte lands (the temp file is cleaned up);
* ``disk.torn_write`` — only a prefix of the payload reaches the
  destination and the syncs are skipped, simulating a torn write that
  a crash (or a lying disk) made visible.  ``repro fsck`` and the
  corrupt-entry quarantine paths exist to detect exactly this.
"""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path
from typing import Union

from repro import faults

__all__ = ["fsync_dir", "write_atomic"]


def fsync_dir(path: os.PathLike) -> None:
    """Best-effort fsync of a directory (makes a rename durable)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: os.PathLike, data: Union[str, bytes],
                 fsync: bool = True, mkdirs: bool = True) -> Path:
    """Atomically replace ``path`` with ``data`` (str or bytes).

    Raises ``OSError`` on failure (callers decide whether a failed
    write is fatal); on any failure the temp file is removed, the
    destination is untouched.  Returns the destination path.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    if faults.should_fire("disk.enospc"):
        raise OSError(errno.ENOSPC,
                      "no space left on device (injected fault)")
    torn = faults.should_fire("disk.torn_write")
    if torn:
        # A torn write lands a prefix and never syncs: the rename still
        # happens (the crash is modeled as occurring after it), so the
        # truncated payload is what the next reader sees.
        data = data[: len(data) // 2]
        fsync = False
    if mkdirs:
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(path.parent)
    return path
