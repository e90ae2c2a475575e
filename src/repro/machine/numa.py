"""NUMA memory homing (DASH clusters + first-touch pages).

DASH groups 4 processors per cluster; the OS allocates memory to
clusters at page granularity, assigning each page to the cluster that
first touches it (Section 6.1).  A cache miss is *local* when the
missing processor's cluster homes the page, else *remote* — the 30 vs
100-130 cycle distinction that makes data placement matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class NumaConfig:
    page_bytes: int = 4096
    cluster_size: int = 4

    def cluster_of(self, proc: np.ndarray) -> np.ndarray:
        return proc // self.cluster_size


def first_touch_homes(
    addr: np.ndarray, proc: np.ndarray, cfg: NumaConfig,
    homes: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """First-touch page homing over a globally-ordered stream.

    Returns ``(page_ids, home_cluster_per_access)``: for every access,
    the cluster that homes its page (the cluster of the processor that
    touched the page first).  ``homes`` is as for
    :func:`local_miss_mask`.
    """
    if len(addr) == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e
    page = addr // cfg.page_bytes
    npages = int(page.max()) + 1
    if homes is None:
        homes = np.full(npages, -1, dtype=np.int64)
    # Page by page: a page an earlier chunk touched keeps its home, so
    # only the accesses to pages with no home yet are scattered.  When
    # no page has one, the small table says so and the stream is not
    # gathered.
    carried = homes[:npages]
    unhomed = carried < 0
    if unhomed.any():
        if unhomed.all():
            at, touched = np.arange(len(page)), page
        else:
            at = np.flatnonzero(unhomed[page])
            touched = page[at]
        # A page's first toucher is at the minimum stream position
        # scattered onto it (one table entry per page id up to the
        # highest).
        first = np.full(npages, len(page), dtype=np.int64)
        np.minimum.at(first, touched, at)
        new = first < len(page)
        carried[new] = cfg.cluster_of(proc[first[new]])
    return page, carried.astype(proc.dtype)[page]


def local_miss_mask(
    addr: np.ndarray, proc: np.ndarray, cfg: NumaConfig,
    homes: "np.ndarray | None" = None,
) -> np.ndarray:
    """True where an access's page is homed in the accessor's cluster.

    ``homes``, a table of every page's home cluster (-1 until its first
    touch), makes the stream one chunk of a longer one: a page an
    earlier chunk touched keeps its home, and the table gains the homes
    of the pages this chunk touches first."""
    _, home = first_touch_homes(addr, proc, cfg, homes)
    return home == cfg.cluster_of(proc)
