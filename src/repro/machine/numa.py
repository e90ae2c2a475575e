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
    addr: np.ndarray, proc: np.ndarray, cfg: NumaConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """First-touch page homing over a globally-ordered stream.

    Returns ``(page_ids, home_cluster_per_access)``: for every access,
    the cluster that homes its page (the cluster of the processor that
    touched the page first).
    """
    if len(addr) == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e
    page = addr // cfg.page_bytes
    # A page's first toucher is at the minimum stream position scattered
    # onto it (one table entry per page id up to the highest).
    first = np.full(int(page.max()) + 1, len(page), dtype=np.int64)
    np.minimum.at(first, page, np.arange(len(page)))
    return page, cfg.cluster_of(proc[first[page]])


def local_miss_mask(
    addr: np.ndarray, proc: np.ndarray, cfg: NumaConfig
) -> np.ndarray:
    """True where an access's page is homed in the accessor's cluster."""
    _, home = first_touch_homes(addr, proc, cfg)
    return home == cfg.cluster_of(proc)
