"""Trace-driven multiprocessor memory-system model (the DASH substitute).

The paper's measurements come from running compiler-generated SPMD C
code on the 32-processor Stanford DASH machine (64KB direct-mapped
first-level caches, 16-byte lines, 4-processor clusters, page-level
first-touch memory homing, access-time ratios 1:10:30:100).  Everything
those measurements depend on — spatial locality, false sharing, conflict
misses, NUMA locality, synchronization cost — is a function of the
per-processor address streams and the machine geometry, so this package
replays exactly that:

* :mod:`trace` turns an SPMD plan into per-processor address streams
  (fully vectorized over NumPy);
* :mod:`cache` simulates the private direct-mapped caches per set;
* :mod:`coherence` overlays invalidation-based coherence, classifying
  cold / replacement (conflict+capacity) / true-sharing / false-sharing
  misses — an exact event-order simulator for tests and a vectorized
  global-order simulator for the benchmark sweeps;
* :mod:`numa` homes pages by first touch and splits misses into local
  and remote;
* :mod:`cost` turns counts into cycles, adds synchronization and
  pipeline models, and computes speedups;
* :mod:`dash` provides the (scaled) DASH machine configurations;
* :mod:`simulate` drives a whole program through the model.
"""

import ctypes
import os

from repro.machine.cache import CacheConfig
from repro.machine.dash import DashConfig, dash_machine, scaled_dash
from repro.machine.simulate import SimResult, simulate, speedup_curve

# glibc's malloc serves a block above its mmap threshold with a fresh
# mapping, unmapped on free, and trims the free top of its heap once it
# passes the trim threshold.  Left to itself it raises the first to the
# largest mmapped block freed so far and the second to twice that: a
# few MB here, below what one chunk's classification needs on top of
# the heap it keeps.  So every trace, classify, NUMA and locality call
# grew the heap into fresh pages and trimmed it on return, and the next
# call faulted the same pages in again, zero-filled: 130-160 K minor
# faults per pass of the benchmark's `lu-cliff` or `figure-sweep`
# workload, a tenth to a fifth of its CPU time spent in the kernel.
# Pinned, the scratch stays in the heap between calls.  32 MiB is the
# ceiling glibc's own rule stops at on 64-bit and 64 MiB keeps its 2x
# ratio, so a block above 32 MiB is still unmapped on free and a free
# heap top above 64 MiB is still trimmed.
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 64 * 2**20


def pin_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds to :data:`MMAP_THRESHOLD`
    and :data:`TRIM_THRESHOLD` for the whole process; True when both
    were set.  Where the C library is not glibc it does nothing and
    returns False.  Importing this package calls it."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not glibc:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD -3 in <malloc.h>.
    trim_set = mallopt(-1, TRIM_THRESHOLD)
    mmap_set = mallopt(-3, MMAP_THRESHOLD)
    return trim_set == 1 and mmap_set == 1


pin_malloc_thresholds()

__all__ = [
    "CacheConfig",
    "DashConfig",
    "dash_machine",
    "scaled_dash",
    "SimResult",
    "simulate",
    "speedup_curve",
]
