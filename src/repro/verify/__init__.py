"""repro.verify — the semantic verification oracle.

The paper's contract is that the compiler transforms *where* data live
and *who* computes, never *what* is computed.  This package checks that
contract end to end: :func:`verify_spmd` executes a compiled SPMD plan
(all processors, transformed layouts, div/mod addressing, replicated
copies) in lockstep with a sequential interpretation of the
untransformed source and compares array contents bit-for-bit after
every phase, reporting first-divergence diagnostics (array, index,
owning processor, phase, time step).

Entry points:

* :func:`verify_spmd` — oracle for one compiled plan;
* :func:`verify_point` / :func:`verify_grid` — compile-and-verify
  drivers over ``app × scheme × nprocs`` coordinates (the
  ``python -m repro verify`` command and the ``--verify`` flags of
  ``run`` and ``batch``).
"""

from repro.verify.oracle import Divergence, VerifyResult, verify_spmd
from repro.verify.runner import (
    DEFAULT_VERIFY_N,
    DEFAULT_VERIFY_PROCS,
    format_verify_table,
    grid_ok,
    verify_grid,
    verify_point,
)

__all__ = [
    "Divergence",
    "VerifyResult",
    "verify_spmd",
    "DEFAULT_VERIFY_N",
    "DEFAULT_VERIFY_PROCS",
    "format_verify_table",
    "grid_ok",
    "verify_grid",
    "verify_point",
]
