"""The compiler core and the grid engine around it.

:class:`~repro.pipeline.session.CompileSession` is the one compile
driver: it runs the four stages of :mod:`repro.pipeline.passes`
(restructure → decompose → layout → spmd) and memoizes each artifact
by program content in an in-memory LRU.  :mod:`repro.compiler` keeps
the ``compile_program`` / ``compile_all`` / ``restructure_program``
functions as thin wrappers over the process-wide default session.

:mod:`repro.pipeline.grid` is the grid engine: one enumeration
(:func:`~repro.pipeline.grid.make_grid`) and mapping from a point to
its program, machine and store key, which ``repro bench``, ``repro
perf`` and the verifier use to drive their own loops, and one hardened
wave executor (:func:`~repro.pipeline.grid.run_grid`) fanning
``(app, scheme, nprocs)`` points across a process pool with per-point
error isolation, behind ``repro batch`` and ``repro run``.
:mod:`repro.pipeline.store`, the one disk layer, persists each point's
result under a content-addressed key (program x scheme x procs x
machine x model version) so incremental reruns execute only what
changed.
"""

from repro.pipeline.fingerprint import (
    fingerprint_decomposition,
    fingerprint_program,
    make_key,
)
from repro.pipeline.grid import (
    GridPoint,
    GridResult,
    make_grid,
    point_key,
    point_machine,
    point_program,
    run_grid,
)
from repro.pipeline.store import (
    MODEL_VERSION,
    ResultStore,
    StoreStats,
    resolve_store_dir,
)
from repro.pipeline.session import (
    CompileSession,
    get_session,
    reset_session,
    set_session,
)

__all__ = [
    "fingerprint_program",
    "fingerprint_decomposition",
    "make_key",
    "GridPoint",
    "GridResult",
    "make_grid",
    "point_key",
    "point_machine",
    "point_program",
    "run_grid",
    "MODEL_VERSION",
    "ResultStore",
    "StoreStats",
    "resolve_store_dir",
    "CompileSession",
    "get_session",
    "set_session",
    "reset_session",
]
