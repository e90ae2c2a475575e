"""The pass-pipeline compiler core.

The compile-and-simulate path is organized as an explicit pipeline of
typed passes (restructure → decompose → layout → spmd-codegen) run by a
:class:`~repro.pipeline.manager.PassManager` against a
content-addressed, in-memory :class:`~repro.pipeline.cache.ArtifactCache`.
A :class:`~repro.pipeline.session.CompileSession` fronts the
pipeline; :mod:`repro.compiler` keeps the historical
``compile_program`` / ``compile_all`` / ``restructure_program``
signatures as thin wrappers over the process-wide default session.

:mod:`repro.pipeline.grid` is the shared grid engine — one
enumeration (:class:`~repro.pipeline.grid.GridSpec`) and one hardened
wave executor fanning ``(app, scheme, nprocs)`` points across a
process pool with per-point error isolation — consumed by ``repro
batch``, the benchmark harness, and the verifier.
:mod:`repro.pipeline.store`, the one disk layer, persists each point's
result under a content-addressed key (program x scheme x procs x
machine x model version) so incremental reruns execute only what
changed.
"""

from repro.pipeline.cache import MISS, ArtifactCache, CacheStats
from repro.pipeline.fingerprint import (
    fingerprint_decomposition,
    fingerprint_program,
    make_key,
)
from repro.pipeline.grid import (
    GridPoint,
    GridResult,
    GridSpec,
    execute_grid,
    make_grid,
    point_key,
    point_machine,
    point_program,
    run_grid,
)
from repro.pipeline.manager import PassManager
from repro.pipeline.store import (
    MODEL_VERSION,
    ResultStore,
    StoreStats,
    resolve_store_dir,
)
from repro.pipeline.passes import (
    ALL_PASSES,
    ART_DECOMPOSITION,
    ART_LAYOUT,
    ART_PROGRAM,
    ART_RESTRUCTURED,
    ART_SPMD,
    ART_VERIFY,
    DecomposePass,
    LayoutPass,
    Pass,
    PassContext,
    RestructurePass,
    SpmdCodegenPass,
    VerifyPass,
)
from repro.pipeline.session import (
    CompileSession,
    get_session,
    reset_session,
    set_session,
)

__all__ = [
    "MISS",
    "ArtifactCache",
    "CacheStats",
    "fingerprint_program",
    "fingerprint_decomposition",
    "make_key",
    "GridPoint",
    "GridResult",
    "GridSpec",
    "execute_grid",
    "make_grid",
    "point_key",
    "point_machine",
    "point_program",
    "run_grid",
    "MODEL_VERSION",
    "ResultStore",
    "StoreStats",
    "resolve_store_dir",
    "PassManager",
    "Pass",
    "PassContext",
    "RestructurePass",
    "DecomposePass",
    "LayoutPass",
    "SpmdCodegenPass",
    "VerifyPass",
    "ALL_PASSES",
    "ART_PROGRAM",
    "ART_RESTRUCTURED",
    "ART_DECOMPOSITION",
    "ART_LAYOUT",
    "ART_SPMD",
    "ART_VERIFY",
    "CompileSession",
    "get_session",
    "set_session",
    "reset_session",
]
