"""repro — reproduction of "Data and Computation Transformations for
Multiprocessors" (Anderson, Amarasinghe & Lam, PPoPP 1995).

Public API map:

* :mod:`repro.ir` — the affine loop-nest IR and builder DSL;
* :mod:`repro.analysis` — dependence tests and unimodular restructuring;
* :mod:`repro.decomp` — phase 1: computation/data decomposition;
* :mod:`repro.datatrans` — phase 2: strip-mine + permute layouts;
* :mod:`repro.codegen` — SPMD generation, address optimizations, C
  emission, semantic execution;
* :mod:`repro.machine` — the scaled-DASH memory-system model;
* :mod:`repro.apps` — the paper's benchmark programs;
* :mod:`repro.compiler` — the three Section-6 pipelines;
* :mod:`repro.verify` — the semantic verification oracle;
* :mod:`repro.errors` / :mod:`repro.faults` — typed failures and
  deterministic fault injection;
* :mod:`repro.report` — experiment formatting.
"""

from repro.compiler import Scheme, compile_all, compile_program
from repro.errors import (
    CompileError,
    FaultInjected,
    LegalityError,
    ReproError,
    SimulationError,
    VerifyError,
)

__version__ = "1.0.0"

__all__ = [
    "Scheme",
    "compile_all",
    "compile_program",
    "ReproError",
    "CompileError",
    "LegalityError",
    "SimulationError",
    "VerifyError",
    "FaultInjected",
    "__version__",
]
