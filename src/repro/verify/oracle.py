"""The semantic verification oracle.

Executes a compiled :class:`~repro.codegen.spmd.SpmdProgram` the way the
generated SPMD code would run — every statement instance performed
exactly once by its owning processor, all reads and writes addressed
through the (possibly strip-mined + permuted + padded) transformed
layouts' div/mod linearization, replicated arrays held as per-processor
copies — and compares array contents element-wise against a sequential
interpretation of the *untransformed* source program, in lockstep after
every phase.

What a divergence means:

* at ``phase="init"`` — the layout scatter already lost information:
  two elements collided on one address (the legality invariant
  :meth:`~repro.datatrans.layout.Layout.is_bijective` is also probed
  directly and reported as such);
* at a real phase — the restructured nest, the ownership plan, or the
  transformed addressing changed the values the program computes
  (e.g. a stale replicated copy, a wrong unimodular transformation, or
  an address-collision only exercised by that nest's reference
  pattern).

The oracle interprets both sides in sequential program order, so it
verifies the *data* semantics of the compilation (addressing, coverage,
replication); interleaving legality of the synchronization placement is
the dependence framework's responsibility and is tested separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.codegen.executor import default_init, run_nest
from repro.codegen.spmd import SpmdProgram
from repro.errors import VerifyError
from repro.ir.program import Program

__all__ = ["Divergence", "VerifyResult", "verify_spmd"]


@dataclass
class Divergence:
    """First point where the SPMD execution left the reference."""

    array: str
    index: Tuple[int, ...]
    expected: float
    actual: float
    proc: Optional[int]  # data owner of the element (None: undistributed)
    copy: Optional[int]  # replicated copy that diverged (None otherwise)
    phase: str  # nest name, or "init"/"layout"
    phase_index: int
    step: int

    def describe(self) -> str:
        where = f"{self.array}{list(self.index)}"
        own = f" owner=P{self.proc}" if self.proc is not None else ""
        cp = f" copy=P{self.copy}" if self.copy is not None else ""
        return (
            f"first divergence at {where}: expected {self.expected!r}, "
            f"got {self.actual!r} (phase={self.phase!r} "
            f"#{self.phase_index}, step={self.step}{own}{cp})"
        )


@dataclass
class VerifyResult:
    """Outcome of one oracle run."""

    program: str
    scheme: str
    nprocs: int
    ok: bool
    phases_checked: int = 0
    elements_checked: int = 0
    elapsed: float = 0.0
    divergence: Optional[Divergence] = None
    reason: str = ""

    def summary(self) -> str:
        head = (
            f"{self.program}/{self.scheme} P={self.nprocs}: "
            f"{'ok' if self.ok else 'FAIL'}"
        )
        if self.ok:
            return (
                f"{head} ({self.phases_checked} phase checks, "
                f"{self.elements_checked} element compares)"
            )
        detail = self.reason or (
            self.divergence.describe() if self.divergence else "?"
        )
        return f"{head} — {detail}"

    def raise_on_failure(self) -> "VerifyResult":
        if not self.ok:
            raise VerifyError(
                self.reason
                or (self.divergence.describe() if self.divergence else
                    "verification failed"),
                app=self.program,
                scheme=self.scheme,
                nprocs=self.nprocs,
            )
        return self


# -- transformed-storage bookkeeping ----------------------------------------

class _SpmdStore:
    """Flat transformed-layout storage for every array.

    Non-replicated arrays live once (shared memory); replicated arrays
    keep one copy per processor, written broadcast-style (the SPMD code
    for replicated data executes redundantly on every processor)."""

    def __init__(self, spmd: SpmdProgram, init: Mapping[str, np.ndarray]):
        self.nprocs = spmd.nprocs
        self.lin: Dict[str, np.ndarray] = {}
        self.owner_pid: Dict[str, Optional[np.ndarray]] = {}
        self.flat: Dict[str, np.ndarray] = {}
        self.replicated: Dict[str, bool] = {}
        for name, ta in spmd.transformed.items():
            dims = ta.decl.dims
            coords = [g.reshape(-1) for g in np.indices(dims)]
            lin = np.asarray(
                ta.layout.linearize_vec(coords), dtype=np.int64
            ).reshape(dims)
            self.lin[name] = lin
            self.owner_pid[name] = _data_owner_map(ta, spmd.grid)
            self.replicated[name] = bool(ta.replicated)
            size = ta.layout.size
            flat = np.zeros(size, dtype=np.float64)
            flat.reshape(-1)[lin.reshape(-1)] = np.asarray(
                init[name], dtype=np.float64
            ).reshape(-1)
            if ta.replicated:
                flat = np.tile(flat, (self.nprocs, 1))
            self.flat[name] = flat

    def read(self, name: str, index: Tuple[int, ...], proc: int) -> float:
        addr = self.lin[name][index]
        if self.replicated[name]:
            return self.flat[name][proc, addr]
        return self.flat[name][addr]

    def write(self, name: str, index: Tuple[int, ...], value: float) -> None:
        addr = self.lin[name][index]
        if self.replicated[name]:
            self.flat[name][:, addr] = value
        else:
            self.flat[name][addr] = value

    def gather(self, name: str, copy: int = 0) -> np.ndarray:
        """Array contents seen through the original index space."""
        lin = self.lin[name]
        flat = self.flat[name]
        if self.replicated[name]:
            flat = flat[copy]
        return flat[lin]


def _data_owner_map(ta, grid) -> Optional[np.ndarray]:
    """Owning-processor id of every element (None if undistributed)."""
    if not ta.owner_specs:
        return None
    grids = np.indices(ta.decl.dims)
    specs = {s.proc_dim: s for s in ta.owner_specs}
    pid = np.zeros(ta.decl.dims, dtype=np.int64)
    for dim in range(len(grid) - 1, -1, -1):
        g = grid[dim] if dim < len(grid) else 1
        s = specs.get(dim)
        coord = s.owner_vec(grids[s.src]) if s is not None else 0
        pid = pid * g + coord
    return pid


# -- interpreters ------------------------------------------------------------

def _run_spmd_phase(spmd: SpmdProgram, phase_idx: int,
                    store: _SpmdStore) -> None:
    """Execute one phase the SPMD way: each statement instance runs once,
    on its owning processor, addressed through the transformed layouts."""
    phase = spmd.phases[phase_idx]
    nest = phase.nest
    params = spmd.program.params
    depth = nest.depth
    stmts_by_level: Dict[int, List[Tuple[int, object]]] = {}
    for s, st in enumerate(nest.body):
        d = st.depth if st.depth is not None else depth
        stmts_by_level.setdefault(d, []).append((s, st))
    env = dict(params)

    def exec_level(level: int) -> None:
        for s, st in stmts_by_level.get(level, ()):
            proc = phase.owners[s].owner_at(
                env, nest, params, spmd.nprocs, spmd.grid
            )
            vals = [
                store.read(r.array.name, r.index_at(env), proc)
                for r in st.reads
            ]
            result = (
                st.compute(*vals) if st.compute is not None
                else float(sum(vals))
            )
            store.write(st.write.array.name, st.write.index_at(env), result)
        if level == depth:
            return
        loop = nest.loops[level]
        lo = loop.lower.eval(env)
        hi = loop.upper.eval(env)
        for v in range(lo, hi + 1):
            env[loop.var] = v
            exec_level(level + 1)
        env.pop(loop.var, None)

    exec_level(0)


# -- comparison --------------------------------------------------------------

def _first_divergence(
    ref: Dict[str, np.ndarray],
    store: _SpmdStore,
    phase: str,
    phase_index: int,
    step: int,
) -> Tuple[Optional[Divergence], int]:
    """Element-wise compare (bit-identical, NaN==NaN) of every array;
    returns (divergence-or-None, elements compared)."""
    checked = 0
    for name in sorted(ref):
        expect = ref[name]
        copies = range(store.nprocs) if store.replicated[name] else (0,)
        for copy in copies:
            got = store.gather(name, copy)
            checked += expect.size
            eq = (got == expect) | (np.isnan(got) & np.isnan(expect))
            if bool(eq.all()):
                continue
            idx = tuple(int(i) for i in np.argwhere(~eq)[0])
            owners = store.owner_pid[name]
            return (
                Divergence(
                    array=name,
                    index=idx,
                    expected=float(expect[idx]),
                    actual=float(got[idx]),
                    proc=int(owners[idx]) if owners is not None else None,
                    copy=copy if store.replicated[name] else None,
                    phase=phase,
                    phase_index=phase_index,
                    step=step,
                ),
                checked,
            )
    return None, checked


# -- entry point -------------------------------------------------------------

def verify_spmd(
    spmd: SpmdProgram,
    reference: Program,
    init: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 12345,
) -> VerifyResult:
    """Verify one compiled plan against its untransformed source.

    ``reference`` must be the *original* program handed to the compiler
    (``spmd.program`` is its restructured form); both are interpreted in
    lockstep and compared after every phase of every time step.
    """
    t0 = time.perf_counter()
    result = VerifyResult(
        program=reference.name,
        scheme=spmd.scheme.value,
        nprocs=spmd.nprocs,
        ok=False,
    )
    with obs.span("verify.oracle", cat="verify", program=reference.name,
                  scheme=spmd.scheme.value, nprocs=spmd.nprocs) as sp:
        _verify_impl(spmd, reference, init, seed, result)
        result.elapsed = time.perf_counter() - t0
        sp.set(ok=result.ok, phases=result.phases_checked,
               elements=result.elements_checked)
    return result


def _verify_impl(spmd, reference, init, seed, result: VerifyResult) -> None:
    if len(spmd.phases) != len(reference.nests):
        result.reason = (
            f"phase/nest count mismatch: {len(spmd.phases)} phases vs "
            f"{len(reference.nests)} source nests"
        )
        return

    # Legality pre-check: every transformed layout must be a bijection
    # on the original index space.
    for name, ta in sorted(spmd.transformed.items()):
        if not ta.layout.is_bijective():
            result.reason = (
                f"layout of {name} is not bijective: {ta.layout!r} "
                f"(distinct elements share an address)"
            )
            return

    base = init if init is not None else default_init(reference, seed=seed)
    ref: Dict[str, np.ndarray] = {
        name: np.array(base[name], dtype=np.float64)
        for name in reference.arrays
    }
    store = _SpmdStore(spmd, ref)

    # The scatter/gather round trip must already be exact.
    div, checked = _first_divergence(ref, store, "init", -1, -1)
    result.elements_checked += checked
    result.phases_checked += 1
    if div is not None:
        result.divergence = div
        return

    steps = max(1, reference.time_steps)
    for step in range(steps):
        for k, nest in enumerate(reference.nests):
            reps = max(1, nest.frequency)
            for _ in range(reps):
                run_nest(nest, ref, reference.params)
                _run_spmd_phase(spmd, k, store)
            div, checked = _first_divergence(
                ref, store, nest.name, k, step
            )
            result.elements_checked += checked
            result.phases_checked += 1
            if div is not None:
                result.divergence = div
                return
    result.ok = True
