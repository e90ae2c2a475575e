"""Greedy whole-program decomposition (the paper's Section 3.2).

Nests are processed in decreasing execution-weight order.  For each nest
the driver tries a ladder of progressively weaker constraint sets and
keeps the first rung that preserves parallelism (achievable C-rank >= 1)
for every statement admitted so far:

1. strict — all references local (Equation 1) and dependent iterations
   co-located (zero communication, doall);
2. replicate — as strict, after replicating program-read-only arrays the
   nest reads (the paper: "read-only and seldom-written data can be
   replicated");
3. owner-computes — only write references constrain the decomposition;
   reads may be remote;
4. pipeline — references constrain as in (2) but carried dependences are
   allowed to cross processors; the nest executes as a doacross pipeline
   with point-to-point synchronization;
5. pipeline + owner-computes — both relaxations.

A nest for which even rung 5 yields no parallelism is *excluded*: it
receives its own local decomposition, with (infrequent) communication at
the region boundary — the paper's "different data decompositions for
different parts of the program".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.obs import provenance
from repro.analysis.dependence import Dependence, analyze_nest
from repro.analysis.unimodular import _obstruction_rows
from repro.decomp.folding import choose_folding
from repro.decomp.model import (
    CompDecomp,
    DataDecomp,
    Decomposition,
)
from repro.decomp.solver import (
    RefConstraint,
    StmtEntry,
    achievable_entry_ranks,
    solve_group,
)
from repro.ir.loops import LoopNest
from repro.ir.program import Program


@dataclass
class _NestInfo:
    nest: LoopNest
    deps: List[Dependence]
    obstructions: List[List[int]]
    entries: List[StmtEntry]
    weight: int


def _stmt_entries(
    nest: LoopNest, obstructions: List[List[int]], frequency: int,
    params: Mapping[str, int],
) -> List[StmtEntry]:
    out = []
    for s, st in enumerate(nest.body):
        depth = st.depth if st.depth is not None else nest.depth
        loop_vars = nest.loop_vars[:depth]
        partial = LoopNest(name=nest.name, loops=nest.loops[:depth], body=[])
        weight = frequency * max(1, partial.count_iterations(params))
        refs = []
        af = st.write.access_function(loop_vars)
        refs.append(
            RefConstraint(
                st.write.array.name,
                [list(r) for r in af.matrix],
                True,
                offset=[e.eval(params) for e in af.offset],
            )
        )
        for r in st.reads:
            af = r.access_function(loop_vars)
            refs.append(
                RefConstraint(
                    r.array.name,
                    [list(rr) for rr in af.matrix],
                    False,
                    offset=[e.eval(params) for e in af.offset],
                )
            )
        out.append(
            StmtEntry(
                nest=nest.name,
                stmt=s,
                depth=depth,
                refs=refs,
                obstructions=[list(o[:depth]) for o in obstructions],
                weight=weight,
            )
        )
    return out


def _read_only_arrays(prog: Program) -> Set[str]:
    written = set()
    for nest in prog.nests:
        for st in nest.body:
            written.add(st.write.array.name)
    return set(prog.arrays) - written


def _configured(
    entries: Sequence[StmtEntry], use_reads: bool, use_parallel: bool
) -> List[StmtEntry]:
    return [
        StmtEntry(
            nest=e.nest,
            stmt=e.stmt,
            depth=e.depth,
            refs=e.refs,
            obstructions=e.obstructions,
            weight=e.weight,
            use_reads=use_reads,
            use_parallel=use_parallel,
        )
        for e in entries
    ]


def decompose_program(
    prog: Program,
    nprocs: int,
    max_dims: int = 2,
    deps_by_nest: Optional[Mapping[str, List[Dependence]]] = None,
) -> Decomposition:
    """Run the greedy decomposition over a whole program."""
    with obs.span("decomp.greedy", cat="decomp", program=prog.name,
                  nprocs=nprocs, max_dims=max_dims) as sp:
        decomp = _decompose_impl(prog, nprocs, max_dims, deps_by_nest)
        sp.set(rank=decomp.rank,
               pipelined=len(decomp.pipelined_nests),
               excluded=len(decomp.excluded_nests))
        return decomp


def _decompose_impl(
    prog: Program,
    nprocs: int,
    max_dims: int = 2,
    deps_by_nest: Optional[Mapping[str, List[Dependence]]] = None,
) -> Decomposition:
    array_ranks = {n: prog.arrays[n].rank for n in prog.arrays}
    read_only = _read_only_arrays(prog)

    infos: List[_NestInfo] = []
    for nest in prog.nests:
        deps = (
            list(deps_by_nest[nest.name])
            if deps_by_nest and nest.name in deps_by_nest
            else analyze_nest(nest, prog.params)
        )
        obstructions = _obstruction_rows(deps, nest.depth)
        weight = nest.frequency * max(1, nest.count_iterations(prog.params))
        infos.append(
            _NestInfo(
                nest=nest,
                deps=deps,
                obstructions=obstructions,
                entries=_stmt_entries(
                    nest, obstructions, nest.frequency, prog.params
                ),
                weight=weight,
            )
        )

    order = sorted(range(len(infos)), key=lambda k: -infos[k].weight)

    included: List[StmtEntry] = []
    replicated: Set[str] = set()
    pipelined: List[str] = []
    excluded: List[str] = []
    notes: List[str] = []

    # Relaxation ladder: (replicate?, use_reads, use_parallel, label)
    LADDER = [
        (False, True, True, "strict"),
        (True, True, True, "replicate"),
        (False, False, True, "owner-computes"),
        (True, False, True, "replicate+owner-computes"),
        (False, True, False, "pipeline"),
        (True, True, False, "replicate+pipeline"),
        (False, False, False, "pipeline+owner-computes"),
        (True, False, False, "replicate+pipeline+owner-computes"),
    ]

    for k in order:
        info = infos[k]
        accepted = False
        rungs_tried: List[str] = []
        for do_replicate, use_reads, use_parallel, label in LADDER:
            rungs_tried.append(label)
            trial_repl = set(replicated)
            if do_replicate:
                nest_read_only = {
                    a.name for a in info.nest.arrays_read()
                } & read_only
                if not nest_read_only - trial_repl:
                    continue  # nothing new to replicate on this rung
                trial_repl |= nest_read_only
            trial = included + _configured(info.entries, use_reads, use_parallel)
            ranks = achievable_entry_ranks(trial, array_ranks, trial_repl)
            if ranks and min(ranks.values()) >= 1:
                included = trial
                replicated = trial_repl
                if not use_parallel and any(
                    d.level >= 0 for d in info.deps
                ):
                    pipelined.append(info.nest.name)
                if label != "strict":
                    notes.append(f"{info.nest.name}: accepted at rung '{label}'")
                provenance.record(
                    "decomp.ladder", stage="decomposition",
                    subject=info.nest.name, chosen=label,
                    alternatives=[l for *_cfg, l in LADDER],
                    reason="first rung preserving parallelism",
                    weight=info.weight, rungs_tried=rungs_tried,
                    min_rank=min(ranks.values()),
                    replicated=sorted(trial_repl),
                    pipelined=info.nest.name in pipelined,
                )
                accepted = True
                break
        if not accepted:
            excluded.append(info.nest.name)
            notes.append(
                f"{info.nest.name}: no joint decomposition with parallelism; "
                "separate region (communication at boundary)"
            )
            provenance.record(
                "decomp.ladder", stage="decomposition",
                subject=info.nest.name, chosen="excluded",
                alternatives=[l for *_cfg, l in LADDER] + ["excluded"],
                reason="no rung preserves parallelism",
                weight=info.weight, rungs_tried=rungs_tried,
            )

    solution = solve_group(included, array_ranks, replicated, max_dims=max_dims)

    decomp = Decomposition(rank=solution.rank)
    decomp.pipelined_nests = pipelined
    decomp.excluded_nests = excluded
    decomp.notes = notes
    for (nest_name, stmt), mat in solution.comp_matrices.items():
        decomp.comp[(nest_name, stmt)] = CompDecomp(
            nest=nest_name, stmt=stmt, matrix=mat, offset=[0] * len(mat)
        )
    for array, mat in solution.data_matrices.items():
        decomp.data[array] = DataDecomp(
            array=array,
            matrix=mat,
            offset=[0] * len(mat),
            replicated=array in replicated,
        )
    # Replicated arrays that never entered the solver still need entries.
    for array in replicated:
        if array not in decomp.data:
            decomp.data[array] = DataDecomp(
                array=array,
                matrix=[[0] * array_ranks[array] for _ in range(solution.rank)],
                offset=[0] * solution.rank,
                replicated=True,
            )
    decomp.foldings = choose_folding(prog, decomp, nprocs)
    return decomp
