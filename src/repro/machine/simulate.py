"""Whole-program simulation driver.

Replays an SPMD program's address traces through the private-cache +
coherence + NUMA models and assembles per-phase and total times.  The
phase sequence of one time step is one round.  A program with T > 1
time steps costs ``round0 + (T-1) * round1``: round 0 pays the cold
misses and round 1 is the steady state.  Round 1 differs from round 0
only where a processor first touches a line in the round; there the
history wraps round to that processor's last touch of the line in the
previous round.  Every later round sees the same wrapped history, so
round 1 stands exactly for rounds 1 to T-1.

A round of up to :data:`CHUNK_FLOOR` accesses is one chunk: it is
traced and classified whole, and round 1 comes from
``classify_accesses(..., rounds=2)``, which derives it from round 0's
group orders.  A longer round is walked as a sequence of chunks, each
classified with the :class:`~repro.machine.coherence.CoherenceHistory`
and the page homes that the chunks before it leave behind, so no array
of the whole round is ever built.  Small phases are packed whole into a
chunk and a larger one is cut between iterations of its outermost
loop.  A chunk holds about ``max(CHUNK_FLOOR, HISTORY_RATIO * h)``
accesses, h the carried history's length, so that classifying the
history stays a small part of each chunk.  Round 1 of such a program
is traced and classified again, chunk by chunk, after round 0's
history: recomputing it costs the time of a round and saves holding
one.  Per-phase cycles, miss classes and the detail fields are summed
over the chunks; nothing is concatenated across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.codegen.spmd import Scheme, SpmdProgram
from repro.machine.coherence import (
    OUTCOMES,
    REMOTE,
    AccessClassification,
    CoherenceHistory,
    classify_accesses,
)
from repro.machine.cost import (
    FROM_MEMORY,
    REMOTE_BINS,
    TALLY,
    PhaseCost,
    per_proc_cycles,
    phase_time,
)
from repro.machine.dash import DashConfig
from repro.machine.numa import local_miss_mask
from repro.machine.trace import (
    AddressSpace,
    accesses_at_most,
    outer_blocks,
    program_traces,
)

CHUNK_FLOOR = 2**18
"""Accesses of the smallest chunk; a round this long or shorter is
classified whole."""

HISTORY_RATIO = 4
"""A chunk holds at least this many times as many accesses as the
carried history has events."""


@dataclass
class SimResult:
    """Outcome of simulating one (program, scheme, machine) triple.

    ``phase_costs[k].misses`` carries the steady-round miss-class
    breakdown of phase ``k``, and ``numa`` the local/remote split of
    its misses.  The optional *detail* fields (filled only on
    ``simulate(..., detail=True)``) add a per-array miss-class breakdown
    over the whole simulated stream and the cache-set occupancy of
    replacement (conflict) misses — the raw material of the "why is
    this slow" profile (:func:`repro.report.format_profile_table`).
    """

    scheme: str
    nprocs: int
    total_time: float
    round_times: Tuple[float, float]  # (cold round, steady round)
    time_steps: int
    phase_costs: List[PhaseCost]
    miss_breakdown: Dict[str, int] = field(default_factory=dict)
    n_accesses: int = 0
    array_breakdown: Dict[str, Dict[str, int]] = field(default_factory=dict)
    numa: Dict[str, float] = field(default_factory=dict)
    conflict_sets: Dict[str, object] = field(default_factory=dict)
    # Locality analytics (repro.machine.locality.LocalityReport.as_dict()),
    # filled only on simulate(..., locality=True): reuse-distance
    # histograms per array, set-pressure distribution, phase x array
    # heatmap.  Deterministic, so bench snapshots exact-match it.
    locality: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        mb = self.miss_breakdown
        parts = ", ".join(f"{k}={v}" for k, v in sorted(mb.items()))
        return (
            f"{self.scheme} P={self.nprocs}: time={self.total_time:.3e} "
            f"({parts})"
        )


_PROFILE = {
    "hits": TALLY.hit, "cold": TALLY.cold, "replacement": TALLY.replacement,
    "true_sharing": TALLY.true_sharing, "false_sharing": TALLY.false_sharing,
    "upgrade": TALLY.upgrade, "l2_hits": TALLY.l2_hit,
    "remote": FROM_MEMORY & REMOTE_BINS,
    "local_miss": FROM_MEMORY & ~REMOTE_BINS,
}
"""Which tally bins each profile name counts."""
_PROFILE_ROWS = np.array(list(_PROFILE.values()), dtype=np.int64)
_BREAKDOWN = tuple(_PROFILE)[1:]  # every name but the hits
_HOMELESS = np.flatnonzero(~FROM_MEMORY[:REMOTE])
"""The outcomes that no memory serves, so where the page is homed does
not matter."""


def _count(key: np.ndarray, rows: int) -> np.ndarray:
    """The ``(rows, 2 * OUTCOMES)`` counts of the tally bins keyed
    ``row * 2 * OUTCOMES + outcome code``, plus ``REMOTE`` wherever the
    page is homed in another cluster, which only a miss that memory
    serves keeps."""
    counts = np.bincount(key, minlength=rows * 2 * OUTCOMES)
    counts = counts.reshape(rows, 2 * OUTCOMES)
    counts[:, _HOMELESS] += counts[:, REMOTE + _HOMELESS]
    counts[:, REMOTE + _HOMELESS] = 0
    return counts


def _profile(counts: np.ndarray) -> Dict[str, int]:
    """The profile names' counts from a vector of tally bin counts."""
    return dict(zip(_PROFILE, (_PROFILE_ROWS @ counts).tolist()))


def simulate(
    spmd: SpmdProgram, machine: DashConfig, detail: bool = False,
    locality: bool = False,
) -> SimResult:
    """Simulate one compiled program on one machine.

    ``detail=True`` computes the per-array and conflict-set profile
    fields of :class:`SimResult`; tracing never changes what is
    computed, only ``detail`` does.  ``locality=True`` additionally
    runs the reuse-distance / set-pressure / heatmap analytics
    (:mod:`repro.machine.locality`) over one round of the address
    stream and stores them in ``SimResult.locality``; they are opt-in
    only — never implied by observability — because no simulated time
    depends on them and they cost about as much again as the simulation
    (0.8-1.1x ``simulate(detail=True)`` at n = 48-64 on the scale=16
    machine, 1.6x at LU 128 P32), most of it the reuse distances: two
    sorts of the stream into its groups and the peel of increasing
    layers, which leaves the merge count little or nothing on these
    streams.  They read the whole round at once, even where the
    simulation walks it in chunks (see the module docstring).

    A round of more than :data:`CHUNK_FLOOR` accesses is simulated in
    chunks, with the same result as in one: each chunk is one
    ``program_traces`` and one ``classify_accesses`` call, and the
    result is summed over the chunks.
    """
    with obs.span("sim.simulate", cat="machine", scheme=spmd.scheme.value,
                  nprocs=spmd.nprocs) as sp:
        res = _simulate_impl(spmd, machine, detail, locality)
        sp.set(total_time=res.total_time, accesses=res.n_accesses)
        for k, v in res.miss_breakdown.items():
            sp.add(k, v)
        return res


def _next_chunk(blocks, at, target):
    """The pieces ``(phase, first, stop)`` of the chunk that starts at
    ``at = (phase, outer iteration)``, and where the next one starts.

    ``blocks[k]`` holds phase k's accesses ahead of its outermost loop
    and the cumulative sizes of that loop's iterations.  Whole phases
    (or what is left of one) are taken while they fit in ``target``
    accesses; then the next phase's outer iterations, as many as fit.
    An outer iteration larger than ``target`` is a chunk on its own."""
    k, j = at
    pieces = []
    while k < len(blocks):
        lead, csum = blocks[k]
        lead = lead if j == 0 else 0
        nout = len(csum) - 1
        stop = min(nout, int(np.searchsorted(
            csum, csum[j] + target - lead, side="right")) - 1)
        if stop == nout:
            pieces.append((k, j, nout))
            target -= lead + int(csum[nout] - csum[j])
            k, j = k + 1, 0
            continue
        if stop <= j:
            if pieces:
                break
            stop = min(j + 1, nout)
        pieces.append((k, j, stop))
        k, j = (k + 1, 0) if stop == nout else (k, stop)
        break
    return pieces, (k, j)


class _Tally:
    """The sums of one simulation over the chunks of its rounds:
    per-phase per-processor cycles, the miss classes (each phase's in
    the steady round), and the per-array and conflict-set detail.

    Every sum is read from counts of tally bins: each access's outcome
    code, plus ``REMOTE`` where memory in another cluster serves the
    miss.  One ``np.bincount`` per chunk round counts the bins of every
    (piece, processor); with ``detail`` one more counts them per array.
    The keys add ``REMOTE`` wherever the page is homed in another
    cluster, and :func:`_count` folds the outcomes that no memory serves
    back, so no pass over the accesses asks which are misses.
    """

    def __init__(self, spmd: SpmdProgram, machine: DashConfig,
                 space: AddressSpace, rounds: int, detail: bool):
        self.spmd, self.machine = spmd, machine
        self.rounds, self.detail = rounds, detail
        nphases = len(spmd.phases)
        self.cycles: List[Optional[np.ndarray]] = [None] * nphases
        self.misses: List[Dict[str, int]] = [{} for _ in range(nphases)]
        self.round_time = [0.0, 0.0]
        self.phase_costs: List[PhaseCost] = []
        self.bins = np.zeros(2 * OUTCOMES, dtype=np.int64)
        self.space = space
        self.names = space.array_names
        self.arrays = np.zeros((len(self.names), 2 * OUTCOMES),
                               dtype=np.int64)
        self.occ = np.zeros(machine.cache.nsets, dtype=np.int64)

    def add(self, r0: int, rounds: int, pieces, traces, proc, addr,
            code: np.ndarray, local: np.ndarray) -> None:
        """Add one chunk: its pieces ``(phase, first outer iteration,
        whether the phase ends here)``, their traces, the chunk's
        accesses, their outcome codes, which cover rounds r0 .. r0 +
        rounds - 1 of the chunk, and where their pages are homed in the
        accessor's cluster."""
        n, nprocs, nbins = len(addr), self.spmd.nprocs, 2 * OUTCOMES
        # Each access's first bin, moved on by REMOTE where its page is
        # homed in another cluster: that of its (piece, processor), and
        # with ``detail`` that of its array.
        elsewhere = (~local).view(np.uint8) * np.uint8(REMOTE)
        row = np.multiply(proc, nbins, dtype=np.int64)
        end = 0
        for j, t in enumerate(traces):
            if j:
                row[end:end + t.n_accesses] += j * nprocs * nbins
            end += t.n_accesses
        row += elsewhere
        if self.detail:
            array_row = self.space.array_index(addr)
            array_row *= nbins
            array_row += elsewhere
        del elsewhere
        for r in range(rounds):
            at = code[r * n:(r + 1) * n]
            # Keyed in place: a fresh stream-length key per round costs
            # more than taking the code off again.
            row += at
            counts = _count(row, len(traces) * nprocs)
            row -= at
            counts = counts.reshape(len(traces), nprocs, nbins)
            self.bins += counts.sum(axis=(0, 1))
            self._phases(r0 + r, pieces, traces, counts)
            if self.detail:
                array_row += at
                self.arrays += _count(array_row, len(self.names))
                array_row -= at
                # Conflict pressure: which cache sets the replacement
                # misses land on (a skewed occupancy is the power-of-two
                # aliasing signature the paper's data transform removes).
                cache = self.machine.cache
                rep = AccessClassification(at).replacement
                rsets = (addr[rep] // cache.line_bytes) % cache.nsets
                self.occ += np.bincount(rsets, minlength=cache.nsets)

    def _phases(self, r, pieces, traces, counts):
        params, nprocs = self.machine.cost, self.spmd.nprocs
        steady = r == self.rounds - 1
        for (k, first, ends), t, piece in zip(pieces, traces, counts):
            with obs.span("sim.phase", cat="machine", nest=t.nest_name,
                          round="steady" if steady else "cold") as psp:
                cycles = per_proc_cycles(piece, nprocs, params)
                if first:
                    # Whole-cycle latencies (every CostParams in use)
                    # keep these float sums exact, chunks or not.
                    cycles += self.cycles[k]
                self.cycles[k] = cycles
                if steady:
                    # Steady-round miss classes become the phase profile.
                    misses = self.misses[k]
                    for name, v in _profile(piece.sum(axis=0)).items():
                        misses[name] = misses.get(name, 0) + v
                        psp.add(name, v)
                    misses["accesses"] = (misses.get("accesses", 0)
                                          + t.n_accesses)
                    psp.add("accesses", t.n_accesses)
                if not ends:
                    continue  # the phase goes on in the next chunk
                phase = self.spmd.phases[k]
                pc = phase_time(
                    nest_name=t.nest_name,
                    cycles=cycles,
                    sync_kind=t.sync_after,
                    barriers=t.barriers,
                    pipelined=t.pipelined,
                    seq_steps=phase.seq_steps,
                    nprocs=nprocs,
                    params=params,
                )
                self.round_time[r] += pc.time * max(1, phase.nest.frequency)
                if steady:
                    pc.misses = self.misses[k]
                    self.phase_costs.append(pc)
                    psp.set(time=pc.time, compute=pc.compute_max,
                            sync=pc.sync)

    def result(self, n: int, locality: Dict[str, object]) -> SimResult:
        spmd = self.spmd
        steps = max(1, spmd.program.time_steps)
        round_time = self.round_time
        if self.rounds == 2:
            total = round_time[0] + (steps - 1) * round_time[1]
        else:
            total = round_time[0] * steps
            round_time[1] = round_time[0]
        profile = _profile(self.bins)
        breakdown = {name: profile[name] for name in _BREAKDOWN}
        nmiss = breakdown["remote"] + breakdown["local_miss"]
        numa = {
            "local_misses": breakdown["local_miss"],
            "remote_misses": breakdown["remote"],
            "local_ratio": breakdown["local_miss"] / nmiss if nmiss else 1.0,
        }
        array_breakdown: Dict[str, Dict[str, int]] = {}
        conflict: Dict[str, object] = {}
        if self.detail:
            array_breakdown = {
                nm: {**_profile(bins), "accesses": int(bins.sum())}
                for nm, bins in zip(self.names, self.arrays) if bins.any()}
            occ, nsets = self.occ, len(self.occ)
            # Rank by (-count, set index): plain argsort[::-1] orders
            # equal-count sets by *descending* index, which made stored
            # results and snapshots byte-unstable across numpy sort quirks.
            top = np.lexsort((np.arange(len(occ)), -occ))[:8]
            conflict = {
                "nsets": int(nsets),
                "replacement_misses": int(occ.sum()),
                "max_per_set": int(occ.max()) if nsets else 0,
                "mean_per_set": float(occ.mean()) if nsets else 0.0,
                "top_sets": [[int(s), int(occ[s])] for s in top
                             if occ[s] > 0],
            }
        return SimResult(
            scheme=spmd.scheme.value,
            nprocs=spmd.nprocs,
            total_time=total,
            round_times=(round_time[0], round_time[1]),
            time_steps=steps,
            phase_costs=self.phase_costs,
            miss_breakdown=breakdown,
            n_accesses=n,
            array_breakdown=array_breakdown,
            numa=numa,
            conflict_sets=conflict,
            locality=locality,
        )


def _simulate_impl(
    spmd: SpmdProgram, machine: DashConfig, detail: bool,
    locality: bool = False,
) -> SimResult:
    prog = spmd.program
    page_bytes = machine.numa.page_bytes
    rounds = 2 if prog.time_steps > 1 else 1
    # Most rounds are small by a bound that walks no loop level; only
    # the others are measured outer iteration by outer iteration.
    blocks = []
    if sum(accesses_at_most(spmd, ph) for ph in spmd.phases) > CHUNK_FLOOR:
        for phase in spmd.phases:
            lead, per_iteration = outer_blocks(spmd, phase)
            blocks.append((lead,
                           np.concatenate(([0], np.cumsum(per_iteration)))))
    n = sum(lead + int(csum[-1]) for lead, csum in blocks)
    chunked = n > CHUNK_FLOOR
    whole = None
    if chunked:
        space = AddressSpace.build(spmd.transformed, spmd.nprocs, page_bytes)
    else:
        space, whole = program_traces(spmd, page_bytes)
        n = sum(t.n_accesses for t in whole)
    locality_dict: Dict[str, object] = {}
    if locality:
        from repro.machine.locality import collect_locality

        # One round of the phase sequence (one time step) — the same
        # stream the cache model replays per round, read whole even
        # where the simulation walks it in chunks (the report is opt-in).
        locality_dict = collect_locality(
            space, program_traces(spmd, page_bytes)[1] if chunked else whole,
            machine.cache).as_dict()
    if n == 0:
        return SimResult(
            scheme=spmd.scheme.value,
            nprocs=spmd.nprocs,
            total_time=0.0,
            round_times=(0.0, 0.0),
            time_steps=prog.time_steps,
            phase_costs=[],
            locality=locality_dict,
        )
    tally = _Tally(spmd, machine, space, rounds, detail)
    # One chunk covers both rounds, the steady one derived from round
    # 0's group orders; and every page's first touch is in round 0, so
    # one round's homes serve every round.  Chunks cover one round each
    # and carry the history and the homes from chunk to chunk.
    span, history, homes = rounds, None, None
    if chunked:
        span, history = 1, CoherenceHistory()
        homes = np.full(-(-space.total_bytes // page_bytes), -1,
                        dtype=np.int64)
    for r in range(0, rounds, span):
        for pieces, ends in (
                _chunks(blocks, history) if chunked
                else [(None, [(k, 0, True) for k in range(len(whole))])]):
            traces = (whole if pieces is None
                      else program_traces(spmd, page_bytes, pieces)[1])
            proc, addr, write = _concat(traces)
            cls, local = _classify(machine, proc, addr, write, rounds=span,
                                   history=history, homes=homes)
            tally.add(r, span, ends, traces, proc, addr, cls.code, local)
            del traces, proc, addr, write, cls, local
    return tally.result(n, locality_dict)


def _chunks(blocks, history: CoherenceHistory):
    """The chunks of a round of more than :data:`CHUNK_FLOOR` accesses,
    in order, each as its pieces ``(phase, first, stop)`` (see
    :func:`_next_chunk`) and as ``(phase, first, whether the phase ends
    there)``.  Each chunk is sized when it is reached, from the history
    that the chunks before it leave behind."""
    at = (0, 0)
    while at[0] < len(blocks):
        pieces, at = _next_chunk(
            blocks, at, max(CHUNK_FLOOR, HISTORY_RATIO * len(history)))
        yield pieces, [(k, first, stop == len(blocks[k][1]) - 1)
                       for k, first, stop in pieces]


def _concat(traces) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.concatenate([getattr(t, a) for t in traces])
                 for a in ("proc", "addr", "write"))


def _classify(machine: DashConfig, proc, addr, write, rounds: int = 1,
              history: Optional[CoherenceHistory] = None,
              homes: Optional[np.ndarray] = None):
    """The outcome codes and the local-miss mask of one chunk."""
    # The classification sweep is its own wall-time ledger anchor: it
    # dominates simulate() for large streams and must be attributable
    # separately from the per-phase cost loop.
    with obs.span("sim.classify", cat="machine",
                  accesses=rounds * len(addr)):
        cls = classify_accesses(
            proc, addr, write, machine.cache, word_bytes=machine.word_bytes,
            l2=machine.l2, rounds=rounds, history=history)
        local = local_miss_mask(addr, proc, machine.numa, homes=homes)
    return cls, local


def speedup(seq_time: float, time: float) -> float:
    """The speedup of a point that takes ``time`` over the sequential
    baseline's ``seq_time`` (BASE on one processor).  A zero simulated
    time (e.g. an empty trace) reads as the neutral 1.0, not as 0.0 or
    a division by zero."""
    return seq_time / time if time > 0.0 else 1.0


def speedup_curve(
    prog,
    schemes: Sequence[Scheme],
    machine_factory,
    procs: Sequence[int],
    session=None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Speedups over the best sequential version for each scheme.

    ``machine_factory(nprocs)`` builds the machine; the sequential
    baseline is the BASE scheme on one processor (every access local).

    The decomposition is processor-count independent, so every point of
    the sweep shares the one derived at ``max(procs)``
    (``decomp_nprocs``); with the session's artifact cache it is
    computed once.  Pass a dedicated
    :class:`~repro.pipeline.session.CompileSession` for isolation; the
    default session is used otherwise.
    """
    from repro.pipeline.session import get_session

    session = session or get_session()
    maxp = max(procs)
    seq_machine = machine_factory(1)
    seq_spmd = session.compile(prog, Scheme.BASE, 1)
    seq = simulate(seq_spmd, seq_machine)
    out: Dict[str, List[Tuple[int, float]]] = {}
    for scheme in schemes:
        series = []
        for p in procs:
            machine = machine_factory(p)
            spmd = session.compile(
                prog, scheme, p,
                decomp_nprocs=maxp if scheme is not Scheme.BASE else None,
            )
            res = simulate(spmd, machine)
            series.append((p, speedup(seq.total_time, res.total_time)))
        out[scheme.value] = series
    return out
