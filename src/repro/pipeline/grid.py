"""The shared grid-execution engine.

Every surface that sweeps ``(app, scheme, nprocs)`` coordinates —
``repro batch``, the benchmark harness (:mod:`repro.obs.bench`) and
the verifier sweep in the CLI — used to carry its own copy of
the enumerate/compile/simulate loop.  This module is the single
implementation they all consume:

* :func:`make_grid` enumerates a cartesian grid into
  :class:`GridPoint` coordinates (one ``(app, scheme, nprocs)`` plus
  problem-size/machine knobs);
* :func:`point_program` / :func:`point_machine` / :func:`point_key`
  are the one true mapping from a coordinate to the program it builds,
  the machine it simulates, and the content-addressed key its result
  is stored under;
* :func:`execute_grid` is the hardened wave-based executor (per-point
  error isolation, timeouts, retries with exponential backoff, broken
  pool respawn, BASE-scheme degradation);
* :func:`run_grid` layers the persistent
  :class:`~repro.pipeline.store.ResultStore` on top: with
  ``incremental=True`` it serves every point whose
  program x scheme x procs x machine x model-version key is already
  stored, executes only the rest, and writes fresh results back — so a
  rerun after editing one app re-executes exactly that app's points,
  and ``repro batch --resume`` re-runs a journaled grid the same way.

Execution hardening (the driver survives hostile conditions without
losing grid points):

* **timeouts** — ``timeout`` bounds each point's wall time; a stalled
  worker is detected, its pool is torn down, and the point is retried
  or failed (``batch.timeouts``);
* **retries** — any failed point is re-attempted up to ``retries``
  times with exponential backoff (``batch.retries``), and every
  result records how many ``attempts`` it took;
* **respawn** — a crashed worker breaks its whole
  ``ProcessPoolExecutor``; the driver kills the broken pool, spawns a
  fresh one, and resubmits everything still pending
  (``batch.respawns`` / ``batch.worker_lost``);
* **degradation** — with ``degrade=True`` a point whose
  decomposition-scheme compile fails falls back to the sequential
  ``BASE`` layout (see ``CompileSession.compile_degradable``) and is
  reported ``ok`` but ``degraded`` with the original failure attached.

Simulation is deterministic, so the parallel path produces results
identical to the serial one point-for-point, and a store-served point
is bit-identical to re-executing it.
"""

from __future__ import annotations

import contextlib
import itertools
import signal as _signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults, obs
from repro.codegen.spmd import parse_scheme, scheme_short_name
from repro.errors import ReproError, SimulationError
from repro.pipeline.fingerprint import fingerprint_program
from repro.pipeline.store import ResultStore, result_key

__all__ = [
    "GracefulShutdown",
    "GridPoint",
    "GridResult",
    "execute_grid",
    "make_grid",
    "point_key",
    "point_machine",
    "point_program",
    "run_grid",
    "run_point",
    "summarize",
]

MAX_BACKOFF_SECONDS = 30.0

# How long a graceful shutdown waits for the in-flight wave before
# abandoning it (resume re-executes whatever was abandoned).
DEFAULT_DRAIN_SECONDS = 30.0


@dataclass(frozen=True)
class GridPoint:
    """One grid coordinate.

    ``scheme`` accepts any spelling from
    :data:`repro.codegen.spmd.SCHEME_ALIASES` and is normalized to the
    canonical short name.  ``decomp_procs`` optionally pins the
    processor count the decomposition's folding is chosen for (sweeps
    pass their maximum so all points share one decomposition, matching
    the serial ``speedup_curve`` convention).
    """

    app: str
    scheme: str
    nprocs: int
    n: Optional[int] = None
    time_steps: Optional[int] = None
    scale: int = 16
    decomp_procs: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(
            self, "scheme", scheme_short_name(parse_scheme(self.scheme))
        )

    def label(self) -> str:
        size = f" n={self.n}" if self.n is not None else ""
        return f"{self.app}/{self.scheme} P={self.nprocs}{size}"

    def coord(self) -> str:
        """The full coordinate string (every knob that shapes the
        result), used by the result store's invalidation index."""
        return (
            f"{self.app}/{self.scheme}/P{self.nprocs}"
            f"/n={self.n}/t={self.time_steps}/s={self.scale}"
            f"/d={self.decomp_procs}"
        )


@dataclass
class GridResult:
    """Outcome of one point (simulation scalars + cache effectiveness).

    ``attempts`` counts how many times this point was dispatched (1 on
    the happy path; each retry, and each requeue after a crashed worker
    took the point down with its pool, adds one); ``degraded`` marks a point whose requested scheme
    failed to compile and which ran under the ``BASE`` fallback
    instead, with the original failure in ``degrade_reason``.
    ``store_hit`` marks a point served from the persistent result
    store without executing anything (its ``pass_runs`` are then empty
    — no pass ran in *this* process).
    """

    point: GridPoint
    ok: bool
    total_time: float = 0.0
    n_accesses: int = 0
    miss_breakdown: Dict[str, int] = field(default_factory=dict)
    pass_runs: Dict[str, int] = field(default_factory=dict)
    pass_hits: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    error: str = ""
    attempts: int = 1
    degraded: bool = False
    degrade_reason: str = ""
    # Decision records (as dicts) of the compile that produced this
    # point, for `repro diff` root-cause attribution on batch outputs.
    provenance: List[Dict[str, object]] = field(default_factory=list)
    # Locality analytics (reuse/pressure/heatmap) of the simulated
    # stream, filled when the batch ran with ``locality=True``.
    locality: Dict[str, object] = field(default_factory=dict)
    # Served from the persistent result store (and under which key).
    store_hit: bool = False
    store_key: str = ""

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class GracefulShutdown:
    """Cooperative SIGINT/SIGTERM handling for the grid driver.

    On the first signal the executor *stops dispatching* new points
    and *drains* the in-flight work for up to ``drain_seconds``;
    whatever finishes in that window is recorded (and journaled)
    normally, the rest is abandoned for ``--resume`` to re-execute.  A
    second signal expires the drain immediately.  The driver then
    flushes partial outputs and exits 130 with a resume hint — see
    ``repro batch``.
    """

    def __init__(self, drain_seconds: float = DEFAULT_DRAIN_SECONDS):
        self.drain_seconds = drain_seconds
        self.triggered = False
        self.signum: Optional[int] = None
        self._deadline: Optional[float] = None

    def trigger(self, signum: Optional[int] = None, frame=None) -> None:
        """Signal-handler entry (also callable directly from tests)."""
        if self.triggered:
            # Second signal: the user means now — expire the drain.
            self._deadline = time.monotonic()
            return
        self.triggered = True
        self.signum = signum
        self._deadline = time.monotonic() + self.drain_seconds
        obs.inc("batch.shutdowns")
        obs.event("batch.shutdown", cat="batch", signum=signum,
                  drain_seconds=self.drain_seconds)

    def drain_expired(self) -> bool:
        return (self.triggered and self._deadline is not None
                and time.monotonic() >= self._deadline)

    @contextlib.contextmanager
    def install(self, signals: Sequence[int] = (_signal.SIGINT,
                                                _signal.SIGTERM)):
        """Install :meth:`trigger` as the handler for ``signals``
        (main thread only), restoring the previous handlers on exit."""
        previous = {}
        for s in signals:
            previous[s] = _signal.signal(s, self.trigger)
        try:
            yield self
        finally:
            for s, handler in previous.items():
                _signal.signal(s, handler)


class _DrainExpired(Exception):
    """Internal: the shutdown drain deadline passed while waiting."""


def make_grid(
    apps: Sequence[str],
    schemes: Sequence[str],
    procs: Sequence[int],
    n: Optional[int] = None,
    time_steps: Optional[int] = None,
    scale: int = 16,
    pin_decomp: bool = False,
) -> List[GridPoint]:
    """The cartesian ``apps x schemes x procs`` grid, apps outermost.
    ``pin_decomp`` fixes every point's decomposition at ``max(procs)``
    so the whole sweep shares one decomposition (the serial
    ``speedup_curve`` convention)."""
    dp = max(procs) if pin_decomp and procs else None
    return [
        GridPoint(app=a, scheme=s, nprocs=p, n=n, time_steps=time_steps,
                  scale=scale, decomp_procs=dp)
        for a, s, p in itertools.product(apps, schemes, procs)
    ]


# -- coordinate -> program / machine / key -----------------------------------

def point_program(point: GridPoint):
    """Build the app program a point compiles (the one true mapping
    from coordinate knobs to builder kwargs)."""
    from repro.apps import build_app

    kwargs = {}
    if point.n is not None:
        kwargs["n"] = point.n
    if point.time_steps is not None:
        kwargs["time_steps"] = point.time_steps
    return build_app(point.app, **kwargs)


def point_machine(point: GridPoint, prog=None):
    """The scaled DASH instance a point simulates on (word size follows
    the program's smallest element, as everywhere else)."""
    from repro.machine import scaled_dash

    if prog is None:
        prog = point_program(point)
    return scaled_dash(
        point.nprocs, scale=point.scale,
        word_bytes=min(d.element_size for d in prog.arrays.values()),
    )


def point_key(point: GridPoint, kind: str = "sim", prog=None,
              **extras) -> str:
    """The persistent-store key of a point's result: SHA-256 over
    program fingerprint x scheme x procs x machine fingerprint x model
    version (plus the ``kind`` namespace and any payload-shaping
    flags)."""
    if prog is None:
        prog = point_program(point)
    machine = point_machine(point, prog)
    return result_key(
        fingerprint_program(prog), point.scheme, point.nprocs,
        machine.fingerprint(), kind=kind,
        decomp=point.decomp_procs, **extras,
    )


def _point_session(point: GridPoint, session, degrade: bool = False,
                   locality: bool = False) -> GridResult:
    """Compile + simulate one point on the session (may raise)."""
    from repro.codegen.spmd import parse_scheme
    from repro.machine.simulate import simulate

    prog = point_program(point)
    machine = point_machine(point, prog)
    before = session.stats()
    t0 = time.perf_counter()
    degrade_reason: Optional[str] = None
    if degrade:
        spmd, degrade_reason = session.compile_degradable(
            prog, parse_scheme(point.scheme), point.nprocs,
            decomp_nprocs=point.decomp_procs,
        )
    else:
        spmd = session.compile(
            prog, parse_scheme(point.scheme), point.nprocs,
            decomp_nprocs=point.decomp_procs,
        )
    try:
        res = simulate(spmd, machine, locality=locality)
    except (ReproError, KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        raise SimulationError(
            f"{type(exc).__name__}: {exc}",
            app=point.app, scheme=point.scheme, nprocs=point.nprocs,
        ) from exc
    elapsed = time.perf_counter() - t0
    after = session.stats()

    def _delta(kind: str) -> Dict[str, int]:
        prev = before[kind]
        return {
            name: count - prev.get(name, 0)
            for name, count in after[kind].items()
            if count - prev.get(name, 0)
        }

    return GridResult(
        point=point,
        ok=True,
        total_time=res.total_time,
        n_accesses=res.n_accesses,
        miss_breakdown=dict(res.miss_breakdown),
        pass_runs=_delta("runs"),
        pass_hits=_delta("hits"),
        elapsed=elapsed,
        degraded=degrade_reason is not None,
        degrade_reason=degrade_reason or "",
        provenance=[r.as_dict() for r in session.last_provenance],
        locality=dict(res.locality),
    )


def run_point(point: GridPoint, session, degrade: bool = False,
              locality: bool = False) -> GridResult:
    """Run one point with error isolation (never raises)."""
    with obs.span("batch.point", cat="batch", app=point.app,
                  scheme=point.scheme, nprocs=point.nprocs):
        try:
            return _point_session(point, session, degrade=degrade,
                                  locality=locality)
        except BaseException as exc:  # isolate even SystemExit
            if isinstance(exc, KeyboardInterrupt):
                raise
            return GridResult(
                point=point, ok=False,
                error=traceback.format_exc(limit=20),
            )


# -- worker-process plumbing -------------------------------------------------

_worker_session = None
_worker_cache: Optional[bool] = None


def _make_session(cache: bool):
    from repro.pipeline.session import CompileSession

    return CompileSession(cache=cache)


def _worker_run(payload) -> GridResult:
    global _worker_session, _worker_cache
    point_dict, cache, degrade, locality = payload
    # Injected process-level faults (crash/stall) fire only here, in
    # worker processes — never in the driver.
    faults.maybe_worker_faults()
    if _worker_session is None or _worker_cache != cache:
        _worker_session = _make_session(cache)
        _worker_cache = cache
    return run_point(GridPoint(**point_dict), _worker_session,
                     degrade=degrade, locality=locality)


# -- the executor ------------------------------------------------------------

def _backoff_delay(backoff: float, attempt: int) -> float:
    """Exponential backoff before re-attempt ``attempt`` (>= 2)."""
    return min(backoff * (2.0 ** max(attempt - 2, 0)), MAX_BACKOFF_SECONDS)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a broken/stalled pool without waiting on its workers."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - very old interpreters
        pool.shutdown(wait=False)


def execute_grid(
    points: Iterable[GridPoint],
    jobs: int = 1,
    cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    degrade: bool = True,
    locality: bool = False,
    on_result: Optional[Callable[[int, GridResult], None]] = None,
    on_start: Optional[Callable[[int], None]] = None,
    on_wave: Optional[Callable[[int, int], None]] = None,
    shutdown: Optional[GracefulShutdown] = None,
    monitor=None,
) -> List[GridResult]:
    """Execute every point; results come back in input order.

    ``on_result(i, result)`` fires in the *driver* the moment point
    ``i`` (input order) reaches its terminal result — the hook the
    incremental layer uses to persist store entries and journal
    records while the grid is still running, so a crash loses at most
    the in-flight points.  ``on_start(i)`` fires at dispatch and
    ``on_wave(wave, pending)`` at the top of each parallel wave.

    ``shutdown`` makes the executor cooperate with SIGINT/SIGTERM: no
    new dispatch after the trigger, the in-flight wave drains until
    the deadline, abandoned points are simply absent from the returned
    list (and ``on_result`` never fires for them).

    ``jobs <= 1`` runs serially in-process on one shared session;
    ``jobs > 1`` fans out over a process pool, each worker keeping its
    own in-memory artifact cache.  ``cache=False`` disables artifact
    reuse (every pass runs for every point).

    ``timeout`` bounds each point's wall-clock seconds (parallel mode
    only; a stalled worker pool is killed and respawned).  ``retries``
    re-attempts failed points with exponential ``backoff``.
    ``degrade`` enables the BASE-scheme compile fallback per point.

    ``locality`` attaches the deterministic reuse-distance /
    set-pressure / heatmap analytics to every point
    (``GridResult.locality``) at the cost of one extra analytics pass
    over each point's address stream.

    ``monitor`` (a :class:`repro.obs.runstate.RunMonitor`, duck-typed)
    is only *pumped* here — its rate-limited ``tick()`` is called
    between serial points and once per wait slice while parallel
    futures are pending, so heartbeats keep flowing during a long
    point.  Progress notifications (dispatch/finish/wave) go through
    the ``on_*`` hooks, which carry the caller's own point indices.
    """
    points = list(points)
    if jobs <= 1:
        return _run_serial(points, cache, retries, backoff, degrade,
                           locality, on_result, on_start, shutdown,
                           monitor)
    return _run_parallel(points, jobs, cache, timeout, retries, backoff,
                         degrade, locality, on_result, on_start, on_wave,
                         shutdown, monitor)


def _run_serial(points, cache, retries, backoff, degrade,
                locality=False, on_result=None, on_start=None,
                shutdown=None, monitor=None) -> List[GridResult]:
    session = _make_session(cache)
    out: List[GridResult] = []
    for i, point in enumerate(points):
        if shutdown is not None and shutdown.triggered:
            break
        if monitor is not None:
            monitor.tick()
        if on_start is not None:
            on_start(i)
        attempt = 1
        result = run_point(point, session, degrade=degrade,
                           locality=locality)
        abandoned = False
        while not result.ok and attempt <= retries:
            if shutdown is not None and shutdown.triggered:
                # Mid-retry shutdown: abandon rather than record a
                # failure the remaining retries might have fixed —
                # resume re-executes the point with its full budget.
                abandoned = True
                break
            obs.inc("batch.retries")
            time.sleep(_backoff_delay(backoff, attempt + 1))
            attempt += 1
            result = run_point(point, session, degrade=degrade,
                               locality=locality)
        if abandoned:
            break
        result.attempts = attempt
        out.append(result)
        if on_result is not None:
            on_result(i, result)
    return out


def _run_parallel(points, jobs, cache, timeout, retries, backoff,
                  degrade, locality=False, on_result=None, on_start=None,
                  on_wave=None, shutdown=None,
                  monitor=None) -> List[GridResult]:
    """Wave-based execution: each wave gets a fresh pool for whatever
    is still pending.

    The retry budget is attributable: a point is charged only for an
    outcome of its *own* (a result, its own timeout, a distinct
    executor error).  A crashed worker breaks the whole
    ``ProcessPoolExecutor``, taking innocent in-flight points with it —
    those collateral points are requeued without a charge, *except*
    when a wave completes nothing at all (then everyone is charged,
    which bounds the total number of waves even under a 100% crash
    rate).  A result's ``attempts`` is not the charge but the number
    of waves that dispatched the point, so a requeue still shows.
    """
    payloads = [(asdict(p), cache, degrade, locality) for p in points]
    results: List[Optional[GridResult]] = [None] * len(points)
    charged = [0] * len(points)
    dispatched = [0] * len(points)
    pending: List[int] = list(range(len(points)))
    wave = 0

    def _finish(i: int, result: GridResult) -> None:
        results[i] = result
        if on_result is not None:
            on_result(i, result)

    while pending:
        if shutdown is not None and shutdown.triggered:
            # Stop dispatching: whatever is still pending stays unrun
            # (absent from the results) for --resume to pick up.
            break
        wave += 1
        if wave > 1:
            time.sleep(_backoff_delay(backoff, wave))
        if on_wave is not None:
            on_wave(wave, len(pending))
        for i in pending:
            dispatched[i] += 1
        next_pending: List[int] = []

        def _retry_or_fail(i: int, error: str) -> None:
            if charged[i] <= retries:
                obs.inc("batch.retries")
                next_pending.append(i)
            else:
                _finish(i, GridResult(
                    point=points[i], ok=False, error=error,
                    attempts=dispatched[i],
                ))

        pool = ProcessPoolExecutor(max_workers=jobs)
        broken = False
        aborted = False
        progressed = False
        futures = []
        collateral: List[int] = []
        try:
            for i in pending:
                if on_start is not None:
                    on_start(i)
                futures.append(
                    (pool.submit(_worker_run, payloads[i]), i))
        except BrokenProcessPool:
            broken = True
            submitted = {i for _, i in futures}
            collateral.extend(i for i in pending if i not in submitted)
        for fut, i in futures:
            if aborted or (broken and not fut.done()):
                # The pool is already dead (or the drain deadline
                # passed); this point never got a chance — requeue it
                # without waiting (or charging), unless we are
                # shutting down, in which case it is simply abandoned.
                fut.cancel()
                if not aborted:
                    collateral.append(i)
                continue
            try:
                result = _await_result(fut, timeout, shutdown, monitor)
                result.attempts = dispatched[i]
                _finish(i, result)
                progressed = True
            except _DrainExpired:
                aborted = True
                fut.cancel()
            except FuturesTimeoutError:
                broken = True
                charged[i] += 1
                obs.inc("batch.timeouts")
                obs.event("batch.timeout", cat="batch",
                          point=points[i].label(), timeout=timeout)
                _retry_or_fail(
                    i, f"point exceeded timeout of {timeout}s")
            except BrokenProcessPool:
                if not broken:
                    broken = True
                    obs.inc("batch.worker_lost")
                    obs.event("batch.worker_lost", cat="batch",
                              point=points[i].label())
                collateral.append(i)
            except (KeyboardInterrupt, SystemExit):
                _kill_pool(pool)
                raise
            except Exception:
                # Unexpected executor-side failure for this future
                # only; the pool itself may still be healthy.
                charged[i] += 1
                _retry_or_fail(i, traceback.format_exc(limit=5))
        if not aborted:
            for i in collateral:
                if not progressed:
                    charged[i] += 1
                _retry_or_fail(
                    i, "worker process died (pool broken) before this "
                       "point completed")
        if broken or aborted:
            obs.inc("batch.respawns")
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
        if aborted:
            break
        pending = next_pending
    return [r for r in results if r is not None]


def _await_result(fut, timeout, shutdown, monitor=None) -> GridResult:
    """``fut.result`` that honours both the per-point timeout and a
    graceful shutdown's drain deadline (polling in short slices so the
    signal handler's flag is observed promptly).  A run monitor is
    pumped once per slice, so heartbeats keep a live-run status honest
    even while every worker is deep inside one long point."""
    if shutdown is None and monitor is None:
        return fut.result(timeout=timeout)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        if shutdown is not None and shutdown.drain_expired():
            raise _DrainExpired()
        if monitor is not None:
            monitor.tick()
        slice_s = 0.2
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FuturesTimeoutError()
            slice_s = min(slice_s, remaining)
        try:
            return fut.result(timeout=slice_s)
        except FuturesTimeoutError:
            continue


# -- the incremental layer ---------------------------------------------------

_PAYLOAD_FIELDS = (
    "total_time", "n_accesses", "miss_breakdown", "elapsed",
    "provenance", "locality",
)


def _result_payload(result: GridResult) -> Dict[str, object]:
    """The store payload of an executed result: the simulation outcome
    only — never pass counters, which describe one process's run, not
    the point."""
    out = result.as_dict()
    return {k: out[k] for k in _PAYLOAD_FIELDS}


def _result_from_payload(point: GridPoint, key: str,
                         payload: Dict[str, object]) -> GridResult:
    """Rehydrate a stored payload as a served (not executed) result."""
    return GridResult(
        point=point,
        ok=True,
        total_time=float(payload.get("total_time", 0.0)),
        n_accesses=int(payload.get("n_accesses", 0)),
        miss_breakdown=dict(payload.get("miss_breakdown", {})),
        elapsed=0.0,
        provenance=list(payload.get("provenance", [])),
        locality=dict(payload.get("locality", {})),
        store_hit=True,
        store_key=key,
    )


def run_grid(
    points: Iterable[GridPoint],
    jobs: int = 1,
    cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    degrade: bool = True,
    locality: bool = False,
    store: Optional[ResultStore] = None,
    incremental: bool = False,
    journal=None,
    shutdown: Optional[GracefulShutdown] = None,
    monitor=None,
) -> List[GridResult]:
    """Run every point, optionally against a persistent result store.

    Without a ``store``, ``journal``, ``shutdown`` or ``monitor`` this
    is exactly :func:`execute_grid`.  With a store, every executed
    ok/non-degraded result is written back under its
    :func:`point_key`; with ``incremental=True`` the store is
    consulted first and matching points are *served* instead of
    executed (``GridResult.store_hit``), so only points whose program,
    machine, or model version changed do any compile/simulate work.
    A ``--resume`` is exactly this: the journaled grid re-run with
    ``incremental=True``, so the points an earlier run stored are
    served and failed, degraded or unfinished points execute.

    The store is touched only on the driver side — before dispatch and
    per completed point — so workers stay store-free; cross-process
    safety comes from the store's own advisory file lock.  Simulation
    is deterministic: a served result is bit-identical to what
    re-executing the point would produce.

    ``journal`` is a :class:`repro.pipeline.journal.JournalWriter`
    (duck-typed to avoid the circular import): each point's terminal
    result is appended the moment it lands, including store-served
    points, so ``repro status`` and ``repro report`` can follow the run
    from the journal alone.

    ``shutdown`` (a :class:`GracefulShutdown`) makes the run stop
    dispatching on SIGINT/SIGTERM and drain in-flight work; abandoned
    points are absent from the returned list.

    ``monitor`` (a :class:`repro.obs.runstate.RunMonitor`, duck-typed
    like the journal) is told about every dispatch, finish (including
    store-served points) and wave in grid-global indices, and is
    pumped while the executor waits — driving the heartbeat records
    ``repro status`` (and ``status --follow``) and ``repro report``
    read.
    """
    points = list(points)
    if (store is None and journal is None and shutdown is None
            and monitor is None):
        return execute_grid(
            points, jobs=jobs, cache=cache,
            timeout=timeout, retries=retries, backoff=backoff,
            degrade=degrade, locality=locality,
        )
    results: List[Optional[GridResult]] = [None] * len(points)
    # One key per point.  Programs repeat across schemes/procs, so the
    # build is memoized on the coordinate knobs that shape it.  A point
    # whose program cannot even be built gets no key — it still goes to
    # the executor, which isolates the failure per point exactly as a
    # store-less run would.
    keys: List[Optional[str]] = [None] * len(points)
    if store is not None:
        progs: Dict[Tuple, object] = {}
        for i, p in enumerate(points):
            pk = (p.app, p.n, p.time_steps)
            try:
                if pk not in progs:
                    progs[pk] = point_program(p)
                prog = progs[pk]
                keys[i] = (
                    None if prog is None
                    else point_key(p, prog=prog, locality=locality))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                progs[pk] = None
                keys[i] = None
    to_run: List[int] = []
    for i, (p, k) in enumerate(zip(points, keys)):
        payload = None
        if incremental and store is not None and k is not None:
            payload = store.get(k)
        if payload is not None:
            served = _result_from_payload(p, k, payload)
            results[i] = served
            if journal is not None:
                journal.point_done(i, served)
            if monitor is not None:
                monitor.point_finished(i, served)
        else:
            to_run.append(i)
    if to_run:
        # execute_grid sees a compacted point list; translate its local
        # indices back to grid-global ones for the store/journal.
        index = {j: i for j, i in enumerate(to_run)}

        def _record(j: int, r: GridResult) -> None:
            i = index[j]
            if keys[i] is not None:
                r.store_key = keys[i]
            results[i] = r
            # Degraded results ran the wrong scheme and failures carry
            # no result — neither is evidence worth persisting, so a
            # resume re-executes them.
            if (store is not None and keys[i] is not None
                    and r.ok and not r.degraded):
                store.put(keys[i], _result_payload(r),
                          coord=f"sim:{points[i].coord()}"
                                f"/loc={locality}")
            if journal is not None:
                journal.point_done(i, r)
            if monitor is not None:
                monitor.point_finished(i, r)
            faults.maybe_driver_kill()

        def _started(j: int) -> None:
            i = index[j]
            if journal is not None:
                journal.point_started(i, points[i])
            if monitor is not None:
                monitor.point_dispatched(i)

        def _wave(wave: int, pending: int) -> None:
            if journal is not None:
                journal.wave(wave, pending)
            if monitor is not None:
                monitor.wave_started(wave, pending)

        execute_grid(
            [points[i] for i in to_run], jobs=jobs, cache=cache,
            timeout=timeout, retries=retries, backoff=backoff,
            degrade=degrade, locality=locality,
            on_result=_record, on_start=_started, on_wave=_wave,
            shutdown=shutdown, monitor=monitor,
        )
    return [r for r in results if r is not None]


def summarize(results: Sequence[GridResult]) -> Dict[str, object]:
    """Aggregate counters over a batch; ``executed`` counts the points
    that actually ran (everything not served from the result store)."""
    runs: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    for r in results:
        for name, c in r.pass_runs.items():
            runs[name] = runs.get(name, 0) + c
        for name, c in r.pass_hits.items():
            hits[name] = hits.get(name, 0) + c
    errors = [r for r in results if not r.ok]
    degraded = [r for r in results if r.degraded]
    retried = [r for r in results if r.attempts > 1]
    served = [r for r in results if r.store_hit]
    return {
        "points": len(results),
        "ok": len(results) - len(errors),
        "errors": len(errors),
        "degraded": len(degraded),
        "retried": len(retried),
        "store_hits": len(served),
        "executed": len(results) - len(served),
        "pass_runs": runs,
        "pass_hits": hits,
        "total_pass_runs": sum(runs.values()),
    }
