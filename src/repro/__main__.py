"""Command-line interface.

Usage examples::

    python -m repro list
    python -m repro decompose lu --n 32 --procs 8
    python -m repro run stencil5 --n 64 --procs 16 --scale 32
    python -m repro emit simple --scheme data --n 16 --procs 4
    python -m repro perf simple --scheme opt --trace trace.json
    python -m repro batch --apps simple,lu --schemes base,comp,data \\
        --procs-list 1,4 --jobs 4 --store-dir /tmp/repro-store

Caching: each command's compile session memoizes compiler artifacts
in memory; ``decompose``, ``emit``, ``run``, ``verify``, ``batch`` and
``explain`` accept ``--no-cache`` (run every compiler stage, reuse
nothing).  Finished grid points persist across runs in
the result store (``--store-dir``/``--incremental``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.apps import ALL_APPS, build_app
from repro.codegen.spmd import SCHEME_NAMES, parse_scheme
from repro.compiler import (
    Scheme,
    compile_program,
    emit_c_program,
    restructure_program,
)


def _build(name: str, n=None, time_steps=None):
    try:
        return build_app(name, n=n, time_steps=time_steps)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _split_csv(text: str):
    return [t.strip() for t in text.split(",") if t.strip()]


# -- argument validation (one-line errors, applied by argparse) --------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _scheme(text: str) -> Scheme:
    """A ``--scheme`` value: any :func:`parse_scheme` alias, in any
    case."""
    try:
        return parse_scheme(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _schemes_or_all(text: str):
    """``run --scheme``: one scheme (:func:`_scheme`), or ``all``."""
    if text.strip().lower() == "all":
        return list(SCHEME_NAMES.values())
    return [_scheme(text)]


def _procs_csv(text: str):
    """A non-empty comma-separated list of processor counts (each >= 1).
    Used as an argparse ``type`` so string defaults are parsed too."""
    items = _split_csv(text)
    if not items:
        raise argparse.ArgumentTypeError(
            "expected a non-empty comma-separated list of processor "
            "counts")
    return [_positive_int(t) for t in items]


def _apply_session_args(args):
    """Install a fresh default session configured per ``--no-cache``;
    returns it.  (Each CLI command starts cold.)"""
    from repro import pipeline

    session = pipeline.CompileSession(
        cache=not getattr(args, "no_cache", False))
    pipeline.set_session(session)
    return session


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-cache", action="store_true",
                   help="disable artifact caching entirely")


def _add_store_flags(p: argparse.ArgumentParser,
                     expect: bool = False) -> None:
    p.add_argument("--incremental", action="store_true",
                   help="serve points whose program/machine/model key "
                        "is unchanged from the persistent result store; "
                        "execute (and store) only the rest")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="result-store directory (default: "
                        "$REPRO_STORE_DIR or ~/.cache/repro/results; "
                        "enables store write-back)")
    if expect:
        p.add_argument("--expect-incremental", type=_nonneg_int,
                       default=None, metavar="N",
                       help="exit nonzero unless exactly N points "
                            "executed, the rest served from the store "
                            "(implies --incremental; CI guard)")


def _result_store(args):
    """The (store, incremental) pair selected by the store flags;
    ``(None, False)`` when no store surface was requested."""
    from repro.pipeline.store import ResultStore, resolve_store_dir

    incremental = bool(
        getattr(args, "incremental", False)
        or getattr(args, "expect_incremental", None) is not None
        or getattr(args, "resume", None) is not None
    )
    store_dir = getattr(args, "store_dir", None)
    if not (incremental or store_dir):
        return None, False
    return ResultStore(resolve_store_dir(store_dir)), incremental


def cmd_list(args) -> int:
    print("benchmark programs (repro.apps):")
    for name, mod in sorted(ALL_APPS.items()):
        doc = (mod.__doc__ or "").strip().splitlines()
        head = doc[0] if doc else ""
        print(f"  {name:12s} {head}")
    return 0


def cmd_decompose(args) -> int:
    _apply_session_args(args)
    prog = _build(args.app, args.n, args.time_steps)
    from repro.decomp.greedy import decompose_program

    decomp = decompose_program(restructure_program(prog), args.procs)
    print(decomp.summary())
    if args.verbose:
        for (nest, stmt), cd in sorted(decomp.comp.items()):
            print(f"  C[{nest}#{stmt}] = {cd.matrix}")
    return 0


def cmd_emit(args) -> int:
    _apply_session_args(args)
    prog = _build(args.app, args.n, args.time_steps)
    spmd = compile_program(prog, args.scheme, args.procs)
    print(emit_c_program(spmd))
    return 0


def cmd_run(args) -> int:
    from repro.report import format_speedup_table

    session = _apply_session_args(args)
    # An unknown app or a bad size fails here, in one line.
    _build(args.app, args.n, args.time_steps)
    schemes = args.scheme
    procs = args.procs_list
    curves = _speedup_curves(args, schemes, procs)
    print(format_speedup_table(
        curves, title=f"{args.app} N={args.n}, scaled DASH /{args.scale}"
    ))
    if args.verify:
        return _post_run_verify([args.app], schemes, procs,
                                args.verify_n, args.time_steps, session)
    return 0


def _post_run_verify(apps, schemes, procs, verify_n, time_steps,
                     session=None) -> int:
    """Run the semantic oracle over the unique grid coordinates of a
    finished run/batch, at a small capped problem size."""
    from repro.verify import format_verify_table, grid_ok, verify_grid

    results = verify_grid(apps, schemes, sorted(set(procs)),
                          n=verify_n, time_steps=time_steps,
                          session=session)
    print()
    print(format_verify_table(
        results, title=f"semantic verification (n={verify_n})"))
    return 0 if grid_ok(results) else 1


def _speedup_curves(args, schemes, procs):
    """The speedup sweep through the grid executor, in-process at
    ``--jobs 1`` (the same math as
    :func:`repro.machine.simulate.speedup_curve`: one decomposition
    pinned at max(procs), :func:`~repro.machine.simulate.speedup` over
    BASE on one processor)."""
    from repro.machine.simulate import speedup
    from repro.pipeline.grid import GridPoint, run_grid

    maxp = max(procs)
    coords = [(Scheme.BASE, 1)]
    for scheme in schemes:
        for p in procs:
            if (scheme, p) not in coords:
                coords.append((scheme, p))
    points = [
        GridPoint(
            app=args.app, scheme=scheme.value, nprocs=p, n=args.n,
            time_steps=args.time_steps, scale=args.scale,
            decomp_procs=None if scheme is Scheme.BASE else maxp,
        )
        for scheme, p in coords
    ]
    # No BASE fallback: a scheme that fails to compile fails the run
    # instead of printing BASE under its label.
    results = run_grid(points, jobs=args.jobs, cache=not args.no_cache,
                       degrade=False)
    for r in results:
        if not r.ok:
            raise SystemExit(
                f"point {r.point.label()} failed:\n{r.error}"
            )
    by_coord = {c: r for c, r in zip(coords, results)}
    seq_time = by_coord[(Scheme.BASE, 1)].total_time
    return {
        scheme.value: [
            (p, speedup(seq_time, by_coord[(scheme, p)].total_time))
            for p in procs]
        for scheme in schemes
    }


def _write_text(path: str, text: str, what: str) -> None:
    """Write a CLI artifact, turning I/O failures (missing directory,
    permissions) into one-line errors instead of tracebacks."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {what} to {path}: {exc}")
    print(f"\nwrote {what} to {path}")


def _emit_json(dest: str, payload, what: str) -> None:
    """Write a ``--json`` payload: ``-`` prints it to stdout, a path
    goes through :func:`_write_text`."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if dest == "-":
        print(text)
    else:
        _write_text(dest, text + "\n", what)


def _add_grid_flags(p: argparse.ArgumentParser, apps: str, procs: str,
                    n, scale: bool = True) -> None:
    """The grid flags of verify/batch/bench: which apps, schemes and
    processor counts, at which problem size (``_grid_args`` reads
    them)."""
    p.add_argument("--apps", default=apps,
                   help="comma-separated app names, or 'all'")
    p.add_argument("--schemes", default="base,comp,data",
                   help="comma-separated scheme names (any alias)")
    p.add_argument("--procs-list", type=_procs_csv, default=procs,
                   help="comma-separated processor counts")
    p.add_argument("--n", type=_positive_int, default=n,
                   help="problem size per app")
    p.add_argument("--time-steps", type=_positive_int, default=None)
    if scale:
        p.add_argument("--scale", type=_positive_int, default=16)


def _grid_args(args):
    """Validated (apps, schemes) of a grid command's --apps/--schemes
    flags; ``--apps all`` selects every app."""
    apps = (sorted(ALL_APPS) if args.apps.strip() == "all"
            else _split_csv(args.apps))
    if not apps:
        raise SystemExit("no apps selected")
    for a in apps:
        if a not in ALL_APPS:
            raise SystemExit(
                f"unknown app {a!r}; available: "
                f"{', '.join(sorted(ALL_APPS))}"
            )
    try:
        schemes = [parse_scheme(s) for s in _split_csv(args.schemes)]
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not schemes:
        raise SystemExit("no schemes selected")
    return apps, schemes


def cmd_verify(args) -> int:
    """``python -m repro verify``: the semantic oracle over a grid."""
    from repro.verify import format_verify_table, grid_ok, verify_grid

    apps, schemes = _grid_args(args)
    session = _apply_session_args(args)
    store, _ = _result_store(args)
    results = verify_grid(apps, schemes, args.procs_list,
                          n=args.n, time_steps=args.time_steps,
                          session=session, store=store)
    print(format_verify_table(
        results,
        title=f"semantic verification (n={args.n}, "
              f"procs={','.join(str(p) for p in args.procs_list)})",
    ))
    if store is not None:
        st = store.stats_dict()
        print(f"result store: {st['hits']} verdicts served, "
              f"{st['misses']} verified live "
              f"({st['entries']} entries, {st['bytes']} bytes)")
    if grid_ok(results):
        print("ALL OK")
        return 0
    return 1


def cmd_batch(args) -> int:
    import os
    from dataclasses import asdict

    from repro import faults
    from repro.errors import JournalError
    from repro.pipeline import journal as journal_mod
    from repro.pipeline.grid import (
        GracefulShutdown,
        make_grid,
        run_grid,
        summarize,
    )

    store, incremental = _result_store(args)
    jdir = journal_mod.journal_dir(store.root) if store is not None else None

    degrade = not args.no_degrade
    locality = bool(args.json)
    journal = None
    if args.resume is not None:
        # The grid comes from the journal, not the CLI flags: a resume
        # must execute exactly the run it is resuming.  Its finished
        # points come from the store (--resume implies --incremental).
        try:
            run_id = journal_mod.resolve_run_id(jdir, args.resume)
            state = journal_mod.JournalState.load(
                jdir / f"{run_id}.jsonl")
            state.validate()
            points = state.points()
        except JournalError as exc:
            raise SystemExit(f"batch --resume: {exc}")
        spec = state.spec
        degrade = bool(spec.get("degrade", degrade))
        locality = bool(spec.get("locality", locality))
        if state.complete:
            print(f"note: run {run_id} already completed; its stored "
                  f"points are served from the result store")
        else:
            print(f"resuming {run_id}: {len(state.finished)}/{len(points)} "
                  f"points already journaled")
            mid_flight = state.in_flight
            if mid_flight:
                labels = ", ".join(points[i].label()
                                   for i in mid_flight[:6]
                                   if 0 <= i < len(points))
                more = (f", +{len(mid_flight) - 6} more"
                        if len(mid_flight) > 6 else "")
                print(f"  {len(mid_flight)} points were mid-flight "
                      f"when the previous driver stopped "
                      f"({labels}{more}); they re-execute with a "
                      f"full retry budget")
        journal = journal_mod.JournalWriter.reopen(
            jdir, run_id, heartbeat=args.heartbeat, jobs=args.jobs)
        apps = sorted({p.app for p in points})
        schemes = sorted({parse_scheme(p.scheme) for p in points},
                         key=lambda s: s.value)
        procs = sorted({p.nprocs for p in points})
    else:
        apps, schemes = _grid_args(args)
        procs = args.procs_list
        points = make_grid(
            apps, [s.value for s in schemes], procs,
            n=args.n, time_steps=args.time_steps, scale=args.scale,
            pin_decomp=args.pin_decomp,
        )
        if store is not None:
            spec = {
                "points": [asdict(p) for p in points],
                "degrade": degrade,
                "locality": locality,
            }
            journal = journal_mod.JournalWriter.create(
                jdir, spec, heartbeat=args.heartbeat, jobs=args.jobs)
    shutdown = GracefulShutdown(drain_seconds=args.drain)

    saved_faults = os.environ.get(faults.ENV_FLAG)
    if args.inject_faults is not None:
        try:
            spec = faults.FaultPlan.parse(args.inject_faults).spec()
        except ValueError as exc:
            raise SystemExit(str(exc))
        # Configure the driver process and export the spec so spawned
        # workers inherit the same deterministic plan.
        faults.configure(spec)
        os.environ[faults.ENV_FLAG] = spec
    try:
        with shutdown.install():
            results = run_grid(
                points, jobs=args.jobs,
                cache=not args.no_cache,
                timeout=args.timeout, retries=args.retries,
                backoff=args.backoff, degrade=degrade,
                locality=locality,
                store=store, incremental=incremental,
                journal=journal, shutdown=shutdown,
            )
    finally:
        if args.inject_faults is not None:
            faults.configure(None)
            if saved_faults is None:
                os.environ.pop(faults.ENV_FLAG, None)
            else:
                os.environ[faults.ENV_FLAG] = saved_faults
    agg = summarize(results)
    if journal is not None:
        journal.end(
            "interrupted" if shutdown.triggered else "complete",
            executed=agg["executed"])
        journal.close()

    print(f"{'app':12s} {'scheme':6s} {'P':>3s} {'time':>12s} "
          f"{'accesses':>10s} {'runs':>5s} {'hits':>5s} {'try':>3s}"
          f"  status")
    for r in results:
        p = r.point
        if r.ok:
            status = "ok (store)" if r.store_hit else "ok"
            if r.degraded:
                first = (r.degrade_reason or "?").strip().splitlines()[0]
                status = f"ok (degraded to base: {first})"
            print(f"{p.app:12s} {p.scheme:6s} {p.nprocs:3d} "
                  f"{r.total_time:12.4e} {r.n_accesses:10d} "
                  f"{sum(r.pass_runs.values()):5d} "
                  f"{sum(r.pass_hits.values()):5d} {r.attempts:3d}"
                  f"  {status}")
        else:
            first = r.error.strip().splitlines()[-1] if r.error else "?"
            print(f"{p.app:12s} {p.scheme:6s} {p.nprocs:3d} "
                  f"{'-':>12s} {'-':>10s} {'-':>5s} {'-':>5s} "
                  f"{r.attempts:3d}  ERROR: {first}")
    runs = ", ".join(f"{k}={v}" for k, v in sorted(agg["pass_runs"].items()))
    hits = ", ".join(f"{k}={v}" for k, v in sorted(agg["pass_hits"].items()))
    print(f"\npoints: {agg['points']}  ok: {agg['ok']}  "
          f"errors: {agg['errors']}  degraded: {agg['degraded']}  "
          f"retried: {agg['retried']}")
    print(f"pass executions: {runs or 'none'} "
          f"(total {agg['total_pass_runs']})")
    print(f"cache hits: {hits or 'none'}")
    if store is not None:
        st = store.stats_dict()
        print(f"result store: {agg['store_hits']} served, "
              f"{agg['executed']} executed "
              f"(hits {st['hits']}, misses {st['misses']}, "
              f"invalidations {st['invalidations']}, "
              f"evictions {st['evictions']}, "
              f"{st['entries']} entries, {st['bytes']} bytes)")
    if journal is not None:
        print(f"journal: {journal.run_id} "
              f"({journal.appends} appends, {journal.errors} errors)")

    if args.json:
        from repro.obs.compare import host_fingerprint

        payload = {"summary": agg, "host": host_fingerprint(),
                   "results": [r.as_dict() for r in results]}
        if store is not None:
            payload["store"] = store.stats_dict()
        if journal is not None:
            payload["journal"] = {
                "run_id": journal.run_id,
                "appends": journal.appends,
                "errors": journal.errors,
                "resumed": args.resume is not None,
                "interrupted": shutdown.triggered,
            }
        _emit_json(args.json, payload, "JSON results")

    rc = 1 if agg["errors"] else 0
    if args.expect_incremental is not None \
            and agg["executed"] != args.expect_incremental:
        print(f"error: --expect-incremental {args.expect_incremental} "
              f"but {agg['executed']} points executed "
              f"({agg['store_hits']} served from the store)",
              file=sys.stderr)
        rc = 1
    if args.verify:
        verify_rc = _post_run_verify(
            apps, schemes, procs, args.verify_n, args.time_steps)
        rc = rc or verify_rc
    if shutdown.triggered:
        hint = ""
        if journal is not None:
            hint = (f"; resume with: python -m repro batch --resume "
                    f"{journal.run_id}")
            if args.store_dir:
                hint += f" --store-dir {args.store_dir}"
        print(f"interrupted (signal {shutdown.signum}) — "
              f"{len(results)}/{len(points)} points finished{hint}",
              file=sys.stderr)
        rc = 130
    return rc


def cmd_fsck(args) -> int:
    """``python -m repro fsck``: audit (and repair) the result store."""
    from repro.pipeline.integrity import fsck_store
    from repro.pipeline.store import ResultStore, resolve_store_dir

    root = resolve_store_dir(args.store_dir)
    report = fsck_store(ResultStore(root), repair=not args.no_repair)

    print(f"fsck {root}")
    print(f"  entries scanned:    {report.scanned}")
    print(f"  ok:                 {report.ok}")
    print(f"  quarantined:        {report.quarantined}")
    if report.unparseable:
        print(f"    unparseable:      {report.unparseable}")
    if report.key_mismatch:
        print(f"    key mismatch:     {report.key_mismatch}")
    if report.checksum_mismatch:
        print(f"    bad checksum:     {report.checksum_mismatch}")
    if report.missing_payload:
        print(f"    missing payload:  {report.missing_payload}")
    for problem in report.problems[:20]:
        print(f"  - {problem}")
    if len(report.problems) > 20:
        print(f"  … and {len(report.problems) - 20} more")
    print("store is clean" if report.clean
          else f"store had damage ({report.damage} findings"
               + ("" if args.no_repair else ", now repaired") + ")")

    if args.json:
        _emit_json(args.json, report.as_dict(), "fsck report JSON")
    if args.strict and not report.clean:
        return 1
    return 0


def cmd_bench(args) -> int:
    from repro.obs.bench import run_bench, save_snapshot
    from repro.report import format_bench_table

    apps, schemes = _grid_args(args)
    snap = run_bench(
        apps=apps, schemes=schemes, procs=args.procs_list,
        n=args.n, time_steps=args.time_steps, scale=args.scale,
    )
    print(format_bench_table(snap))
    if args.json == "-":
        print(json.dumps(snap, indent=1))
    elif args.json:
        try:
            save_snapshot(snap, args.json)
        except OSError as exc:
            raise SystemExit(
                f"cannot write bench snapshot to {args.json}: {exc}")
        print(f"\nwrote snapshot to {args.json}")
    return 0


# Seconds between `status --follow` refreshes.
FOLLOW_INTERVAL = 1.0


def cmd_status(args) -> int:
    """``python -m repro status``: cross-process snapshot of one
    journaled run — progress, state, ETA — from the journal alone.
    ``--follow`` re-renders it every second until the run is finished,
    interrupted or stale.  Exit codes: 0 running/finished, 2 no such
    run, 3 the run is dead (interrupted/stale)."""
    import time

    from repro.errors import JournalError
    from repro.obs.runstate import load_status
    from repro.pipeline.store import resolve_store_dir
    from repro.report import format_status_text

    if args.follow and args.json not in (None, "-"):
        raise SystemExit("status --follow streams JSON to stdout; "
                         "drop the --json PATH")
    root = resolve_store_dir(args.store_dir)
    clear = args.follow and not args.json and sys.stdout.isatty()
    while True:
        try:
            status = load_status(root, args.run,
                                 stale_after=args.stale_after)
        except JournalError as exc:
            print(f"status: {exc}", file=sys.stderr)
            return 2
        if args.follow and args.json:
            # One compact JSON object per refresh: a tail-able stream.
            print(json.dumps(status.as_dict(), sort_keys=True),
                  flush=True)
        elif args.json:
            _emit_json(args.json, status.as_dict(), "run status JSON")
        else:
            if clear:
                print("\x1b[2J\x1b[H", end="")
            print(format_status_text(status.as_dict()), flush=True)
        dead = status.state in ("interrupted", "stale")
        if not args.follow or dead or status.state == "finished":
            return 3 if dead else 0
        if not clear and not args.json:
            print()
        time.sleep(FOLLOW_INTERVAL)


def cmd_report(args) -> int:
    """``python -m repro report``: one self-contained artifact per run,
    stitched from the journal alone."""
    from repro.errors import JournalError
    from repro.obs.runstate import build_report
    from repro.pipeline.store import resolve_store_dir
    from repro.report import format_status_text, run_report_html

    root = resolve_store_dir(args.store_dir)
    try:
        payload = build_report(root, args.run,
                               stale_after=args.stale_after)
    except JournalError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    wrote = False
    if args.html:
        _write_text(args.html, run_report_html(payload),
                    "HTML run report")
        wrote = True
    if args.json:
        _emit_json(args.json, payload, "run report JSON")
        wrote = True
    if not wrote:
        print(format_status_text(payload["status"]))
        series = payload["series"]
        print(f"\nreport sections: {len(payload['points'])} point rows, "
              f"{len(payload['timeline'])} timeline events, "
              f"{series['samples']} heartbeats, "
              f"{len(payload['degraded'])} degraded, "
              f"{len(payload['failures'])} failures "
              f"(write the full artifact with --html/--json)")
    return 0


def cmd_explain(args) -> int:
    """``python -m repro explain``: the decision-provenance tree for
    one compiled grid point."""
    from repro.obs import provenance
    from repro.report import format_explain_tree

    session = _apply_session_args(args)
    scheme = args.scheme
    prog = _build(args.app, args.n, args.time_steps)
    label = f"{args.app}/{scheme.value}/P{args.procs}"
    try:
        _, log = provenance.collect_point(session, prog, scheme,
                                          args.procs)
    except Exception as exc:
        raise SystemExit(f"explain: cannot compile {label}: {exc}")
    if args.json:
        print(log.to_json(app=args.app, scheme=scheme.value,
                          nprocs=args.procs, n=args.n))
    else:
        print(format_explain_tree(log, title=label))
    return 0


def cmd_diff(args) -> int:
    """``python -m repro diff``: judge two run files; exits 0 when
    they agree, 1 when they diverge, 2 when either is unreadable."""
    from repro.obs.compare import diff_runs, read_run
    from repro.report import format_diff_table

    try:
        runs = read_run(args.run_a), read_run(args.run_b)
    except (OSError, ValueError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(*runs)
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_diff_table(
            diff, title=f"{args.run_a} vs {args.run_b}"))
    return 1 if diff.diverged else 0


def cmd_perf(args) -> int:
    """``python -m repro perf``: observe one point in one measurement
    window — its wall-time ledger and its profile table (miss classes
    per phase and array, NUMA, conflict sets, locality) — with
    optional JSON payload, Chrome trace, flamegraph and stacks."""
    from repro.obs.export import to_chrome_trace
    from repro.obs.flame import flamegraph_svg
    from repro.obs.perf import record_point
    from repro.report import format_ledger_table, format_profile_table

    if args.app not in ALL_APPS:
        raise SystemExit(
            f"unknown app {args.app!r}; available: "
            f"{', '.join(sorted(ALL_APPS))}"
        )
    try:
        payload, window = record_point(
            args.app, args.scheme, args.procs, n=args.n,
            time_steps=args.time_steps, scale=args.scale,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    point = payload["points"][0]
    label = f"{point['app']}/{point['scheme']}/P{point['nprocs']}"
    print(format_ledger_table(point["perf"]["ledger"],
                              title=f"wall-time ledger: {label}"))
    print(f"page faults: {window['minor_faults']} minor, "
          f"{window['system_s']:.3f} s system CPU (inside the rows)")
    print()
    print(format_profile_table(window["res"]))
    if args.json:
        _emit_json(args.json, payload, "perf JSON")
    if args.trace:
        _write_text(args.trace,
                    json.dumps(to_chrome_trace(window["collector"]),
                               indent=1),
                    "Chrome trace")
    stacks = point["perf"]["stacks"]
    if args.stacks:
        _write_text(args.stacks, "".join(f"{line}\n" for line in stacks),
                    "collapsed stacks")
    if args.flame:
        _write_text(args.flame,
                    flamegraph_svg(stacks, title=f"repro perf: {label}"),
                    "flamegraph SVG")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anderson/Amarasinghe/Lam PPoPP'95 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark programs")

    p = sub.add_parser("decompose", help="show a program's decomposition")
    p.add_argument("app")
    p.add_argument("--n", type=_positive_int, default=32)
    p.add_argument("--procs", type=_positive_int, default=8)
    p.add_argument("--time-steps", type=_positive_int, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_cache_flags(p)

    p = sub.add_parser("emit", help="emit the SPMD C source")
    p.add_argument("app")
    p.add_argument("--n", type=_positive_int, default=16)
    p.add_argument("--procs", type=_positive_int, default=4)
    p.add_argument("--time-steps", type=_positive_int, default=None)
    p.add_argument("--scheme", type=_scheme, default="data",
                   help="scheme name or alias, case-insensitive")
    _add_cache_flags(p)

    p = sub.add_parser("run", help="simulate and print speedups")
    p.add_argument("app")
    p.add_argument("--n", type=_positive_int, default=48)
    p.add_argument("--procs-list", type=_procs_csv, default="1,2,4,8,16,32")
    p.add_argument("--scale", type=_positive_int, default=16)
    p.add_argument("--time-steps", type=_positive_int, default=None)
    p.add_argument("--scheme", type=_schemes_or_all, default="all",
                   help="scheme name or alias, case-insensitive, or "
                        "'all' (default)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="run the sweep's points across N processes")
    p.add_argument("--verify", action="store_true",
                   help="after the sweep, run the semantic oracle over "
                        "its (scheme, nprocs) grid at a small size")
    p.add_argument("--verify-n", type=_positive_int, default=8,
                   help="problem size for --verify (default 8)")
    _add_cache_flags(p)

    p = sub.add_parser(
        "verify",
        help="semantically verify compiled output against the "
             "sequential reference (app x scheme x procs grid)",
    )
    _add_grid_flags(p, "all", "1,2,4", 8, scale=False)
    _add_cache_flags(p)
    _add_store_flags(p)

    p = sub.add_parser(
        "batch",
        help="compile + simulate a grid of (app, scheme, nprocs) points",
    )
    _add_grid_flags(p, "simple", "1,4", None)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (<=1: serial, shared session)")
    p.add_argument("--pin-decomp", action="store_true",
                   help="derive one decomposition at max(procs) per app")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   help="per-point wall-clock limit in seconds "
                        "(parallel mode; stalled workers are killed)")
    p.add_argument("--retries", type=_nonneg_int, default=0,
                   help="re-attempts per failed point (with backoff)")
    p.add_argument("--backoff", type=_nonneg_float, default=0.5,
                   help="base exponential-backoff delay in seconds")
    p.add_argument("--no-degrade", action="store_true",
                   help="disable the BASE-scheme fallback for points "
                        "whose scheme fails to compile")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection spec, e.g. "
                        "'seed=7,disk.torn_write=0.3,worker.crash=0.2' "
                        "(chaos testing; also honours $REPRO_FAULTS)")
    p.add_argument("--verify", action="store_true",
                   help="after the batch, run the semantic oracle over "
                        "its grid at a small size (faults disabled)")
    p.add_argument("--verify-n", type=_positive_int, default=8,
                   help="problem size for --verify (default 8)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write per-point results + summary as JSON; "
                        "'-' for stdout")
    p.add_argument("--resume", default=None, metavar="RUN",
                   help="resume an interrupted journaled run (a RUN_* "
                        "id, or 'latest'): the grid is rebuilt from the "
                        "journal and re-run against the result store, "
                        "so stored points are served and only the rest "
                        "execute (implies --incremental)")
    p.add_argument("--drain", type=_nonneg_float, default=30.0,
                   metavar="SECONDS",
                   help="on SIGINT/SIGTERM, seconds to let in-flight "
                        "points finish before abandoning them "
                        "(default 30; a second signal stops at once)")
    p.add_argument("--heartbeat", type=_nonneg_float, default=2.0,
                   metavar="SECONDS",
                   help="interval between journal heartbeats for "
                        "`repro status` and `repro report` (default "
                        "2.0; 0 writes none; needs the journal)")
    _add_cache_flags(p)
    _add_store_flags(p, expect=True)

    p = sub.add_parser(
        "fsck",
        help="audit the persistent result store: verify every entry's "
             "checksum and coordinate, quarantine damage",
    )
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="result-store directory (default: "
                        "$REPRO_STORE_DIR or ~/.cache/repro/results)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any damage was found "
                        "(CI guard)")
    p.add_argument("--no-repair", action="store_true",
                   help="report only; quarantine nothing")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the fsck report as JSON; '-' for stdout")

    p = sub.add_parser(
        "bench",
        help="run the pinned grid and record a snapshot of its "
             "simulated counters, ledgers and decisions ('repro diff' "
             "judges two snapshots)",
    )
    _add_grid_flags(p, "simple,stencil5", "1,4", 16)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the snapshot as JSON; '-' for stdout")

    def _add_run_flags(p: argparse.ArgumentParser) -> None:
        """Shared flags of the journal-reading commands (status and
        report): which run, where, and the staleness threshold for the
        run-state classification."""
        p.add_argument("run", nargs="?", default="latest",
                       help="a RUN_* id, or 'latest' (default)")
        p.add_argument("--store-dir", default=None, metavar="DIR",
                       help="result-store directory the run journals "
                            "under (default: $REPRO_STORE_DIR or "
                            "~/.cache/repro/results)")
        p.add_argument("--stale-after", type=_positive_float,
                       default=15.0, metavar="SECONDS",
                       help="heartbeat silence before a run with no "
                            "end record and a live pid is classified "
                            "stale (default 15)")

    p = sub.add_parser(
        "status",
        help="cross-process snapshot of a journaled run: progress, "
             "state (running/finished/interrupted/stale), ETA",
    )
    _add_run_flags(p)
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="emit the status as JSON (to PATH, or stdout "
                        "when no path is given)")
    p.add_argument("--follow", action="store_true",
                   help="re-render every second until the run is "
                        "finished, interrupted or stale; with --json, "
                        "one compact object per refresh on stdout")

    p = sub.add_parser(
        "report",
        help="self-contained run report (HTML/JSON) stitched from the "
             "journal",
    )
    _add_run_flags(p)
    p.add_argument("--html", default=None, metavar="PATH",
                   help="write the self-contained HTML report")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the report payload as JSON; '-' for "
                        "stdout")

    p = sub.add_parser(
        "explain",
        help="show every compiler decision (with alternatives and "
             "reasons) behind one compiled point",
    )
    p.add_argument("app")
    p.add_argument("--scheme", type=_scheme, default="opt",
                   help="scheme name or alias, case-insensitive "
                        "(e.g. OPT, base, comp, data)")
    p.add_argument("--procs", type=_positive_int, default=8)
    p.add_argument("--n", type=_positive_int, default=32)
    p.add_argument("--time-steps", type=_positive_int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit the decision log as JSON instead of a tree")
    _add_cache_flags(p)

    p = sub.add_parser(
        "diff",
        help="judge two runs (bench snapshots, perf payloads or "
             "'batch --json' files): exits 1 when simulated counters, "
             "ledger structure or the point set differ; ranks "
             "same-host self-time moves",
    )
    p.add_argument("run_a", help="baseline run file")
    p.add_argument("run_b", help="candidate run file")
    p.add_argument("--json", action="store_true",
                   help="emit the structured diff as JSON")

    p = sub.add_parser(
        "perf",
        help="observe one (app, scheme, procs) point: wall-time ledger "
             "and profile table (miss classes, NUMA, conflict sets, "
             "locality); optional JSON payload, Chrome trace, "
             "flamegraph and stacks",
    )
    p.add_argument("app")
    p.add_argument("--scheme", type=_scheme, default="data",
                   help="scheme name or alias, case-insensitive")
    p.add_argument("--procs", type=_positive_int, default=4)
    p.add_argument("--n", type=_positive_int, default=16)
    p.add_argument("--time-steps", type=_positive_int, default=None)
    p.add_argument("--scale", type=_positive_int, default=16)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the one-point bench snapshot (plus "
                        "perf.stacks) as JSON — 'repro diff' reads it; "
                        "'-' for stdout")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the measurement window as Chrome "
                        "trace-event JSON (chrome://tracing, Perfetto)")
    p.add_argument("--flame", default=None, metavar="PATH",
                   help="write a self-contained flamegraph SVG")
    p.add_argument("--stacks", default=None, metavar="PATH",
                   help="write the raw collapsed-stack lines "
                        "(flamegraph.pl input)")

    args = parser.parse_args(argv)
    try:
        return {
            "list": cmd_list,
            "decompose": cmd_decompose,
            "emit": cmd_emit,
            "run": cmd_run,
            "verify": cmd_verify,
            "batch": cmd_batch,
            "fsck": cmd_fsck,
            "bench": cmd_bench,
            "status": cmd_status,
            "report": cmd_report,
            "explain": cmd_explain,
            "diff": cmd_diff,
            "perf": cmd_perf,
        }[args.command](args)
    except BrokenPipeError:
        # The reader went away (`repro status | head`): the shell
        # convention is 128 + SIGPIPE, not a traceback.  Point stdout
        # at devnull so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
