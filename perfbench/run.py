#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload lu-cliff --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``repro`` from ``src/``
and exits with status 2 when that is missing.  The workload runs as a
closed loop with one client in its own process.  That process repeats
the workload's op list, in an order drawn from ``--seed``, while another
pass still fits in ``--seconds`` (at least one pass), and checks every
op's output against ``expected.json``.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
of several cold starts, each a fresh interpreter that imports ``repro``
and generates the op list.  ``--trace 1`` runs the workload once more
with every layer's public function wrapped (``layers.py``) and reports
the per-layer metrics of one pass over the op list.  Every time is
reported at the reference speed of ``calibrate.py``, and the measured
host times are printed beside it.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

After a change that is meant to alter simulated numbers or emitted
code, record the reference outputs again with ``--record``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The keys of workloads.WORKLOADS, named here so that this process can
# parse its arguments without importing repro.
WORKLOADS = ("lu-cliff", "figure-sweep", "compile-cold", "diagnose")
SETUP_REPEATS = 5
BUDGET_S = 170.0   # every child of one invocation ends within this
RECORD_TIMEOUT_S = 900.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

PAPER_CLIFF = "paper ~5x at 1Kx1K; EXPERIMENTS D2: 1.5x at N=64"
VALIDATION_NOTE = ("the machine model is validated only against the paper's "
                   "shape claims, so the benchmark gives no error figure")


class HarnessError(RuntimeError):
    """The benchmark itself failed; no result is printed."""


def isolated_env() -> dict:
    """The environment of every child: no ``REPRO_*`` settings (disk
    cache, verify pass, fault injection, observability), one BLAS and
    OpenMP thread, ``repro`` from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({k: "1" for k in ONE_THREAD})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(role: str, args, deadline: float, trace: int = 0) -> str:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role]
    if role != "record":
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=isolated_env(), stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{role} process ran out of time") from None
    if proc.returncode != 0:
        raise HarnessError(f"{role} process exited {proc.returncode}")
    return proc.stdout


def _child_result(args, deadline: float, trace: int = 0,
                  role: str = "child") -> dict:
    lines = _spawn(role, args, deadline, trace).strip().splitlines()
    if not lines:
        raise HarnessError(f"{role} process printed no result")
    return json.loads(lines[-1])


def _setup_seconds(args, deadline: float):
    """Each cold start's host time, less the calibration samples the
    probe took while it imported, and that time at the reference speed
    of those samples."""
    host, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = _child_result(args, deadline, role="probe")
        dt = time.perf_counter() - t0 - probe["busy_s"]
        host.append(dt)
        scaled.append(dt * calibrate.REFERENCE_S / probe["kernel_mean_s"])
    return host, scaled


def _host_speed(r: dict) -> None:
    print(f"host speed: calibration kernel {r['kernel_mean_s'] * 1e6:.0f} us"
          f" on average over {r['kernel_samples']} samples; reference "
          f"{calibrate.REFERENCE_S * 1e6:.0f} us")


def _row(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<11} {note}".rstrip())


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    host_setup, setup = _setup_seconds(args, deadline)
    r = _child_result(args, deadline, trace=0)
    passes, n_ops = r["rounds"], len(r["op_s"])
    wall = statistics.median(r["round_s"])
    per_op = f"over {n_ops} ops, each its median of {passes} pass(es)"
    rows = [  # (metric, value, unit, note)
        ("setup_s", statistics.median(setup), "s",
         f"median of {SETUP_REPEATS} cold starts"),
        ("wall_s", wall, "s", f"median of {passes} pass(es)"),
        ("op_p50_s", statistics.median(r["op_s"]), "s", per_op),
        ("op_p90_s", _p90(r["op_s"]), "s",
         per_op + ("" if n_ops >= 100 else "; under 100 ops")),
        ("peak_rss_mb", r["peak_rss_mb"], "MiB", ""),
    ]
    print(f"perfbench {args.workload}: seed {args.seed}, {passes} "
          f"pass(es) of {r['ops_per_round']} ops in {args.seconds} s, "
          f"untraced; times at the reference speed")
    for row in rows:
        _row(*row)
    _host_speed(r)
    _row("host setup_s", statistics.median(host_setup), "s",
         "measured, median")
    _row("host wall_s", statistics.median(r["host_round_s"]), "s",
         "measured, median")
    # Printed only: neither can be a declared metric (see README.md).
    if r["accesses_per_round"]:
        _row("sim_accesses_per_s", r["accesses_per_round"] / wall,
             "accesses/s")
    _row("error_rate", r["failed"] / r["attempted"], "fraction",
         f"{r['failed']} of {r['attempted']} ops failed")
    if args.workload == "lu-cliff" and r["cliff"]["comp"] is not None:
        print(f"accuracy: lu N=128 comp simulated time P32/P31 = "
              f"{r['cliff']['comp']:.3f} ({PAPER_CLIFF})")
        print(f"accuracy: {VALIDATION_NOTE}")
    for line in r["errors"]:
        print(f"failed op {line}", file=sys.stderr)
    return {"attempted": r["attempted"], "failed": r["failed"],
            "metrics": {name: (v, unit) for name, v, unit, _ in rows}}


def per_layer(args) -> dict:
    import layers

    deadline = time.monotonic() + BUDGET_S
    plain = _child_result(args, deadline, trace=0)
    traced = _child_result(args, deadline, trace=1)
    if traced["idle_layers"]:
        raise HarnessError("wrapped calls never fired on a workload that "
                           "runs them: " + ", ".join(traced["idle_layers"]))
    if traced["unsteady_counts"]:
        raise HarnessError("counts differ between passes: "
                           + ", ".join(traced["unsteady_counts"]))
    if None in (plain["digest"], traced["digest"]):
        raise HarnessError("outputs differ between passes over the op list")
    if plain["digest"] != traced["digest"]:
        raise HarnessError("traced and untraced outputs differ")
    wall = statistics.median(traced["round_s"])
    values = dict(traced["layers"])
    values["bench.trace_overhead_s"] = (
        wall - statistics.median(plain["round_s"]))
    print(f"perfbench {args.workload}: seed {args.seed}, traced over "
          f"{traced['rounds']} pass(es) of {traced['ops_per_round']} ops, "
          f"per pass; times at the reference speed")
    _host_speed(traced)
    for name, v in values.items():
        share = f"{v / wall:.1%} of traced wall_s" if name.endswith("_s") \
            else ""
        _row(name, v, _unit(name), share)
    top = max(layers.LEAF_ROWS, key=lambda k: values[k])
    print(f"largest layer row: {top} ({values[top] / wall:.1%})")
    for line in plain["errors"] + traced["errors"]:
        print(f"failed op {line}", file=sys.stderr)
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {k: (v, _unit(k)) for k, v in values.items()}}


def _unit(name: str) -> str:
    if name.endswith("_ns_per_access"):
        return "ns/access"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "fraction"
    return "count"


# -- child processes ---------------------------------------------------------

def _import_workloads():
    import repro
    from repro import obs

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"imported repro from {repro.__file__}, "
                           f"not from {SRC}")
    obs.disable()
    import workloads

    return workloads


def _attempt(workloads, op, rnd, expected, clock):
    """Run one op: (seconds its calls took by ``clock``, its output, why
    it failed)."""
    t0 = clock()
    try:
        produced = workloads.run_op(op, rnd)
    except Exception as exc:  # a failed op, not a failed benchmark
        return clock() - t0, None, f"raised {type(exc).__name__}: {exc}"
    dt = clock() - t0
    try:
        out = workloads.outcome(op, produced)
    except Exception as exc:
        return dt, None, f"unreadable output: {type(exc).__name__}: {exc}"
    return dt, out, workloads.check(op, out, expected)


def child(args) -> dict:
    """Repeat the op list while another pass fits in ``--seconds``, with
    the calibration kernel sampled throughout (``calibrate.py``)."""
    import resource

    workloads = _import_workloads()
    ops = workloads.WORKLOADS[args.workload]()
    expected = workloads.load_expected()[args.workload]
    sampler = calibrate.Sampler()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.LayerTracer(sampler.clock)
        tracer.install()
    rng = random.Random(args.seed)
    passes, host_round_s, errors, digests, deltas = [], [], [], set(), []
    attempted = failed = 0
    accesses = 0
    cliff = None
    sampler.start()
    try:
        start = time.perf_counter()
        while True:
            order = list(ops)
            rng.shuffle(order)
            rnd = workloads.Round()
            before = tracer.snapshot() if tracer else None
            outs, bad, timed = {}, {}, []
            for op in order:
                t0 = time.perf_counter()
                dt, out, why = _attempt(workloads, op, rnd, expected,
                                        sampler.clock)
                timed.append((op.id, t0, time.perf_counter(), dt))
                if out is not None:
                    outs[op.id] = out
                if why:
                    bad[op.id] = why
            if args.workload == "lu-cliff":
                for op_id, why in workloads.shape_errors(outs).items():
                    bad.setdefault(op_id, why)
                cliff = cliff or {s: workloads.cliff_ratio(outs, s)
                                  for s in ("comp", "data")}
            if tracer:
                after = tracer.snapshot()
                deltas.append(({k: after[k] - before[k] for k in after},
                               rnd.pass_counts()))
            accesses = accesses or sum(o.get("n_accesses", 0)
                                       for o in outs.values())
            passes.append(timed)
            host_round_s.append(sum(t[3] for t in timed))
            attempted += len(order)
            failed += len(bad)
            errors += [f"{k}: {v}" for k, v in sorted(bad.items())]
            digests.add(workloads.digest(outs))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(host_round_s) > args.seconds:
                break
    finally:
        sampler.stop()
    # Each op's time at the reference speed of the samples around it.
    op_s = {op.id: [] for op in ops}
    round_s = []
    for timed in passes:
        scaled = [(op_id, dt * sampler.scale(a, b))
                  for op_id, a, b, dt in timed]
        for op_id, dt in scaled:
            op_s[op_id].append(dt)
        round_s.append(sum(dt for _, dt in scaled))
    result = {
        "rounds": len(round_s), "round_s": round_s,
        "host_round_s": host_round_s,
        "op_s": [statistics.median(v) for v in op_s.values()],
        "ops_per_round": len(ops), "attempted": attempted,
        "failed": failed, "errors": errors[:20],
        "digest": digests.pop() if len(digests) == 1 else None,
        "accesses_per_round": accesses, "cliff": cliff,
        "kernel_mean_s": statistics.fmean(sampler.took),
        "kernel_samples": len(sampler.took),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer:
        tracer.uninstall()
        per_round_layers = [
            layers.layer_metrics(delta, *counts,
                                 sampler.scale(timed[0][1], timed[-1][2]))
            for (delta, counts), timed in zip(deltas, passes)
        ]
        result["idle_layers"] = [
            m for m in workloads.LAYERS_RUN[args.workload]
            if not tracer.calls[m]
        ]
        result["unsteady_counts"] = [
            k for k in layers.COUNT_METRICS
            if len({p[k] for p in per_round_layers}) != 1
        ]
        result["layers"] = {
            k: per_round_layers[0][k] if k in layers.COUNT_METRICS
            else statistics.fmean(p[k] for p in per_round_layers)
            for k in per_round_layers[0]
        }
    return result


def probe(args) -> dict:
    """Import ``repro`` and generate the op list, as a cold start does,
    with the calibration kernel sampled throughout."""
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        _import_workloads().WORKLOADS[args.workload]()
    finally:
        sampler.stop()
    return {"busy_s": sampler.busy,
            "kernel_mean_s": statistics.fmean(sampler.took)}


def record() -> None:
    """Write every op's output, in list order, to expected.json."""
    workloads = _import_workloads()
    out = {}
    for name, make_ops in workloads.WORKLOADS.items():
        rnd = workloads.Round()
        out[name] = {op.id: workloads.outcome(op, workloads.run_op(op, rnd))
                     for op in make_ops()}
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- entry point --------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record every op's output as the reference")
    p.add_argument("--role", choices=("main", "probe", "child", "record"),
                   default="main", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not (args.record or args.role == "record"):
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    try:
        if args.role == "probe":
            print(json.dumps(probe(args)))
            return 0
        if args.role == "child":
            print(json.dumps(child(args)))
            return 0
        if args.role == "record":
            record()
            return 0
        if args.record:
            _spawn("record", args, time.monotonic() + RECORD_TIMEOUT_S)
            return 0
        out = per_layer(args) if args.trace else end_to_end(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in out["metrics"].items()}
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
