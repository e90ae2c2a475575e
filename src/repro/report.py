"""Result formatting for the experiment harness.

The benchmarks print speedup series in the same shape as the paper's
figures (speedup vs. processor count per compiler configuration) and a
Table-1-style summary; these helpers keep that formatting in one place
and generate the EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Series = Sequence[Tuple[int, float]]


def save_experiment(
    name: str, text: str, metrics: Optional[Mapping] = None
) -> str:
    """Persist a benchmark's formatted output under ``results/``.

    pytest captures stdout, so the benchmark harness writes each
    table/figure reproduction to a file as well; EXPERIMENTS.md points
    at these.  When ``metrics`` is given (raw series / breakdowns), a
    machine-readable sibling ``<name>.json`` is written next to the
    text table.  Returns the text path written.
    """
    import json
    import os

    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    if metrics is not None:
        jpath = os.path.join(root, f"{name}.json")
        with open(jpath, "w") as fh:
            json.dump({"name": name, **dict(metrics)}, fh, indent=1,
                      default=str)
    return path


def format_speedup_table(
    curves: Mapping[str, Series], title: str = ""
) -> str:
    """Render speedup-vs-processors curves as a fixed-width table."""
    lines: List[str] = []
    if title:
        lines.append(title)
    procs = [p for p, _ in next(iter(curves.values()))]
    header = f"{'scheme':34s}" + "".join(f"{p:>8d}" for p in procs)
    lines.append(header)
    lines.append("-" * len(header))
    for scheme, series in curves.items():
        row = f"{scheme:34s}" + "".join(f"{s:8.2f}" for _, s in series)
        lines.append(row)
    return "\n".join(lines)


_PROFILE_CLASSES = [
    ("cold", "cold"),
    ("replacement", "conflict"),
    ("true_sharing", "true-sh"),
    ("false_sharing", "false-sh"),
    ("upgrade", "upgrade"),
    ("l2_hits", "l2-hit"),
    ("remote", "remote"),
    ("local_miss", "loc-miss"),
]


def format_profile_table(result) -> str:
    """The "why is this slow" profile of one :class:`SimResult`.

    Per-phase steady-round miss classes next to the phase times, plus
    (when the detail fields were computed) the per-array breakdown, the
    NUMA local/remote ratio, and the conflict-set occupancy.
    """
    lines: List[str] = []
    lines.append(
        f"profile: {result.scheme} P={result.nprocs} "
        f"total={result.total_time:.3e}"
    )
    header = (
        f"{'phase':16s} {'time':>11s} {'sync':>10s} {'accesses':>9s}"
        + "".join(f"{label:>9s}" for _, label in _PROFILE_CLASSES)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for pc in result.phase_costs:
        m = pc.misses or {}
        lines.append(
            f"{pc.nest_name:16s} {pc.time:11.3e} {pc.sync:10.3e} "
            f"{m.get('accesses', 0):>9d}"
            + "".join(f"{m.get(key, 0):>9d}" for key, _ in _PROFILE_CLASSES)
        )
    if result.array_breakdown:
        lines.append("")
        header = (
            f"{'array':16s} {'accesses':>11s} {'':>10s} {'':>9s}"
            + "".join(f"{label:>9s}" for _, label in _PROFILE_CLASSES)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name, ab in sorted(result.array_breakdown.items()):
            lines.append(
                f"{name:16s} {ab.get('accesses', 0):>11d} {'':>10s} {'':>9s}"
                + "".join(
                    f"{ab.get(key, 0):>9d}" for key, _ in _PROFILE_CLASSES
                )
            )
    if result.numa:
        lines.append(
            f"numa: {result.numa['local_misses']} local / "
            f"{result.numa['remote_misses']} remote misses "
            f"(local ratio {result.numa['local_ratio']:.2f})"
        )
    if result.conflict_sets:
        cs = result.conflict_sets
        top = ", ".join(f"set {s}: {c}" for s, c in cs.get("top_sets", []))
        lines.append(
            f"conflict sets: {cs['replacement_misses']} replacement misses "
            f"over {cs['nsets']} sets, max/set={cs['max_per_set']} "
            f"mean/set={cs['mean_per_set']:.1f}"
            + (f" [{top}]" if top else "")
        )
    if getattr(result, "locality", None):
        lines.append("")
        lines.append(format_locality_table(result.locality))
    return "\n".join(lines)


def format_locality_table(loc: Mapping) -> str:
    """Fixed-width rendering of one locality report
    (:meth:`repro.machine.locality.LocalityReport.as_dict`): per-array
    reuse-distance summaries with p50/p95/max columns, the set-pressure
    distribution, and the phase×array heatmap as a count matrix."""
    lines: List[str] = [
        f"locality: line={loc['line_bytes']}B nsets={loc['nsets']}"
    ]
    reuse = loc.get("reuse") or {}
    if reuse:
        header = (
            f"{'array':16s} {'accesses':>9s} {'cold':>7s} "
            f"{'p50':>7s} {'p95':>7s} {'max':>7s}  reuse-distance hist"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(reuse):
            r = reuse[name]
            hist = " ".join(
                f"{k}:{v}" for k, v in (r.get("hist") or {}).items()
            )
            lines.append(
                f"{name:16s} {r['accesses']:>9d} {r['cold']:>7d} "
                f"{r['p50']:>7.1f} {r['p95']:>7.1f} {r['max']:>7d}  {hist}"
            )
    sp = loc.get("set_pressure") or {}
    if sp:
        hist = " ".join(f"{k}:{v}" for k, v in (sp.get("hist") or {}).items())
        lines.append(
            f"set pressure: {sp['used']}/{sp['nsets']} sets used, "
            f"max={sp['max']} mean={sp['mean']:.2f} p95={sp['p95']:.1f}"
            + (f"  [{hist}]" if hist else "")
        )
    hm = loc.get("heatmap") or {}
    if hm.get("phases"):
        arrays = hm["arrays"]
        corner = "phase \\ array"
        header = f"{corner:16s}" + "".join(f"{a:>10s}" for a in arrays)
        lines.append(header)
        for phase, row in zip(hm["phases"], hm["counts"]):
            lines.append(
                f"{phase:16s}" + "".join(f"{c:>10d}" for c in row)
            )
    return "\n".join(lines)


def _fmt_bytes(n) -> str:
    if not isinstance(n, (int, float)):
        return "?"
    return f"{n / 1e6:.0f} MB" if n >= 1e6 else f"{n / 1e3:.0f} kB"


def format_status_text(status: Mapping) -> str:
    """Terminal rendering of one run's :class:`RunStatus` dict — the
    ``repro status`` display, redrawn every second by ``--follow``."""
    s = status
    lines: List[str] = []
    pid = s.get("pid")
    alive = s.get("pid_alive")
    liveness = {True: " (alive)", False: " (dead)"}.get(alive, "")
    lines.append(f"run {s.get('run_id', '?')}  state={s.get('state', '?')}"
                 f"  pid {pid if pid else '?'}{liveness}")

    total = s.get("total") or 0
    finished = s.get("finished") or 0
    frac = s.get("progress")
    if frac is None:
        frac = finished / total if total else 1.0
    width = 30
    filled = min(int(width * frac), width)
    tail = ""
    if s.get("ewma_latency") is not None:
        tail += f"  ewma {s['ewma_latency']:.3g}s/pt"
    if s.get("eta") is not None:
        tail += f"  eta {s['eta']:.3g}s"
    lines.append(f"[{'#' * filled}{'.' * (width - filled)}] "
                 f"{finished}/{total} {frac * 100:.0f}%{tail}")

    lines.append(
        f"ok {s.get('ok', 0)}  errors {s.get('errors', 0)}  "
        f"degraded {s.get('degraded', 0)}  retried {s.get('retried', 0)}  "
        f"store-hits {s.get('store_hits', 0)}  waves {s.get('waves', 0)}  "
        f"resumes {s.get('resumes', 0)}")
    extras = []
    if s.get("cache_hit_rate") is not None:
        extras.append(f"cache hit rate {s['cache_hit_rate'] * 100:.1f}%")
    if s.get("heartbeat_age") is not None:
        extras.append(f"heartbeat {s['heartbeat_age']:.1f}s ago")
    if s.get("rss") is not None:
        extras.append(f"rss {_fmt_bytes(s['rss'])}")
    if extras:
        lines.append("  ".join(extras))

    in_flight = s.get("in_flight") or []
    if in_flight:
        labels = ", ".join(str(p.get("label", p.get("i")))
                           for p in in_flight[:8])
        more = f", +{len(in_flight) - 8} more" if len(in_flight) > 8 else ""
        lines.append(f"in flight ({len(in_flight)}): {labels}{more}")

    matrix = s.get("scheme_matrix") or {}
    if matrix:
        schemes = sorted({sch for cells in matrix.values()
                          for sch in cells})
        lines.append("")
        header = f"{'app':16s}" + "".join(f"{sch:>10s}" for sch in schemes)
        lines.append(header)
        lines.append("-" * len(header))
        for app in sorted(matrix):
            row = f"{app:16s}"
            for sch in schemes:
                done, tot = (matrix[app].get(sch) or [0, 0])[:2]
                row += f"{f'{done}/{tot}':>10s}"
            lines.append(row)
    if s.get("torn_tail") or s.get("bad_lines"):
        lines.append(f"journal damage: torn_tail={bool(s.get('torn_tail'))}"
                     f" bad_lines={s.get('bad_lines', 0)}")
    return "\n".join(lines)


def run_report_html(payload: Mapping) -> str:
    """Self-contained HTML run report from a
    :func:`repro.obs.runstate.build_report` payload: status summary,
    progress/rss curves from the heartbeats, per-point table, and the
    degradation / failure / decision rollups.  Everything inline — the
    file renders from a CI artifact tab with no other assets."""
    from repro.obs.html import page, svg_line, table

    s = payload.get("status") or {}
    parts: List[str] = []

    state = s.get("state", "?")
    state_style = {"finished": "background:#dfd",
                   "running": "background:#dfd",
                   "interrupted": "background:#fdd",
                   "stale": "background:#fec"}.get(state, "")
    parts.append("<h2>status</h2>")
    parts.append(table(
        ["run", "state", "progress", "ok", "errors", "degraded",
         "retried", "store hits", "waves", "resumes", "eta (s)"],
        [[s.get("run_id", "?"), (state, state_style),
          f"{s.get('finished', 0)}/{s.get('total', 0)}",
          s.get("ok", 0), s.get("errors", 0), s.get("degraded", 0),
          s.get("retried", 0), s.get("store_hits", 0),
          s.get("waves", 0), s.get("resumes", 0),
          s.get("eta") if s.get("eta") is not None else "-"]],
    ))
    in_flight = s.get("in_flight") or []
    if in_flight:
        labels = ", ".join(str(p.get("label", p.get("i")))
                           for p in in_flight)
        parts.append(f"<p class='meta'>in flight ({len(in_flight)}): "
                     f"{labels}</p>")

    curves = (payload.get("series") or {}).get("curves") or {}
    if curves:
        parts.append("<h2>time series</h2>")
        for name, unit in (("finished", "points"),
                           ("dispatched", "points"),
                           ("errors", "points"),
                           ("store_hits", "points"),
                           ("rss_mb", "MB")):
            pts = curves.get(name)
            if pts:
                parts.append(svg_line(pts, label=name, unit=unit))
    else:
        parts.append("<p class='meta'>no time-series samples for this "
                     "run (driver ran without --heartbeat?)</p>")

    rows = payload.get("points") or []
    if rows:
        parts.append("<h2>points</h2>")
        parts.append(table(
            ["#", "point", "ok", "elapsed s", "sim time", "store hit",
             "attempts", "degraded"],
            [[r.get("i"), (r.get("label", "?"), ""),
              ("yes", "") if r.get("ok") else ("NO", "background:#fdd"),
              (f"{r['elapsed']:.3f}"
               if isinstance(r.get("elapsed"), (int, float)) else "-"),
              (f"{r['total_time']:.1f}"
               if isinstance(r.get("total_time"), (int, float)) else "-"),
              "hit" if r.get("store_hit") else "",
              r.get("attempts", 1),
              "degraded" if r.get("degraded") else ""]
             for r in rows],
            left_cols=2,
        ))

    for key, title, headers, render in (
        ("degraded", "degraded points", ["point", "reason"],
         lambda d: [d.get("label"), d.get("reason")]),
        ("failures", "failures", ["point", "error"],
         lambda d: [d.get("label"), str(d.get("error", ""))[:200]]),
    ):
        items = payload.get(key) or []
        if items:
            parts.append(f"<h2>{title}</h2>")
            parts.append(table(headers, [render(d) for d in items],
                               left_cols=1))

    decisions = payload.get("decisions") or {}
    if decisions:
        parts.append("<h2>compiler decisions</h2>")
        parts.append(table(["decision", "points"],
                           list(decisions.items())))

    timeline = [e for e in (payload.get("timeline") or [])
                if e.get("type") != "heartbeat"]
    if timeline:
        parts.append("<h2>timeline</h2>")
        shown = timeline[:400]
        parts.append(table(
            ["t (s)", "event", "detail"],
            [[f"{e.get('t', 0):.3f}", e.get("type"),
              e.get("label") or
              (f"wave {e.get('wave')} ({e.get('pending')} pending)"
               if e.get("type") == "wave" else
               f"point {e.get('i')} "
               f"{'ok' if e.get('ok') else 'failed'}")]
             for e in shown],
            left_cols=0,
        ))
        if len(timeline) > len(shown):
            parts.append(f"<p class='meta'>... {len(timeline) - len(shown)}"
                         " more events</p>")

    hdr = payload.get("header") or {}
    parts.append(f"<p class='meta'>journal schema {hdr.get('schema', '?')}"
                 f" · created {hdr.get('created', '?')}"
                 f" · samples {(payload.get('series') or {}).get('samples', 0)}"
                 "</p>")
    return page(f"repro run report — {payload.get('run_id', '?')}", parts)


def profile_as_dict(result) -> Dict:
    """Machine-readable counterpart of :func:`format_profile_table`
    (the ``profile --json`` payload)."""
    phases = []
    for pc in result.phase_costs:
        m = pc.misses or {}
        phases.append({
            "nest": pc.nest_name,
            "time": pc.time,
            "sync": pc.sync,
            "accesses": m.get("accesses", 0),
            "misses": {key: m.get(key, 0) for key, _ in _PROFILE_CLASSES},
        })
    return {
        "scheme": result.scheme,
        "nprocs": result.nprocs,
        "total_time": result.total_time,
        "phases": phases,
        "arrays": {
            name: dict(ab)
            for name, ab in sorted((result.array_breakdown or {}).items())
        },
        "numa": dict(result.numa) if result.numa else None,
        "conflict_sets": (
            dict(result.conflict_sets) if result.conflict_sets else None
        ),
        "locality": (
            dict(result.locality)
            if getattr(result, "locality", None) else None
        ),
    }


# Pipeline order used to group decision records in the explain tree.
_EXPLAIN_STAGES = ("unimodular", "decomposition", "folding", "layout",
                   "addropt")


def format_explain_tree(log, title: str = "") -> str:
    """Human-readable decision tree of one compilation's
    :class:`~repro.obs.provenance.ProvenanceLog` (or a list of record
    dicts).  Degenerate inputs render a one-line message."""
    records = log.as_dicts() if hasattr(log, "as_dicts") else list(log or [])
    head = f"decision provenance: {title}" if title else "decision provenance"
    if not records:
        return f"{head}\n(no decisions recorded)"
    stages = list(_EXPLAIN_STAGES) + sorted(
        {r.get("stage", "?") for r in records} - set(_EXPLAIN_STAGES)
    )
    lines = [
        f"{head} — {len(records)} decision"
        f"{'s' if len(records) != 1 else ''} across "
        f"{len({r.get('stage') for r in records})} stages"
    ]
    for stage in stages:
        group = [r for r in records if r.get("stage") == stage]
        if not group:
            continue
        lines.append(f"[{stage}]")
        for r in group:
            lines.append(
                f"  {r.get('subject', '?')}: chose {r.get('chosen', '?')}"
                + (f"  ({r.get('reason')})" if r.get("reason") else "")
            )
            alts = [a for a in r.get("alternatives", [])
                    if a != r.get("chosen")]
            if alts:
                lines.append(f"      alternatives: {', '.join(alts)}")
            inputs = r.get("inputs") or {}
            if inputs:
                lines.append(
                    "      inputs: "
                    + " ".join(
                        f"{k}={_fmt_value(v)}" for k, v in sorted(inputs.items())
                    )
                )
    return "\n".join(lines)


def _describe_record(rec: Optional[Mapping]) -> str:
    if not rec:
        return "(absent)"
    out = (f"[{rec.get('stage', '?')}] {rec.get('site', '?')} "
           f"{rec.get('subject', '?')}: {rec.get('chosen', '?')}")
    if rec.get("reason"):
        out += f" ({rec['reason']})"
    return out


def format_diff_table(diff, title: str = "run diff") -> str:
    """Render one :func:`repro.obs.compare.diff_runs` verdict: what
    makes the runs differ, point by point and each closed by its
    first diverging decision, then the wall-clock moves ranked
    largest first."""
    from repro.obs.compare import DIVERGED, WALL_ABS_FLOOR, WALL_TOL

    lines = [title]
    if not diff.wall_gated:
        lines.append(f"self times not compared: hosts differ "
                     f"({diff.host_note})")
    moves = [r for r in diff.rows if r.status in ("regressed", "improved")]
    point = None
    for r in diff.rows:
        if r.status in ("regressed", "improved"):
            continue
        if r.status == "incomparable":
            lines.append(f"{r.metric}: {_fmt_value(r.a)} vs "
                         f"{_fmt_value(r.b)}: {r.note}")
        elif r.status == "missing":
            lines.append(f"point {r.point}: {r.note}")
        else:
            if r.point != point:
                point = r.point
                lines.append(f"point {point}")
            if r.status == "culprit":
                lines.append(f"    culprit: {r.metric} diverged")
                lines.append(f"      A: {_describe_record(r.a)}")
                lines.append(f"      B: {_describe_record(r.b)}")
            elif r.status == "unattributed":
                lines.append(f"    {r.note}")
            else:
                try:
                    rel = f" ({(r.b - r.a) / abs(r.a):+.1%})" if r.a else ""
                except TypeError:  # a list, or a leaf in one run only
                    rel = ""
                note = f" ({r.note})" if r.note else ""
                lines.append(f"    {r.metric}: {_fmt_value(r.a)} -> "
                             f"{_fmt_value(r.b)}{rel}  {r.status}{note}")
    if moves:
        lines.append(f"wall-clock moves past {WALL_TOL:.0%} and "
                     f"{WALL_ABS_FLOOR * 1e3:.0f} ms, largest first "
                     "(not gated):")
        for rank, r in enumerate(moves, 1):
            lines.append(
                f"#{rank:<3d} {r.point:20s} {r.metric:32s} "
                f"{r.a * 1e3:9.3f} -> {r.b * 1e3:9.3f} ms "
                f"{(r.b - r.a) * 1e3:+9.3f}  {r.status}")
    for note in diff.notes:
        lines.append(f"note: {note}")
    def count(n: int, what: str) -> str:
        return f"{n} {what}{'s' if n != 1 else ''}"

    compared = f"{count(diff.n_compared, 'point')} compared"
    if any(r.status == "incomparable" for r in diff.rows):
        verdict = "DIVERGED (runs incomparable)"
    elif diff.diverged:
        k = len({r.point for r in diff.rows if r.status in DIVERGED})
        verdict = f"DIVERGED ({count(k, 'diverging point')}; {compared})"
    elif moves:
        verdict = (f"SAME ({compared}; "
                   f"{count(len(moves), 'wall-clock move')})")
    else:
        verdict = f"SAME (runs identical: {compared})"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)


def _fmt_value(v) -> str:
    """Compact cell rendering for the diff table."""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, list):
        return f"[{len(v)} items]"
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, dict):
        return ",".join(f"{k}={_fmt_value(x)}" for k, x in sorted(v.items()))
    return str(v)


def format_bench_table(snapshot: Mapping) -> str:
    """Per-point summary of one bench snapshot
    (:func:`repro.obs.bench.run_bench`)."""
    cfg = snapshot["config"]
    lines = [
        f"bench: n={cfg['n']} scale={cfg['scale']} "
        f"({snapshot['created']})"
    ]
    header = (
        f"{'app':12s} {'scheme':6s} {'P':>3s} {'compile':>9s} "
        f"{'sim time':>11s} {'accesses':>9s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for p in snapshot["points"]:
        lines.append(
            f"{p['app']:12s} {p['scheme']:6s} {p['nprocs']:3d} "
            f"{p['compile_s']:9.4f} {p['sim']['total_time']:11.4e} "
            f"{p['sim']['n_accesses']:9d}"
        )
    return "\n".join(lines)


# Ledger rows `repro perf` prints, largest self time first.
LEDGER_ROWS = 25


def format_ledger_table(ledger: Mapping,
                        title: str = "wall-time ledger") -> str:
    """Render one wall-time ledger
    (:func:`repro.obs.perf.build_ledger`): rows by descending self
    time, plus the reconciliation verdict that makes the accounting
    falsifiable — the rows (including ``<unattributed>``) must sum
    back to the measured total."""
    from repro.obs.perf import ledger_reconciles

    total = float(ledger["total_s"])
    lines = [title]
    share = (ledger["unattributed_s"] / total) if total else 0.0
    lines.append(
        f"total {total * 1e3:.2f} ms; attributed "
        f"{ledger['attributed_s'] * 1e3:.2f} ms; <unattributed> "
        f"{ledger['unattributed_s'] * 1e3:.3f} ms ({share:.1%})"
    )
    header = (f"{'kind':9s} {'row':36s} {'self ms':>10s} "
              f"{'share':>7s} {'count':>6s}")
    lines.append(header)
    lines.append("-" * len(header))
    rows = sorted(ledger["rows"],
                  key=lambda r: (-r["self_s"], r["kind"], r["name"]))
    for r in rows[:LEDGER_ROWS]:
        frac = (r["self_s"] / total) if total else 0.0
        lines.append(
            f"{r['kind']:9s} {r['name']:36s} {r['self_s'] * 1e3:10.3f} "
            f"{frac:7.1%} {r['count']:6d}"
        )
    if len(rows) > LEDGER_ROWS:
        lines.append(f"... {len(rows) - LEDGER_ROWS} more rows")
    ok, row_sum = ledger_reconciles(ledger)
    lines.append(
        f"reconciliation: {'OK' if ok else 'BROKEN'} "
        f"(rows sum {row_sum * 1e3:.3f} ms vs total {total * 1e3:.3f} ms)"
    )
    return "\n".join(lines)


def markdown_speedup_table(curves: Mapping[str, Series]) -> str:
    """The same data as a Markdown table (for EXPERIMENTS.md)."""
    procs = [p for p, _ in next(iter(curves.values()))]
    out = ["| scheme | " + " | ".join(f"P={p}" for p in procs) + " |"]
    out.append("|" + "---|" * (len(procs) + 1))
    for scheme, series in curves.items():
        out.append(
            f"| {scheme} | "
            + " | ".join(f"{s:.2f}" for _, s in series)
            + " |"
        )
    return "\n".join(out)


def at_procs(series: Series, p: int) -> Optional[float]:
    """The speedup at processor count ``p`` (None if absent)."""
    for q, s in series:
        if q == p:
            return s
    return None


@dataclass
class Table1Row:
    """One row of the paper's Table 1."""

    program: str
    base_speedup: float
    optimized_speedup: float
    comp_decomp_critical: bool
    data_transform_critical: bool
    data_decompositions: List[str] = field(default_factory=list)


def classify_critical(
    base: float, cd: float, cdd: float, threshold: float = 1.15
) -> Tuple[bool, bool]:
    """Infer the Table-1 'critical technique' checkmarks from measured
    speedups.

    Computation decomposition counts as critical when the globally
    decomposed program (with whatever layout it needs) clearly beats
    BASE — the data transformation only exists on top of the
    decomposition, so a big combined win implies the decomposition
    mattered.  Data transformation is critical when it clearly beats
    the decomposition-only configuration.
    """
    comp_critical = cdd >= threshold * base or cd >= threshold * base
    data_critical = cdd >= threshold * max(cd, 1e-12)
    return comp_critical, data_critical


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Fixed-width rendering of the Table-1 reproduction."""
    lines = [
        f"{'Program':12s} {'Base':>7s} {'Optimized':>10s} "
        f"{'CompDecomp':>11s} {'DataTrans':>10s}  Data decompositions"
    ]
    lines.append("-" * 90)
    for r in rows:
        lines.append(
            f"{r.program:12s} {r.base_speedup:7.1f} "
            f"{r.optimized_speedup:10.1f} "
            f"{'yes' if r.comp_decomp_critical else '-':>11s} "
            f"{'yes' if r.data_transform_critical else '-':>10s}  "
            + "; ".join(r.data_decompositions)
        )
    return "\n".join(lines)
