"""LU at the paper's own size: 1024x1024 on the unscaled DASH L1.

Not part of ``pytest benchmarks`` (each point simulates about 1.43 G
accesses and takes minutes), so it is run by hand from the repo root:

    PYTHONPATH=src python benchmarks/paper_size_lu1k.py

Each point (comp and comp+data at P = 31 and 32) runs in a fresh
interpreter, as many at once as there are CPUs, on
``scaled_dash(P, scale=1, word_bytes=8)``: a 64 KB direct-mapped L1,
16 B lines and 4 KB pages, the cache holding 8 of LU's 1024-element
columns.  The simulated numbers and the P32/P31 ratios go to
``results/paper_size_lu1k.txt``, which is deterministic; each point's
wall time and peak RSS (about 0.6 GiB) are printed, not stored.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

N = 1024
POINTS = [(scheme, p) for scheme in ("comp", "data") for p in (31, 32)]
LABEL = {"comp": "comp", "data": "comp+data"}
CLASSES = ("cold", "replacement", "true_sharing", "false_sharing",
           "upgrade", "l2_hits", "remote", "local_miss")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "results", "paper_size_lu1k.txt")


def point(scheme: str, nprocs: int) -> dict:
    """Simulate one point in this process."""
    from repro.apps import build_app
    from repro.codegen.spmd import Scheme
    from repro.machine import scaled_dash
    from repro.machine.simulate import simulate
    from repro.pipeline import CompileSession

    schemes = {"comp": Scheme.COMP_DECOMP, "data": Scheme.COMP_DECOMP_DATA}
    spmd = CompileSession().compile(build_app("lu", n=N), schemes[scheme],
                                    nprocs)
    t0 = time.perf_counter()
    res = simulate(spmd, scaled_dash(nprocs, scale=1, word_bytes=8))
    return {
        "scheme": scheme, "nprocs": nprocs, "total_time": res.total_time,
        "n_accesses": res.n_accesses, "misses": res.miss_breakdown,
        "wall_s": time.perf_counter() - t0,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_point(scheme: str, nprocs: int) -> dict:
    """One point in a fresh interpreter, so its peak RSS is its own."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--point",
         f"{scheme}:{nprocs}"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def table(results: list) -> str:
    lines = [
        f"LU {N}x{N}, scaled_dash(P, scale=1, word_bytes=8): 64 KB "
        f"direct-mapped L1, 16 B lines, 4 KB pages "
        f"({65536 // (8 * N)} LU columns)",
        "",
        f"{'scheme':<10} {'P':>3} {'total_time':>22} {'n_accesses':>12} "
        + " ".join(f"{c:>13}" for c in CLASSES),
    ]
    by = {(r["scheme"], r["nprocs"]): r for r in results}
    for scheme, p in POINTS:
        r = by[scheme, p]
        lines.append(
            f"{LABEL[scheme]:<10} {p:>3} {r['total_time']!r:>22} "
            f"{r['n_accesses']:>12} "
            + " ".join(f"{r['misses'][c]:>13}" for c in CLASSES))
    lines.append("")
    for scheme in ("comp", "data"):
        ratio = by[scheme, 32]["total_time"] / by[scheme, 31]["total_time"]
        lines.append(f"T(P32)/T(P31) {LABEL[scheme]}: {ratio:.3f}")
    lines.append("paper (Fig. 6, 1Kx1K): about 5x for comp")
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--point", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.point:
        scheme, p = args.point.split(":")
        print(json.dumps(point(scheme, int(p))))
        return 0
    jobs = min(len(POINTS), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda sp: run_point(*sp), POINTS))
    for r in results:
        print(f"{LABEL[r['scheme']]:<10} P={r['nprocs']}: "
              f"wall {r['wall_s']:.0f} s, peak RSS "
              f"{r['peak_rss_mib']:.0f} MiB")
    text = table(results)
    with open(OUT, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
