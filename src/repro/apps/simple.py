"""The paper's Figure 1 example.

Two nests under a time loop: an elementwise update of ``A`` from ``B``
and ``C`` (fully parallel) and a column relaxation carrying a dependence
along J.  Minimizing sharing forces both nests to parallelize the I
(row) loop and distributes rows in blocks — DISTRIBUTE(BLOCK, *) — and
the data transformation then makes each processor's block of rows
contiguous (Figure 1(c)).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.ir.builder import ProgramBuilder
from repro.ir.program import Program

PAPER_N = 1024
PAPER_ELEMENT = 4  # REAL


def build(n: int = 64, time_steps: int = 4) -> Program:
    """The Figure 1 code at size n (paper: 1024)."""
    pb = ProgramBuilder("simple", params={"N": n}, time_steps=time_steps)
    a = pb.array("A", (n, n), element_size=PAPER_ELEMENT)
    b = pb.array("B", (n, n), element_size=PAPER_ELEMENT)
    c = pb.array("C", (n, n), element_size=PAPER_ELEMENT)
    i, j = pb.vars("I", "J")
    pb.nest(
        "add",
        [("J", 0, n - 1), ("I", 0, n - 1)],
        [pb.assign(a(i, j), [b(i, j), c(i, j)], lambda x, y: x + y)],
    )
    pb.nest(
        "relax",
        [("J", 1, n - 2), ("I", 0, n - 1)],
        [
            pb.assign(
                a(i, j),
                [a(i, j), a(i, j - 1), a(i, j + 1)],
                lambda x, y, z: 0.333 * (x + y + z),
            )
        ],
    )
    return pb.build()


def reference(
    init: Mapping[str, np.ndarray], n: int, time_steps: int = 4
) -> Dict[str, np.ndarray]:
    """Vectorized golden model (sequential semantics)."""
    a = np.array(init["A"], dtype=np.float64)
    b = np.array(init["B"], dtype=np.float64)
    c = np.array(init["C"], dtype=np.float64)
    for _ in range(time_steps):
        a = b + c
        # The relaxation sweeps J left-to-right and uses updated A(I,J-1):
        for j in range(1, n - 1):
            a[:, j] = 0.333 * (a[:, j] + a[:, j - 1] + a[:, j + 1])
    return {"A": a, "B": b, "C": c}
