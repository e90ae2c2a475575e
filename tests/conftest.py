"""Shared fixtures for the test suite."""

import statistics
import time

import numpy as np
import pytest

from repro.ir.builder import ProgramBuilder


@pytest.fixture
def rng():
    return np.random.default_rng(20260707)


@pytest.fixture
def figure1_program():
    """The paper's Figure 1 program at a small size."""
    from repro.apps import simple

    return simple.build(n=16, time_steps=2)


@pytest.fixture
def lu_program():
    from repro.apps import lu

    return lu.build(n=10)


def make_two_nest_program(n=8):
    """A tiny two-nest program for structural tests."""
    pb = ProgramBuilder("tiny", params={"N": n})
    a = pb.array("A", (n, n))
    b = pb.array("B", (n, n))
    i, j = pb.vars("I", "J")
    pb.nest("first", [("J", 0, n - 1), ("I", 0, n - 1)],
            [pb.assign(a(i, j), [b(i, j)], lambda x: x)])
    pb.nest("second", [("J", 1, n - 1), ("I", 0, n - 1)],
            [pb.assign(b(i, j), [a(i, j - 1)], lambda x: x)])
    return pb.build()


def pass_invocations(counts):
    """Runs + hits per pass name: how often each pass was invoked,
    whether it ran or was served from the artifact cache."""
    runs, hits = counts["pass_runs"], counts["pass_hits"]
    return {n: runs.get(n, 0) + hits.get(n, 0)
            for n in set(runs) | set(hits)}


# Alternated (a, b) pairs the overhead guards time.  Timing the
# monitoring guard's run against itself (2 vCPU, 100 trials, the two
# statistics interleaved), the median of paired differences broke the
# bound in 0 trials where per-arm minima broke it in 4; a monitor whose
# heartbeats sleep 5 ms broke it 5 of 5 under both.
OVERHEAD_PAIRS = 10


def median_paired_overhead(arm_a, arm_b):
    """``(overhead, floor)`` over ``OVERHEAD_PAIRS`` rounds that run
    ``arm_a`` then ``arm_b``: the median of the paired differences
    ``a_i - b_i`` and the median of ``b_i``.  Alternating spreads any
    drift in the host's speed over both arms, and a median of pairs,
    unlike a per-arm minimum, is not moved by one fast run that only
    one arm caught.  Guards assert ``overhead <= floor * 0.05 +
    0.005``."""
    diffs, floors = [], []
    for _ in range(OVERHEAD_PAIRS):
        t0 = time.perf_counter()
        arm_a()
        t1 = time.perf_counter()
        arm_b()
        t2 = time.perf_counter()
        diffs.append((t1 - t0) - (t2 - t1))
        floors.append(t2 - t1)
    return statistics.median(diffs), statistics.median(floors)
