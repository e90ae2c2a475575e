"""Shared fixtures for the test suite."""

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
# monitoring guard's run against itself (2 vCPU, the two designs run
# interleaved), 10 pairs broke its bound in 1 of 100 trials where 5
# runs of each arm in one block broke it in 14 of 100; 20 pairs did no
# better than 10.  A monitor whose heartbeats sleep 5 ms broke it 5 of 5.
OVERHEAD_PAIRS = 10


def best_of_alternating(arm_a, arm_b):
    """Each arm's minimum wall time over ``OVERHEAD_PAIRS`` rounds that
    run ``arm_a`` then ``arm_b``.  Alternating spreads any drift in the
    host's speed over both arms, so the comparison measures the arms,
    not the order they ran in."""
    best_a = best_b = float("inf")
    for _ in range(OVERHEAD_PAIRS):
        t0 = time.perf_counter()
        arm_a()
        t1 = time.perf_counter()
        arm_b()
        t2 = time.perf_counter()
        best_a = min(best_a, t1 - t0)
        best_b = min(best_b, t2 - t1)
    return best_a, best_b
