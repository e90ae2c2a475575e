"""Tests for the exact dependence analysis."""

from itertools import product

import pytest

from repro import apps
from repro.analysis.dependence import (
    LOOP_INDEPENDENT,
    analyze_nest,
    dependence_distance_table,
)
from repro.analysis.unimodular import expose_outer_parallelism
from repro.ir.builder import ProgramBuilder
from repro.ir.loops import Statement


def single_nest(loops, body_fn, arrays, params=None):
    pb = ProgramBuilder("t", params=params or {})
    decls = {name: pb.array(name, dims) for name, dims in arrays.items()}
    nest = pb.nest("n", loops, body_fn(pb, decls))
    return pb.build(validate=False), nest


class TestNoDependence:
    def test_disjoint_arrays(self):
        prog, nest = single_nest(
            [("I", 0, 7)],
            lambda pb, d: [pb.assign(d["A"](pb.vars("I")[0]),
                                     [d["B"](pb.vars("I")[0])], None)],
            {"A": (8,), "B": (8,)},
        )
        deps = analyze_nest(nest, prog.params)
        assert deps == []

    def test_gcd_filter(self):
        # A(2I) written, A(2I+1) read: never intersect.
        pb = ProgramBuilder("t")
        a = pb.array("A", (32,))
        (i,) = pb.vars("I")
        nest = pb.nest("n", [("I", 0, 7)],
                       [pb.assign(a(2 * i), [a(2 * i + 1)], None)])
        deps = analyze_nest(nest, {})
        assert deps == []

    def test_out_of_range_distance(self):
        # A(I) = A(I+100) with only 8 iterations: no overlap.
        pb = ProgramBuilder("t")
        a = pb.array("A", (200,))
        (i,) = pb.vars("I")
        nest = pb.nest("n", [("I", 0, 7)],
                       [pb.assign(a(i), [a(i + 100)], None)])
        assert analyze_nest(nest, {}) == []


class TestUniformDependences:
    def test_flow_distance_one(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (16,))
        (i,) = pb.vars("I")
        nest = pb.nest("n", [("I", 1, 14)],
                       [pb.assign(a(i), [a(i - 1)], None)])
        deps = analyze_nest(nest, {})
        flows = [d for d in deps if d.kind == "flow" and d.level == 0]
        assert flows and all(d.distance == (1,) for d in flows)

    def test_anti_dependence(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (16,))
        (i,) = pb.vars("I")
        nest = pb.nest("n", [("I", 0, 13)],
                       [pb.assign(a(i), [a(i + 2)], None)])
        deps = analyze_nest(nest, {})
        antis = [d for d in deps if d.kind == "anti" and d.level == 0]
        assert antis and all(d.distance == (2,) for d in antis)

    def test_figure1_relax(self, figure1_program):
        nest = figure1_program.nest("relax")
        table = dependence_distance_table(nest, figure1_program.params)
        assert 0 in table  # carried by J
        assert 1 not in table  # I parallel
        for d in table[0]:
            assert d.distance == (1, 0)

    def test_output_dependence(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (16, 16))
        i, j = pb.vars("I", "J")
        # A(I,0) written every J iteration: output dep carried by J.
        nest = pb.nest("n", [("I", 0, 7), ("J", 0, 7)],
                       [pb.assign(a(i, 0 * j), [a(i, j)], None)])
        deps = analyze_nest(nest, {})
        outs = [d for d in deps if d.kind == "output"]
        assert any(d.level == 1 for d in outs)

    def test_loop_independent_between_statements(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (16,))
        b = pb.array("B", (16,))
        (i,) = pb.vars("I")
        nest = pb.nest("n", [("I", 0, 15)], [
            pb.assign(a(i), [b(i)], None),
            pb.assign(b(i), [a(i)], None),
        ])
        deps = analyze_nest(nest, {})
        li = [d for d in deps if d.level == LOOP_INDEPENDENT]
        # flow A: s0 writes A(i), s1 reads A(i) in same iteration
        assert any(d.array == "A" and d.kind == "flow" for d in li)
        # no loop-independent dep may flow backwards in the body
        assert all(d.src_stmt <= d.dst_stmt for d in li)


class TestTriangularAndImperfect:
    def test_lu_all_carried_outermost(self, lu_program):
        nest = lu_program.nests[0]
        deps = analyze_nest(nest, lu_program.params)
        carried = [d for d in deps if d.level >= 0]
        assert carried
        assert all(d.level == 0 for d in carried)

    def test_lu_positive_first_component(self, lu_program):
        nest = lu_program.nests[0]
        for d in analyze_nest(nest, lu_program.params):
            if d.level == 0:
                assert d.dmin[0] is not None and d.dmin[0] >= 1

    def test_imperfect_common_depth(self, lu_program):
        nest = lu_program.nests[0]
        deps = analyze_nest(nest, lu_program.params)
        # deps between the depth-2 scale stmt and depth-3 update stmt
        cross = [d for d in deps if d.src_stmt != d.dst_stmt]
        assert cross
        for d in cross:
            assert len(d.dmin) == 2  # min(depth(s1), depth(s2))


class TestParamOffsets:
    def test_reversed_access(self):
        # A(N-1-I) = A(N-I): anti/flow with distance via param offsets.
        n = 10
        pb = ProgramBuilder("t", params={"N": n})
        a = pb.array("A", (n,))
        (i,) = pb.vars("I")
        rev = -1 * i + (n - 1)
        nest = pb.nest("n", [("I", 1, n - 1)],
                       [pb.assign(a(rev), [a(rev + 1)], None)])
        deps = analyze_nest(nest, pb._prog.params)
        flows = [d for d in deps if d.kind == "flow" and d.level == 0]
        assert flows and all(d.distance == (1,) for d in flows)


class TestDedupAndRepr:
    def test_no_duplicates(self, figure1_program):
        nest = figure1_program.nest("relax")
        deps = analyze_nest(nest, figure1_program.params)
        keys = [
            (d.array, d.src_stmt, d.dst_stmt, d.kind, d.level, d.dmin, d.dmax)
            for d in deps
        ]
        assert len(keys) == len(set(keys))

    def test_repr_contains_kind(self, figure1_program):
        nest = figure1_program.nest("relax")
        deps = analyze_nest(nest, figure1_program.params)
        assert any("flow" in repr(d) for d in deps)

    def test_memoization_returns_same_list(self, figure1_program):
        nest = figure1_program.nest("relax")
        a = analyze_nest(nest, figure1_program.params)
        b = analyze_nest(nest, figure1_program.params)
        assert a is b


# ---------------------------------------------------------------------------
# brute-force spec on the benchmark programs' own nests
# ---------------------------------------------------------------------------

def _union(hull, key, lo, hi):
    """Widen ``hull[key]`` to cover [lo, hi] componentwise (None = unbounded)."""
    if key in hull:
        olo, ohi = hull[key]
        lo = tuple(None if a is None or b is None else min(a, b)
                   for a, b in zip(olo, lo))
        hi = tuple(None if a is None or b is None else max(a, b)
                   for a, b in zip(ohi, hi))
    hull[key] = (lo, hi)


def enumerated_dependences(nest, params):
    """Every dependence of ``nest``, found by walking its iterations.

    A statement's instances are the distinct prefixes of its depth in
    ``nest.iterate``.  For each ordered reference pair with at least one
    write, every pair of instances touching the same element is a
    dependence at the level of the first nonzero component of
    d = t - s over the common levels (which must be positive), or
    loop-independent when d = 0 and the source statement comes first.
    Returns {(array, src, dst, kind, level): (dmin, dmax)}.
    """
    depths = [nest.depth if st.depth is None else st.depth
              for st in nest.body]
    instances = [{} for _ in nest.body]
    for env in nest.iterate(params):
        for s, d in enumerate(depths):
            instances[s].setdefault(
                tuple(env[v] for v in nest.loop_vars[:d]), env)
    refs = []
    for s, st in enumerate(nest.body):
        for ref, write in [(st.write, True)] + [(r, False) for r in st.reads]:
            touched = {}
            for prefix, env in instances[s].items():
                touched.setdefault(ref.index_at(env), []).append(prefix)
            refs.append((s, ref.array.name, write, touched))
    hull = {}
    for (s1, a1, w1, t1), (s2, a2, w2, t2) in product(refs, repeat=2):
        if a1 != a2 or not (w1 or w2):
            continue
        kind = "output" if w1 and w2 else "flow" if w1 else "anti"
        common = min(depths[s1], depths[s2])
        for elem, sources in t1.items():
            for t in t2.get(elem, ()):
                for s in sources:
                    d = tuple(t[j] - s[j] for j in range(common))
                    lead = next((j for j, x in enumerate(d) if x), None)
                    if lead is None:
                        if s1 >= s2:
                            continue
                        level = LOOP_INDEPENDENT
                    elif d[lead] < 0:
                        continue
                    else:
                        level = lead
                    _union(hull, (a1, s1, s2, kind, level), d, d)
    return hull


def analyzed_dependences(nest, params):
    """``analyze_nest`` in the same shape, ranges unioned per key."""
    hull = {}
    for dep in analyze_nest(nest, params):
        key = (dep.array, dep.src_stmt, dep.dst_stmt, dep.kind, dep.level)
        _union(hull, key, dep.dmin, dep.dmax)
    return hull


def app_nests(name, n):
    """Every nest of the built app, plus its restructured form where the
    unimodular pass permutes it."""
    prog = apps.build_app(name, n=n)
    for nest in prog.nests:
        yield nest, prog.params
        new = expose_outer_parallelism(nest, prog.params).nest
        if new is not nest:
            yield new, prog.params


class TestRealNests:
    """``analyze_nest`` equals the brute-force enumeration on every
    benchmark nest: same dependence keys, and per key the union of the
    reported distance ranges is exactly the enumerated hull."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("app", sorted(apps.ALL_APPS))
    def test_matches_enumeration(self, app, n):
        for nest, params in app_nests(app, n):
            want = enumerated_dependences(nest, params)
            got = analyzed_dependences(nest, params)
            assert set(got) == set(want), (
                nest.name,
                sorted(set(got) - set(want)),
                sorted(set(want) - set(got)),
            )
            for key in want:
                assert got[key] == want[key], (nest.name, key)
