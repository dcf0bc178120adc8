"""The displacement cone's rows against the hull of its generators.

``ops._displacement_cone(p, q, x)`` reads ``T_x(P) - T_x(Q)`` off the
facet rows of P and Q that are tight at x, each lifted to be zero on the
other side's ``Lin``.  The cone those rows cut out must be
``displacement_cone_oracle``'s, the hull of the old generators, for:

* every candidate pair of the multidegrees of generator seeds 0-199,
  the divisor powers' hyperplane self-intersections included (802 pairs,
  360 of them meeting in a point);
* every candidate pair of stable intersections of random translated
  tropical hyperplanes in R^3 to R^5, whose output has dimension 1 to 3,
  so ``Lin P ∩ Lin Q`` is not zero (1311 pairs);
* hand-made pairs: a full-dimensional P against a point, two half-planes
  that share their lineality, and pairs that meet in a vertex of both.

Each lifted row is zero on the other side's direction basis and, on its
own side's, a positive multiple of the tight row it lifts.
"""

import pytest

from conftest import box_rows, displacement_cone_oracle
from tropdeg import fixtures, ops
from tropdeg.linalg import vdot
from tropdeg.multidegree import multidegree, type_vectors
from tropdeg.polyhedra import Polyhedron

GENERATOR_SEEDS = range(200)
HYPERPLANE_SEEDS = range(40)


def _record(run):
    """(p, q, x, rows) of every displacement cone built while ``run`` runs,
    in a fresh intern pool."""
    calls = []

    def record(p, q, x):
        rows = real(p, q, x)
        calls.append((p, q, x, rows))
        return rows

    real = ops._displacement_cone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        mp.setattr(ops, "_displacement_cone", record)
        run()
    return calls


def _multidegrees():
    # fresh standard divisors, with no power memoized on them by earlier tests
    ops._standard_linear_space.cache_clear()
    for seed in GENERATOR_SEEDS:
        cycle = fixtures.generate_admissible(seed)
        for n in type_vectors(cycle):
            multidegree(cycle, n, seed=seed)


def _hyperplane_intersections():
    for seed in HYPERPLANE_SEEDS:
        rng = ops.Rng(seed)
        m = 3 + seed % 3
        planes = [ops.tropical_hyperplane([rng.randint(-4, 4) for _ in range(m + 1)])
                  for _ in range(3)]
        line = ops.stable_intersect(planes[0], planes[1], seed)
        if m > 3:
            ops.stable_intersect(line, planes[2], seed)


@pytest.fixture(scope="module")
def candidates():
    return _record(_multidegrees) + _record(_hyperplane_intersections)


def _check(p, q, x, rows):
    m = p.m
    want = displacement_cone_oracle(p, q, x)
    assert Polyhedron.from_hrep(m, [(0,) + r for r in rows]) == want
    tight = [[a for a in s.ineqs if vdot(a, x) == 0] for s in (p, q)]
    assert len(rows) == len(tight[0]) + len(tight[1])
    lifts = (rows[:len(tight[0])], [tuple(-c for c in r) for r in rows[len(tight[0]):]])
    for (own, other), sources, lifted in zip(((p, q), (q, p)), tight, lifts):
        for a, r in zip(sources, lifted):
            assert all(vdot(r, b) == 0 for b in other.direction_basis())
            # r = c*a on Lin(own) for one c > 0
            got = [vdot(r, b) for b in own.direction_basis()]
            src = [vdot(a[1:], b) for b in own.direction_basis()]
            assert all(g * t == h * s for g, s in zip(got, src) for h, t in zip(got, src))
            assert vdot(got, src) > 0


def test_rows_cut_out_the_generated_cone(candidates):
    out_dims = set()
    for p, q, x, rows in candidates:
        _check(p, q, x, rows)
        out_dims.add(p.dim + q.dim - p.m)
    assert len(candidates) > 1000
    assert 0 in out_dims and {1, 2, 3} <= out_dims


SQUARE = Polyhedron.from_hrep(2, box_rows((0, 0), (2, 2)))


@pytest.mark.parametrize("p, q, want", [
    # a full-dimensional P against a point at a vertex, on an edge and
    # inside: the tangent cone of P there
    (SQUARE, Polyhedron.point((0, 0)), [(1, 0), (0, 1)]),
    (SQUARE, Polyhedron.point((2, 1)), [(-1, 0)]),
    (SQUARE, Polyhedron.point((1, 1)), []),
    # half-planes z = 0, y >= 0 and y = 0, z >= 0 sharing the lineality
    # e1: they meet in the line y = z = 0
    (Polyhedron.from_hrep(3, [(0, 0, 1, 0)], [(0, 0, 0, 1)]),
     Polyhedron.from_hrep(3, [(0, 0, 0, 1)], [(0, 0, 1, 0)]),
     [(0, 1, 0), (0, 0, -1)]),
    # the same with the second one tilted to y + z = 0, z >= 0: y >= 0
    # lifts to y + z, which is zero on Lin Q = span(e1, e2 - e3)
    (Polyhedron.from_hrep(3, [(0, 0, 1, 0)], [(0, 0, 0, 1)]),
     Polyhedron.from_hrep(3, [(0, 0, 0, 1)], [(0, 0, 1, 1)]),
     [(0, 1, 1), (0, 0, -1)]),
    # segments and half-lines that meet in a vertex of both, the only
    # point where their rows are tight
    (Polyhedron.from_generators(2, [(0, 0), (1, 2)]),
     Polyhedron.from_generators(2, [(0, 0), (3, 1)]), [(-2, 1), (-1, 3)]),
    (Polyhedron.from_generators(2, [(1, 1)], rays=[(1, 1)]),
     Polyhedron.from_generators(2, [(1, 1)], rays=[(1, -1)]),
     [(1, 1), (-1, 1)]),
])
def test_hand_made_pairs(p, q, want):
    inter = p.intersect(q)
    assert inter.dim == p.dim + q.dim - p.m
    x = inter.interior_row()
    rows = ops._displacement_cone(p, q, x)
    _check(p, q, x, rows)
    assert Polyhedron.from_hrep(p.m, [(0,) + r for r in rows]) == \
        Polyhedron.from_hrep(p.m, [(0,) + r for r in want])
