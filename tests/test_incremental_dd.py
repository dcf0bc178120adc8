"""Differential tests: ``intersect`` and ``split`` cut an operand, that
is continue the double description from its stored generators; each
must build what ``two_pass_from_hrep``, two conversions from scratch,
builds from the joint rows.  ``from_hrep`` cuts the full space the same
way, so it is no independent oracle here.

Both are compared with ``same_polyhedron`` (key and V-rep), every build
on an empty intern pool, on:

* every pair that ``intersect`` met over the multidegrees of generator
  seeds 0-9 and 34 (every type vector) and the complex validation of
  those cycles, the run of ``tests/test_shortcuts.py``, and every pair
  and every row that ``intersect`` and ``split`` met over the Minkowski
  sums of ``splitting_sums`` (the multidegrees split no cell);
* hand-made cases: unbounded cells with lineality, a pair that
  ``quickly_disjoint`` lets through but whose joint rows are infeasible,
  joins that only add equalities, point results and a split through a
  vertex.

The start state that a polyhedron caches must not change under the
double descriptions that continue from it.
"""

import copy

import pytest

from conftest import (fresh, same_polyhedron, splitting_sums,
                      two_pass_from_hrep, uninterned)
from tropdeg import fixtures
from tropdeg.cycles import validate_complex
from tropdeg.linalg import vneg
from tropdeg.multidegree import multidegree, type_vectors
from tropdeg.ops import minkowski_sum_subspace
from tropdeg.polyhedra import Polyhedron, quickly_disjoint

SEEDS = (*range(10), 34)


def _check_intersect(a, b):
    got = uninterned(lambda: a.intersect(b))
    want = two_pass_from_hrep(a.m, a.ineqs + b.ineqs, a.eqs + b.eqs)
    assert same_polyhedron(got, want)
    return got


def _check_split(p, row):
    got = uninterned(lambda: p.split(row))
    want = [piece for piece in (two_pass_from_hrep(p.m, p.ineqs + (s,), p.eqs)
                                for s in (tuple(row), vneg(row)))
            if not piece.is_empty and piece.dim == p.dim]
    assert len(got) == len(want)
    assert all(same_polyhedron(g, w) for g, w in zip(got, want))
    return got


@pytest.fixture(scope="module")
def run():
    """The intersected pairs and the split rows met over the run."""
    pairs, splits = {}, {}

    def record_intersect(self, other):
        pairs.setdefault((self.key, other.key), (self, other))
        return real_intersect(self, other)

    def record_split(self, row):
        splits.setdefault((self.key, tuple(row)), (self, tuple(row)))
        return real_split(self, row)

    real_intersect = Polyhedron.intersect
    real_split = Polyhedron.split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        mp.setattr(Polyhedron, "intersect", record_intersect)
        mp.setattr(Polyhedron, "split", record_split)
        for seed in SEEDS:
            cycle = fixtures.generate_admissible(seed)
            for n in type_vectors(cycle):
                multidegree(cycle, n, seed=seed)
            validate_complex(fresh(cycle))
        for _, cycle, gens in splitting_sums():
            minkowski_sum_subspace(cycle, gens)
    return list(pairs.values()), list(splits.values())


def test_intersect_matches_joint_from_hrep(run):
    pairs, _ = run
    results = [_check_intersect(a, b) for a, b in pairs]
    # both outcomes occur, past the prefilter too
    assert any(r.is_empty for r in results)
    assert any(not r.is_empty for r in results)
    assert any(r.is_empty and not quickly_disjoint(a, b)
               for r, (a, b) in zip(results, pairs))


def test_split_matches_joint_from_hrep(run):
    _, splits = run
    assert splits
    cut = sum(len(_check_split(p, row)) == 2 for p, row in splits)
    assert cut


# --- hand-made cases ---------------------------------------------------------

def _box(lo, hi):
    """The box [lo_1, hi_1] x ... in R^m as rows ``x_i - lo_i >= 0``,
    ``hi_i - x_i >= 0``."""
    m = len(lo)
    unit = lambda i, s: tuple(s * int(j == i) for j in range(m))
    return [(-a,) + unit(i, 1) for i, a in enumerate(lo)] + \
        [(b,) + unit(i, -1) for i, b in enumerate(hi)]


def test_unbounded_cells_with_lineality():
    # the slab 0 <= x1 <= 2 in R^3, and a wedge with lineality along e1 - e2
    slab = Polyhedron.from_hrep(3, ineqs=[(0, 1, 0, 0), (2, -1, 0, 0)])
    wedge = Polyhedron.from_hrep(3, ineqs=[(1, 1, 1, 1), (4, 1, 1, -1)])
    assert slab.lineality and wedge.lineality
    inter = _check_intersect(slab, wedge)
    assert not inter.is_empty and inter.dim == 3 and inter.rays
    assert same_polyhedron(inter, _check_intersect(wedge, slab))
    # a cut the lineality lies in, and one across it
    pieces = _check_split(wedge, (0, 0, 0, 1))
    assert len(pieces) == 2 and all(p.lineality == wedge.lineality for p in pieces)
    pieces = _check_split(wedge, (0, 1, -1, 0))
    assert len(pieces) == 2 and not any(p.lineality for p in pieces)
    # a half-plane in the plane x3 = 1 against the slab: lineality meets a bound
    half = Polyhedron.from_hrep(3, ineqs=[(0, 0, 1, 0)], eqs=[(-1, 0, 0, 1)])
    assert _check_intersect(half, slab).dim == 2


def test_disjoint_pair_past_the_prefilter():
    """Two tetrahedra whose closest features are crossing edges, one
    above the other: no facet row of either separates them."""
    low = Polyhedron.from_generators(3, [(-1, 0, 0), (1, 0, 0), (0, -1, -1), (0, 1, -1)])
    high = Polyhedron.from_generators(3, [(0, -1, 1), (0, 1, 1), (-1, 0, 2), (1, 0, 2)])
    assert not quickly_disjoint(low, high)
    assert _check_intersect(low, high).is_empty
    assert _check_intersect(high, low).is_empty


def test_joins_that_only_add_equalities():
    cube = Polyhedron.from_hrep(3, _box((0, 0, 0), (2, 2, 2)))
    plane = Polyhedron.from_hrep(3, eqs=[(-2, 1, 1, 1)])
    line = Polyhedron.from_hrep(3, eqs=[(-1, 1, 0, 0), (-1, 0, 1, 0)])
    assert not plane.ineqs and not line.ineqs
    assert _check_intersect(cube, plane).dim == 2
    assert _check_intersect(cube, line).dim == 1
    assert _check_intersect(plane, line).dim == 0
    # an equality that misses the cube
    far = Polyhedron.from_hrep(3, eqs=[(-7, 1, 1, 1)])
    assert _check_intersect(cube, far).is_empty


def test_point_results():
    square = Polyhedron.from_hrep(2, _box((0, 0), (1, 1)))
    corner = Polyhedron.from_hrep(2, _box((1, 1), (3, 2)))
    point = _check_intersect(square, corner)
    assert point.dim == 0 and point.vertices == ((1, 1),)
    # two segments crossing at (3/5, 2/5)
    seg1 = Polyhedron.from_generators(2, [(0, 0), (3, 2)])
    seg2 = Polyhedron.from_generators(2, [(0, 1), (1, 0)])
    cross = _check_intersect(seg1, seg2)
    assert cross.dim == 0 and cross.vertex_rows == ((5, 3, 2),)


def test_split_through_a_vertex():
    triangle = Polyhedron.from_generators(2, [(0, 0), (4, 0), (0, 4)])
    # the line x1 = x2 through the vertex (0, 0) and across the far edge
    halves = _check_split(triangle, (0, 1, -1))
    assert len(halves) == 2 and all(h.dim == 2 for h in halves)
    # the diagonal of a square, through two vertices
    square = Polyhedron.from_hrep(2, _box((0, 0), (1, 1)))
    assert len(_check_split(square, (1, -1, -1))) == 2
    # lines that only touch a vertex or an edge do not cut
    assert _check_split(triangle, (0, -1, -1)) == [triangle]
    assert _check_split(triangle, (4, -1, -1)) == [triangle]


def test_start_state_is_not_mutated():
    cube = Polyhedron.from_hrep(3, _box((0, 0, 0), (2, 2, 2)))
    slab = Polyhedron.from_hrep(3, ineqs=[(-1, 1, 1, 0), (2, -1, -1, 0)])
    first = cube.intersect(slab)
    start = cube._cache["dd_start"]
    before = copy.deepcopy(start)
    assert cube.intersect(slab) == first and cube.intersect(slab) == first
    assert cube._cache["dd_start"] is start
    assert start == before
    cube.split((-1, 1, 0, 0))
    assert cube._cache["dd_start"] == before
