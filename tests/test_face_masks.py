"""Differential tests: the face condition read off tight masks.

``polyhedra.meets_off_faces(p, q)`` decides whether ``p & q`` is nonempty
and not a face of both from the masks of the double description that
cuts p by q's rows, without building ``p & q``.  It must answer as
``off_faces_oracle`` (the canonical ``intersect``, then the keys of both
face lattices), pair by pair and in both orders, on:

* every pair in one ambient space of the intern pool that the run of
  ``tests/test_shortcuts.py`` leaves;
* within each cycle of ``tests/test_pool_state.py`` (generator seeds
  0-39 and the splitting sums), every pair of its support facets, their
  facets and their recession cones;
* hand-made pairs: ``[0,2]^2`` against ``[0,1] x [0,2]``, which a test
  on dimensions or ranks gets wrong; pairs where one side has equality
  rows; a line against a half-line and a point on it.

Each pair is checked with ``quickly_disjoint`` on and switched off, so
that the masks also decide the disjoint pairs, and through
``offending_pairs``.

The masks themselves: every mask of ``dual_description``
is the tight set recomputed by integer sign tests over ``x0 >= 0``, the
start rows and the added rows, for cuts of pool polyhedra by the rows of
others (``Polyhedron._cut``) and for the same rows from scratch; the cuts
take both the lineality-pivot branch and the adjacency branch.
"""

from itertools import combinations

import pytest

from conftest import box_rows, off_faces_oracle, splitting_sums
from test_shortcuts import run  # noqa: F401  (the module fixture whose pool is read)
from tropdeg import fixtures, polyhedra
from tropdeg.linalg import vdot
from tropdeg.polyhedra import (Polyhedron, dual_description, meets_off_faces,
                               offending_pairs)

POOL_SEEDS = range(40)


def _mismatches(pairs):
    """(ordered pairs, both orders of each given pair, on which the mask
    test with and without the prefilter or ``offending_pairs`` disagrees
    with the oracle; the number of ordered pairs the oracle flags)."""
    wants = [(a, b, off_faces_oracle(a, b))
             for x, y in pairs for a, b in ((x, y), (y, x))]
    bad = [(a, b) for a, b, want in wants
           if meets_off_faces(a, b) != want
           or offending_pairs([a, b]) != ([(0, 1)] if want or a.key == b.key else [])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "quickly_disjoint", lambda p, q: False)
        bad += [(a, b) for a, b, want in wants if meets_off_faces(a, b) != want]
    return bad, sum(want for *_, want in wants)


def _pool_pairs(pool):
    """Unordered pairs of nonempty pool members in one ambient space."""
    return [(a, b) for a, b in combinations([p for p in pool if not p.is_empty], 2)
            if a.m == b.m]


def _cycle_cells(cycle):
    """Support facets, their facets and their recession cones, once each."""
    cells = {}
    for f in cycle.support_facets:
        for p in (f.poly, *f.poly.facet_faces(), f.poly.recession_cone()):
            cells.setdefault(p.key, p)
    return list(cells.values())


def test_pool_pairs_match_oracle(run):
    *_, pool = run
    pairs = _pool_pairs(pool)
    bad, flagged = _mismatches(pairs)
    assert not bad
    assert 0 < flagged < 2 * len(pairs)


def test_cycle_cells_match_oracle():
    cycles = [fixtures.generate_admissible(s) for s in POOL_SEEDS]
    cycles += list({name: cycle for name, cycle, _ in splitting_sums()}.values())
    checked = flagged = 0
    for cycle in cycles:
        pairs = list(combinations(_cycle_cells(cycle), 2))
        bad, n = _mismatches(pairs)
        assert not bad
        checked += 2 * len(pairs)
        flagged += n
    assert 0 < flagged < checked


SQUARE = Polyhedron.from_hrep(2, box_rows((0, 0), (2, 2)))
LINE = Polyhedron.from_hrep(2, eqs=[(0, 0, 1)])


@pytest.mark.parametrize("p, q, want", [
    # the intersection [0,1] x [0,2] has the dimension of both, is a
    # face of the smaller box and not of the square
    (SQUARE, Polyhedron.from_hrep(2, box_rows((0, 0), (1, 2))), True),
    # q with an equality row: an edge of the square, part of an edge,
    # and a chord through the interior
    (SQUARE, Polyhedron.from_hrep(2, [(0, 1, 0), (2, -1, 0)], [(0, 0, 1)]), False),
    (SQUARE, Polyhedron.from_hrep(2, [(0, 1, 0), (1, -1, 0)], [(0, 0, 1)]), True),
    (SQUARE, Polyhedron.from_hrep(2, [(0, 1, 0), (2, -1, 0)], [(-1, 0, 1)]), True),
    # a vertex, and a segment that leaves the square at a vertex
    (SQUARE, Polyhedron.point((2, 2)), False),
    (SQUARE, Polyhedron.from_generators(2, [(2, 2), (3, 3)]), False),
    # lineality in p that q does not share: a half-line and a point on a
    # line, and a half-plane against a quadrant in it
    (LINE, Polyhedron.from_hrep(2, [(0, 1, 0)], [(0, 0, 1)]), True),
    (LINE, Polyhedron.point((5, 0)), True),
    (Polyhedron.from_hrep(2, [(0, 0, 1)]), Polyhedron.from_hrep(2, [(0, 1, 0), (0, 0, 1)]),
     True),
    # both with lineality: a line on the boundary of a half-plane, and two
    # crossing lines
    (LINE, Polyhedron.from_hrep(2, [(0, 0, 1)]), False),
    (LINE, Polyhedron.from_hrep(2, eqs=[(0, 1, 0)]), True),
    # disjoint and equal
    (SQUARE, Polyhedron.from_hrep(2, box_rows((3, 0), (4, 1))), False),
    (SQUARE, SQUARE, False),
])
def test_hand_made_pairs(p, q, want):
    bad, flagged = _mismatches([(p, q)])
    assert not bad
    assert flagged == 2 * want


def _tight(rows, ray):
    return sum(1 << j for j, r in enumerate(rows) if vdot(r, ray) == 0)


def test_masks_are_tight_sets(run):
    *_, pool = run
    pivots = combined = 0
    for p, q in _pool_pairs(pool):
        for a, b in ((p, q), (q, p)):
            x0 = (1,) + (0,) * a.m
            rays, lin, masks = a._cut(b.eqs, b.ineqs)
            rows = (x0,) + a.ineqs + b.eqs + b.ineqs
            assert [_tight(rows, r) for r in rays] == masks
            start_gens, start_lin, _ = a._dd_start()
            pivots += any(vdot(r, l) for r in b.eqs + b.ineqs for l in start_lin)
            combined += not start_lin and not {r for r, _ in start_gens} >= set(rays)
            # the same rows from scratch, the equalities of a after x0
            rays, lin, masks = dual_description(
                a.m + 1, [(x0, False)] + [(r, True) for r in a.eqs]
                + [(r, False) for r in a.ineqs] + [(r, True) for r in b.eqs]
                + [(r, False) for r in b.ineqs])
            rows = (x0,) + a.eqs + a.ineqs + b.eqs + b.ineqs
            assert [_tight(rows, r) for r in rays] == masks
    assert pivots and combined
