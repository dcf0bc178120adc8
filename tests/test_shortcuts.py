"""Differential tests: each generator-side shortcut against its slow path.

On the multidegrees of generator seeds 0-9 and 34 (every type vector)
and the complex validation of those cycles:

* ``quickly_disjoint`` answers True only for pairs whose joint H-rep
  (``from_hrep``, bypassing the prefilter inside ``intersect``)
  is empty, and answers as ``two_scan_disjoint``, its two-scan rule for
  equality rows, on every pair;
* the cone step of ``stable_intersect`` agrees with ``displaced_oracle``:
  for every candidate pair (P, Q) and every pass, with v the pass's
  direction as an explicit vector (``concrete_direction``), the flag
  ``u(eps) in T_x(P) - T_x(Q)`` is whether P meets Q + eps*v, and a
  counted pair meets in a joint polyhedron of dimension ``out_dim + 1``;
* ``Polyhedron.face`` agrees with ``face_oracle`` and with the two-pass
  ``from_hrep`` in key and V-rep for every inequality of every polyhedron
  the run left in the intern pool;
* ``from_hrep`` and ``from_generators`` agree with their two-pass oracles
  on every polyhedron in that pool, given canonically and with
  redundant rows and generators added;
* every polyhedron in that pool stores canonical vertex rows.
"""

import math
from fractions import Fraction

import pytest

from conftest import (concrete_direction, displaced_oracle,
                      displacement_cone_oracle, face_oracle, fresh,
                      same_polyhedron, two_pass_from_generators, two_pass_from_hrep,
                      two_scan_disjoint, uninterned)
from tropdeg import fixtures, ops, polyhedra
from tropdeg.cycles import validate_complex
from tropdeg.linalg import rref
from tropdeg.multidegree import multidegree, type_vectors
from tropdeg.polyhedra import Polyhedron

SEEDS = (*range(10), 34)


@pytest.fixture(scope="module")
def run():
    """Calls to the shortcuts recorded over the seeds, and the pool they
    left, with the hull of every candidate's displacement cone."""
    disjoint_calls = []
    built_cones = []           # (P, Q, cone) in the order the cones are built
    cone_calls = []            # (P, Q, v, flag) of every pass of the cone step

    def record_disjoint(a, b):
        answer = real_disjoint(a, b)
        disjoint_calls.append((a, b, answer))
        return answer

    def record_cone(p, q, x):
        cone = real_cone(p, q, x)
        built_cones.append((p, q, cone))
        # the cone's hull is not built by the cone step; built here, it
        # keeps the displacement cones in the pool that the tests read
        displacement_cone_oracle(p, q, x)
        return cone

    def record_flags(cones, order, signs):
        flags = real_flags(cones, order, signs)
        # the cones of one intersection are built just before its passes
        pairs = built_cones[len(built_cones) - len(cones):]
        assert all(c is cone for (*_, c), cone in zip(pairs, cones, strict=True))
        v = concrete_direction(cones, order, signs)
        cone_calls.extend((p, q, v, flag)
                          for (p, q, _), flag in zip(pairs, flags, strict=True))
        return flags

    real_disjoint = polyhedra.quickly_disjoint
    real_cone = ops._displacement_cone
    real_flags = ops._displacement_flags
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        mp.setattr(polyhedra, "quickly_disjoint", record_disjoint)
        mp.setattr(ops, "_displacement_cone", record_cone)
        mp.setattr(ops, "_displacement_flags", record_flags)
        for seed in SEEDS:
            cycle = fixtures.generate_admissible(seed)
            for n in type_vectors(cycle):
                multidegree(cycle, n, seed=seed)
            validate_complex(fresh(cycle))
        pool = list(Polyhedron._interned.values())
    return disjoint_calls, cone_calls, pool


def test_quickly_disjoint_is_sound(run):
    calls, _, _ = run
    separated = [(a, b) for a, b, answer in calls if answer]
    assert separated and len(separated) < len(calls)
    for a, b in separated:
        assert Polyhedron.from_hrep(a.m, a.ineqs + b.ineqs,
                                    a.eqs + b.eqs).is_empty


def test_quickly_disjoint_matches_two_scan_rule(run):
    calls, _, _ = run
    # some pairs reach the equality rows: neither operand is full-dimensional
    assert any(a.eqs and b.eqs for a, b, _ in calls)
    for a, b, answer in calls:
        assert answer == two_scan_disjoint(a, b)


def test_displaced_matches_oracle(run):
    _, calls, _ = run
    assert any(flag for *_, flag in calls)
    assert not all(flag for *_, flag in calls)
    for p, q, v, flag in calls:
        meets, joint_dim = displaced_oracle(p, q, v)
        assert flag == meets
        if flag:
            assert joint_dim == p.dim + q.dim - p.m + 1


def test_face_matches_oracle(run):
    _, _, pool = run
    rows = 0
    for p in pool:
        for row in p.ineqs:
            got = uninterned(lambda: p.face(row))
            want = uninterned(lambda: face_oracle(p, row))
            assert got is not want
            assert got.key == want.key
            assert (got.vertices, got.rays, got.lineality) == \
                (want.vertices, want.rays, want.lineality)
            two_pass = uninterned(
                lambda: two_pass_from_hrep(p.m, p.ineqs, p.eqs + (row,)))
            assert same_polyhedron(got, two_pass)
            rows += 1
    assert rows


def test_constructors_match_two_pass_oracles(run):
    _, _, pool = run
    built = 0
    for p in pool:
        if p.is_empty:
            continue
        # redundant input: each row twice and the sum of two rows; the
        # interior point and the sum of the rays as extra generators
        pairs = list(zip(p.ineqs, p.ineqs[1:] + p.ineqs[:1]))
        ineqs = p.ineqs * 2 + tuple(tuple(a + b for a, b in zip(r, s))
                                    for r, s in pairs)
        verts = p.vertices + (p.relative_interior_point(),)
        rays = p.rays + ((tuple(map(sum, zip(*p.rays))),) if p.rays else ())
        for args in ((p.ineqs, p.eqs), (ineqs, p.eqs)):
            got = uninterned(lambda: Polyhedron.from_hrep(p.m, *args))
            assert same_polyhedron(got, p)
            assert same_polyhedron(got, uninterned(
                lambda: two_pass_from_hrep(p.m, *args)))
        for args in ((p.vertices, p.rays, p.lineality), (verts, rays, p.lineality)):
            got = uninterned(lambda: Polyhedron.from_generators(p.m, *args))
            assert same_polyhedron(got, p)
            assert same_polyhedron(got, uninterned(
                lambda: two_pass_from_generators(p.m, *args)))
        built += 1
    assert built


def test_pool_stores_canonical_vertex_rows(run):
    _, _, pool = run
    nonempty = 0
    for p in pool:
        pivots = [next(i for i, x in enumerate(l) if x) for l in p.lineality]
        assert rref(p.lineality)[0] == list(p.lineality)
        for row in p.vertex_rows:
            assert row[0] > 0 and math.gcd(*row) == 1
            assert all(row[1 + c] == 0 for c in pivots)
        assert list(p.vertex_rows) == sorted(set(p.vertex_rows))
        assert p.vertices == tuple(sorted(
            tuple(Fraction(x, row[0]) for x in row[1:]) for row in p.vertex_rows))
        rebuilt = uninterned(lambda: Polyhedron.from_generators(
            p.m, p.vertices, p.rays, p.lineality))
        assert rebuilt is not p
        assert (rebuilt.key, rebuilt.vertex_rows) == (p.key, p.vertex_rows)
        nonempty += not p.is_empty
    assert nonempty
