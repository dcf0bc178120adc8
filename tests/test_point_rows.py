"""Differential tests: points as integer rows against the Fraction routes.

The pool is every face of every support facet, and of its recession cone,
of the nine shipped fixtures and of generator seeds 0-59.  On it:

* every lattice normal of ``codim1_faces`` agrees with
  ``quotient_normal_oracle`` modulo L_Q, lies in L_P, is primitive and
  is on P's side of the facet row;
* ``contains`` and ``relint_contains`` agree with ``contains_oracle`` on
  seeded points, on the vertices and on the interior points of faces;
* ``relative_interior_point`` lies in the relative interior.
"""

import math

import pytest

from conftest import (FIXTURE_DIR, contains_oracle, quotient_normal_oracle,
                      seeded_points)
from tropdeg import cycfile, fixtures
from tropdeg.cycles import codim1_faces
from tropdeg.linalg import in_span, vdot, vsub

SEEDS = range(60)


@pytest.fixture(scope="module")
def cycles():
    return ([cycfile.load(p) for p in sorted(FIXTURE_DIR.glob("*.cyc"))]
            + [fixtures.generate_admissible(s) for s in SEEDS])


@pytest.fixture(scope="module")
def pool(cycles):
    seen: dict = {}
    for cycle in cycles:
        for f in cycle.support_facets:
            for p in (f.poly, f.poly.recession_cone()):
                for face in p.all_faces():
                    seen.setdefault(face.key, face)
    return [seen[k] for k in sorted(seen)]


def test_normals_match_quotient_oracle(cycles):
    checked = 0
    for cycle in cycles:
        support = cycle.support_facets
        for record in codim1_faces(cycle):
            q = record.face
            for idx, normal in record.incident:
                p = support[idx].poly
                row = p.ineqs[p.facet_faces().index(q)]
                oracle = quotient_normal_oracle(p, q)
                assert in_span(q.direction_basis(), vsub(normal, oracle))
                assert in_span(p.direction_basis(), normal)
                assert all(type(x) is int for x in normal)
                assert math.gcd(*normal) == 1
                assert vdot(row[1:], normal) > 0
                checked += 1
    assert checked > 200


def test_containment_matches_oracle(pool):
    boundary = 0
    for k, p in enumerate(pool):
        probes = seeded_points(k, 10, p.m, num_bound=6, den_bound=3)
        probes += list(p.vertices)
        probes += [f.relative_interior_point() for f in p.all_faces()]
        for pt in probes:
            assert p.contains(pt) == contains_oracle(p, pt), (p, pt)
            relint = contains_oracle(p, pt, relint=True)
            assert p.relint_contains(pt) == relint, (p, pt)
            boundary += p.contains(pt) and not relint
    assert boundary


def test_relative_interior_point(pool):
    assert sum(1 for p in pool if p.rays) > 100
    for p in pool:
        pt = p.relative_interior_point()
        assert p.relint_contains(pt)
        assert contains_oracle(p, pt, relint=True)
