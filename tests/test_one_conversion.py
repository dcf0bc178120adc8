"""The one-conversion constructors against the two-pass oracles.

``from_hrep`` and ``from_generators`` run one double description each
and read the other side off incidence sign tests; the oracles in
``conftest`` convert back a second time.  Both must give the same key,
vertex rows, rays and lineality on inputs full of redundancy.
"""

from fractions import Fraction

import pytest

from conftest import (same_polyhedron, two_pass_from_generators,
                      two_pass_from_hrep, uninterned)
from tropdeg.ops import Rng
from tropdeg.polyhedra import Polyhedron

F = Fraction

#: (m, vertices, rays, lineality) with redundant generators
GENERATOR_CASES = [
    # duplicate vertices
    (2, [(0, 0), (0, 0), (1, 0), (0, 1), (1, 0)], [], []),
    # interior vertices: the centroid and an edge midpoint of a triangle
    (2, [(0, 0), (3, 0), (0, 3), (1, 1), (F(3, 2), 0)], [], []),
    (3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (F(1, 2), F(1, 2), F(1, 2)),
         (1, 1, 0)], [], []),
    # positive combinations of rays
    (2, [(0, 0)], [(1, 0), (0, 1), (1, 1), (2, 3)], []),
    (3, [(1, 1, 1)], [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)], []),
    # r and -r: the lineality grows by a line
    (2, [(1, 2)], [(1, 0), (-1, 0), (0, 1)], []),
    (3, [(0, 0, 0), (1, 0, 0)], [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 1, 1)], []),
    # e1, e2, -e1-e2 positively span the plane
    (2, [(0, 0)], [(1, 0), (0, 1), (-1, -1)], []),
    (3, [(0, 0, 5)], [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], []),
    # rays inside the lineality, and vertices that differ by a lineality vector
    (2, [(0, 0), (3, 3)], [(2, 2), (-1, -1), (0, 1)], [(1, 1)]),
    (3, [(0, 0, 0), (0, 0, 1), (2, 0, 1)], [(1, 0, 0), (0, 1, 0)], [(1, 0, 0)]),
    # a point given several times, and the full space
    (2, [(F(1, 3), 2), (F(1, 3), 2)], [], []),
    (2, [(0, 0), (1, 1)], [(1, 0), (0, 1)], [(1, 0), (0, 1)]),
]

#: (m, ineqs, eqs) with redundant rows
HREP_CASES = [
    # duplicate rows, scaled copies and a row tight at one vertex only
    (2, [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, 0), (0, 2, 0),
         (0, 1, 1)], []),
    # a row tight nowhere, and the sum of two facet rows
    (2, [(0, 1, 0), (0, 0, 1), (5, 1, 1), (0, 1, 1)], []),
    # zero-linear rows with c0 < 0, = 0 and > 0
    (2, [(0, 1, 0), (-1, 0, 0)], []),
    (2, [(0, 1, 0), (0, 0, 0)], []),
    (2, [(0, 1, 0), (3, 0, 0)], []),
    (2, [(0, 1, 0)], [(0, 0, 0)]),
    (2, [(0, 1, 0)], [(2, 0, 0)]),
    # implicit equalities given as two inequalities
    (2, [(0, 1, -1), (0, -1, 1), (0, 1, 0), (1, -1, 0)], []),
    (3, [(-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0), (2, -1, -1, 0)], []),
    (2, [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], []),
    # rows tight on rays only bound the face at infinity
    (1, [(1, 1)], [(-1, 1)]),
    (2, [(1, 0, 1), (0, 1, 0)], [(-1, 0, 1)]),
    (3, [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (4, 0, 0, 1)], [(-1, 0, 0, 1)]),
    (2, [(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)], []),
    # an equality repeated and implied, and an empty system
    (3, [(0, 1, 0, 0), (0, 0, 1, 0)], [(0, 1, 1, 1), (0, 2, 2, 2), (0, 0, 0, 0)]),
    (2, [(0, 1, 0), (-1, -1, 0)], []),
]


def _compare(new, old):
    got = uninterned(new)
    want = uninterned(old)
    assert got is not want
    assert same_polyhedron(got, want), (got.key, want.key)
    return got


@pytest.mark.parametrize("m, verts, rays, lin", GENERATOR_CASES)
def test_from_generators_matches_two_pass(m, verts, rays, lin):
    p = _compare(lambda: Polyhedron.from_generators(m, verts, rays, lin),
                 lambda: two_pass_from_generators(m, verts, rays, lin))
    assert all(p.contains(v) for v in verts)


@pytest.mark.parametrize("m, ineqs, eqs", HREP_CASES)
def test_from_hrep_matches_two_pass(m, ineqs, eqs):
    _compare(lambda: Polyhedron.from_hrep(m, ineqs, eqs),
             lambda: two_pass_from_hrep(m, ineqs, eqs))


#: (m, awkward generators, the same point set's canonical generators), each
#: as (vertices, rays, lineality)
AWKWARD_GENERATORS = [
    # list-typed vectors
    (2, ([[0, 0], [1, 0]], [[0, 1]], []), ([(0, 0), (1, 0)], [(0, 1)], [])),
    (3, ([[0, 0, 0]], [[1, 0, 0]], [[0, 1, 1]]), ([(0, 0, 0)], [(1, 0, 0)], [(0, 1, 1)])),
    # Fraction and parallel rays
    (2, ([(0, 0)], [(F(1, 2), 0), (3, 0), (1, 0), (0, F(2, 3)), (0, 5)], []),
     ([(0, 0)], [(1, 0), (0, 1)], [])),
    (3, ([(1, 0, 0)], [(F(1, 3), F(2, 3), 0), (1, 2, 0), (2, 4, 0)], []),
     ([(1, 0, 0)], [(1, 2, 0)], [])),
    # duplicate vertices
    (2, ([(0, 0), (0, 0), (1, 1), (1, 1), (F(2, 2), 1)], [], []), ([(0, 0), (1, 1)], [], [])),
    # vertices that differ by a lineality vector, and parallel lineality vectors
    (2, ([(0, 0), (2, 2), (-1, -1)], [], [(1, 1), (F(1, 2), F(1, 2)), [-3, -3]]),
     ([(0, 0)], [], [(1, 1)])),
    (3, ([(0, 0, 0), (1, 0, 0), (0, 1, 1), (5, 1, 1)], [(1, 0, 0), (-1, 0, 0)], [(1, 0, 0)]),
     ([(0, 0, 0), (0, 1, 1)], [], [(1, 0, 0)])),
    # zero rays and zero lineality vectors
    (2, ([(0, 0)], [(0, 0), (1, 0), [0, 0]], [(0, 0)]), ([(0, 0)], [(1, 0)], [])),
    (2, ([(1, 2)], [(0, F(0))], [(0, 0), (0, 1)]), ([(1, 2)], [], [(0, 1)])),
]


@pytest.mark.parametrize("m, awkward, canonical", AWKWARD_GENERATORS)
def test_awkward_generators_give_the_canonical_build(m, awkward, canonical):
    p = _compare(lambda: Polyhedron.from_generators(m, *awkward),
                 lambda: Polyhedron.from_generators(m, *canonical))
    assert same_polyhedron(p, uninterned(lambda: two_pass_from_generators(m, *awkward)))
    assert same_polyhedron(p, uninterned(lambda: Polyhedron.from_hrep(m, p.ineqs, p.eqs)))


def test_generator_redundancy_is_dropped():
    cone = Polyhedron.from_generators(2, [(0, 0)], [(1, 0), (0, 1), (1, 1), (2, 3)])
    assert cone.rays == ((0, 1), (1, 0))
    line = Polyhedron.from_generators(2, [(1, 2)], [(1, 0), (-1, 0), (0, 1)])
    assert line.lineality == ((1, 0),) and line.rays == ((0, 1),)
    assert line.vertex_rows == ((1, 0, 2),)
    plane = Polyhedron.from_generators(2, [(0, 0)], [(1, 0), (0, 1), (-1, -1)])
    assert plane == Polyhedron.full_space(2)
    tri = Polyhedron.from_generators(2, [(0, 0), (3, 0), (0, 3), (1, 1), (F(3, 2), 0)])
    assert tri.vertex_rows == ((1, 0, 0), (1, 0, 3), (1, 3, 0))


def test_rows_tight_on_rays_only_are_not_facets():
    point = Polyhedron.from_hrep(1, [(1, 1)], [(-1, 1)])
    assert point.key == (1, ((1, -1),), ())
    assert point.vertex_rows == ((1, 1),)
    ray = Polyhedron.from_hrep(2, [(1, 0, 1), (0, 1, 0)], [(-1, 0, 1)])
    assert ray.key == (2, ((1, 0, -1),), ((0, 1, 0),))
    assert (ray.vertex_rows, ray.rays, ray.lineality) == (((1, 0, 1),), ((1, 0),), ())


def test_zero_linear_rows():
    half = Polyhedron.from_hrep(2, [(0, 1, 0)])
    assert Polyhedron.from_hrep(2, [(0, 1, 0), (-1, 0, 0)]).is_empty
    assert Polyhedron.from_hrep(2, [(0, 1, 0)], [(2, 0, 0)]).is_empty
    for extra in ((0, 0, 0), (3, 0, 0)):
        assert Polyhedron.from_hrep(2, [(0, 1, 0), extra]) is half
    assert Polyhedron.from_hrep(2, [(0, 1, 0)], [(0, 0, 0)]) is half


def _random_generators(rng, m):
    verts = [tuple(rng.randint(-3, 3) for _ in range(m))
             for _ in range(rng.randint(1, 5))]
    rays = [tuple(rng.randint(-2, 2) for _ in range(m))
            for _ in range(rng.randint(0, 4))]
    lin = [tuple(rng.randint(-1, 1) for _ in range(m))
           for _ in range(rng.randint(0, 1))]
    # feed in redundancy: a midpoint, a sum of rays, a ray and its negative
    verts.append(tuple(F(a + b, 2) for a, b in zip(verts[0], verts[-1])))
    if len(rays) >= 2:
        rays.append(tuple(a + b for a, b in zip(rays[0], rays[1])))
    if rays and rng.randint(0, 2) == 0:
        rays.append(tuple(-a for a in rays[0]))
    return verts, rays, lin


def test_random_generators_match_two_pass():
    rng = Rng(17)
    for _ in range(150):
        m = rng.randint(1, 3)
        verts, rays, lin = _random_generators(rng, m)
        _compare(lambda: Polyhedron.from_generators(m, verts, rays, lin),
                 lambda: two_pass_from_generators(m, verts, rays, lin))


def test_random_hreps_match_two_pass():
    rng = Rng(23)
    nonempty = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(m + 1))
                 for _ in range(rng.randint(1, 6))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(m + 1))
               for _ in range(rng.randint(0, 3) // 3)]
        # feed in redundancy: a repeated row and the sum of two rows
        ineqs.append(ineqs[0])
        ineqs.append(tuple(a + b for a, b in zip(ineqs[0], ineqs[-2])))
        p = _compare(lambda: Polyhedron.from_hrep(m, ineqs, eqs),
                     lambda: two_pass_from_hrep(m, ineqs, eqs))
        nonempty += not p.is_empty
    assert 20 < nonempty < 200
