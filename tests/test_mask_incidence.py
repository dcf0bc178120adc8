"""Differential tests: incidences read off the double description's masks.

``_split`` and ``_hrep`` classify rows by tight bitmasks: the masks that
``dual_description`` returns for a cut (``_cut_canonical``) and a hull
(``_from_generator_rows``, transposed for the generators), and masks
computed with ``_tight_mask`` for the read-offs ``face`` and
``recession_cone``.  Each builder must build what its ``sign_test_*``
oracle builds from the same conversion with every tight set recomputed by
integer sign tests: the same key and stored generators, each side built
with an empty intern pool.  Zero rows and generators take no mask bit, so
the cases include them.  Over every nonempty polyhedron p of the intern
pool that the run of ``tests/test_shortcuts.py`` leaves, and of three
hand-made polyhedra (``HAND_MADE``):

* ``from_hrep`` of p's rows with a zero inequality and a zero equality;
* ``from_generators`` of p's vertices and rays plus a zero ray, and its
  lineality plus a zero vector;
* ``plus_span`` with each coordinate vector and with a zero vector, which
  continues from ``_dual_start``;
* cuts by one of p's facet rows as an equality, and by the rows of ten
  pool polyhedra with equality rows, so the added rows' bits follow
  added equalities;
* every face and the recession cone.
"""

import pytest

from conftest import (same_polyhedron, sign_test_cut, sign_test_face, sign_test_hull,
                      sign_test_recession_cone)
from test_shortcuts import run  # noqa: F401  (the module fixture whose pool is read)
from tropdeg.polyhedra import Polyhedron


#: three-dimensional polyhedra with facets that meet in a vertex only,
#: which a face's facet rows must not take for its own: a square pyramid,
#: an octahedron and a pyramid over a square with a ray
HAND_MADE = [
    Polyhedron.from_generators(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]),
    Polyhedron.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                   (0, 0, 1), (0, 0, -1)]),
    Polyhedron.from_generators(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)], [(1, 1, 1)]),
]


@pytest.fixture(scope="module")
def pool(run):
    *_, pool = run
    return sorted((p for p in [*pool, *HAND_MADE] if not p.is_empty), key=lambda p: p.key)


def _same(build, oracle) -> bool:
    """Whether both builds, each with an empty intern pool, agree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        got = build()
        mp.setattr(Polyhedron, "_interned", {})
        want = oracle()
    return same_polyhedron(got, want) if not want.is_empty else got.is_empty


def test_from_hrep_with_zero_rows(pool):
    for p in pool:
        zero = (0,) * (p.m + 1)
        full = Polyhedron.full_space(p.m)
        assert _same(lambda: Polyhedron.from_hrep(p.m, p.ineqs + (zero,), p.eqs + (zero,)),
                     lambda: sign_test_cut(full, p.eqs + (zero,), p.ineqs + (zero,))), p


def test_from_generators_with_zero_vectors(pool):
    for p in pool:
        zero = (0,) * p.m
        rays, lin = p.rays + (zero,), p.lineality + (zero,)
        assert _same(lambda: Polyhedron.from_generators(p.m, p.vertices, rays, lin),
                     lambda: sign_test_hull(p.m, p.vertex_rows, rays, lin)), p


def test_plus_span_from_dual_start(pool):
    spans = 0
    for p in pool:
        units = [tuple(int(i == j) for i in range(p.m)) for j in range(p.m)]
        for vec in units + [(0,) * p.m]:
            assert _same(lambda: p.plus_span([vec]),
                         lambda: sign_test_hull(p.m, p.vertex_rows, p.rays, [vec],
                                                start=p)), (p, vec)
            spans += 1
    assert spans > 1000


def test_cuts_with_added_equalities(pool):
    cuts = nonempty = 0
    for p in pool:
        cases = [((row,), ()) for row in p.ineqs]
        cases += [(q.eqs, q.ineqs) for q in pool if q.eqs and q.m == p.m][:10]
        for eqs, ineqs in cases:
            assert _same(lambda: p._cut_canonical(eqs, ineqs),
                         lambda: sign_test_cut(p, eqs, ineqs)), (p, eqs, ineqs)
            cuts += 1
            nonempty += not p._cut_canonical(eqs, ineqs).is_empty
    assert cuts > 1000 and 0 < nonempty < cuts


def test_faces_and_recession_cones(pool):
    for p in pool:
        for row in p.ineqs:
            assert _same(lambda: p.face(row), lambda: sign_test_face(p, row)), (p, row)
        assert _same(p.recession_cone, lambda: sign_test_recession_cone(p)), p
