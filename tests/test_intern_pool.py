"""The intern pool is consulted before generators are canonicalized.

``polyhedra._canonical`` keys a point set by its canonical rows alone, so
a rebuilt point set comes back as the pooled instance without running
``_canon_generators``, whichever constructor rebuilds it, and a new point
set runs it once; every instance the pool hands out must equal the
polyhedron a cold pool builds from its rows.
"""

from fractions import Fraction

import pytest

from conftest import same_polyhedron, uninterned
from tropdeg import fixtures, polyhedra
from tropdeg.multidegree import (multidegree, positivity_criterion, rank_function,
                                 type_vectors)
from tropdeg.polyhedra import Polyhedron

SQUARE = [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)]


@pytest.fixture
def canon_calls(monkeypatch):
    """The argument tuples of every ``_canon_generators`` call, on a pool
    that holds only the full spaces that ``from_hrep`` cuts."""
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = polyhedra._canon_generators
    monkeypatch.setattr(Polyhedron, "_interned", {})
    for m in (2, 3):
        Polyhedron.full_space(m)
    monkeypatch.setattr(polyhedra, "_canon_generators", counting)
    return calls


def test_rebuilt_point_set_is_the_pooled_instance(canon_calls):
    square = Polyhedron.from_hrep(2, SQUARE)
    assert len(canon_calls) == 1
    # redundant and rescaled rows, and a translation by zero
    assert Polyhedron.from_hrep(2, SQUARE[::-1] + [(0, 2, 0), (2, -1, -1)]) is square
    assert square.translate((0, 0)) is square
    assert len(canon_calls) == 1
    moved = square.translate((1, 0))
    assert len(canon_calls) == 2
    assert moved.translate((-1, 0)) is square
    assert len(canon_calls) == 2


def test_face_of_a_pooled_point_set_is_the_pooled_instance(canon_calls):
    bottom = Polyhedron.from_hrep(3, [r + (0,) for r in SQUARE], [(0, 0, 0, 1)])
    cube = Polyhedron.from_hrep(3, [r + (0,) for r in SQUARE] + [(0, 0, 0, 1), (1, 0, 0, -1)])
    assert len(canon_calls) == 2
    assert cube.face((0, 0, 0, 1)) is bottom
    assert len(canon_calls) == 2
    top = cube.face((1, 0, 0, -1))
    assert len(canon_calls) == 3
    assert same_polyhedron(top, bottom.translate((0, 0, 1)))


def test_generator_constructors_canonicalize_only_on_a_miss(canon_calls):
    square = Polyhedron.from_hrep(2, SQUARE)
    assert len(canon_calls) == 1
    # duplicate, interior and rational vertices, and list-typed ones
    half = Fraction(1, 2)
    assert Polyhedron.from_generators(
        2, [(1, 1), (0, 0), [1, 0], (0, 1), (half, half), (0, 0)]) is square
    assert square.plus_span([]) is square
    assert square.linear_image([(1, 0), (0, 1)]) is square
    assert square.linear_image([(0, 1), (1, 0)]) is square
    assert len(canon_calls) == 1
    # a miss in each constructor canonicalizes once
    strip = square.plus_span([(0, 1)])
    assert len(canon_calls) == 2
    wide = square.linear_image([(2, 0), (0, 1)])
    assert len(canon_calls) == 3
    segment = Polyhedron.from_generators(1, [(0,), (1,)])
    assert len(canon_calls) == 4
    # and a rebuild of what they made does not
    assert Polyhedron.from_hrep(2, [(0, 1, 0), (1, -1, 0)]) is strip
    assert Polyhedron.from_generators(2, [(0, 0), (1, 5)], lineality=[(0, -3)]) is strip
    assert wide.plus_span([(0, 1)]).linear_image([(Fraction(1, 2), 0), (0, 1)]) is strip
    assert square.linear_image([(1, 0)]) is segment
    assert Polyhedron.from_generators(2, [(0, 0), (2, 0), (0, 1), (2, 1)]) is wide
    assert len(canon_calls) == 5


def test_pool_entries_equal_their_cold_twins(monkeypatch):
    """After the ``md_sweep`` pipeline on generator seeds 0-9."""
    monkeypatch.setattr(Polyhedron, "_interned", {})
    for seed in range(10):
        cycle = fixtures.generate_admissible(seed)
        ranks = rank_function(cycle)
        for n in type_vectors(cycle):
            multidegree(cycle, n, seed=seed)
            positivity_criterion(cycle, n, ranks)
    pool = [p for p in Polyhedron._interned.values() if not p.is_empty]
    assert len(pool) > 100
    for entry in pool:
        cold = uninterned(lambda: Polyhedron.from_hrep(entry.m, entry.ineqs, entry.eqs))
        assert cold is not entry and same_polyhedron(entry, cold)
