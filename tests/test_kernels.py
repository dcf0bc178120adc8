"""Contracts of the integer kernels that every constructor runs.

* ``vdot`` and ``eval_dir`` reject vectors of different lengths, so
  ``quickly_disjoint`` of polyhedra in different ambient spaces raises;
* ``is_zero_vec`` is ``all(a == 0 ...)`` on ints, Fractions and ``()``;
* ``linalg._divide_gcd`` is ``int_row`` on integer rows;
* ``polyhedra._canon_eqs`` returns ``rref`` output unchanged without
  running ``rref``, and agrees with ``rref`` on every other row set, over
  the rows of the faces of the facets of generator seeds 0-9.
"""

from fractions import Fraction

import pytest

from tropdeg import fixtures, linalg, polyhedra
from tropdeg.linalg import _divide_gcd, int_row, is_zero_vec, rref, vdot
from tropdeg.polyhedra import Polyhedron, eval_dir, quickly_disjoint

F = Fraction


@pytest.mark.parametrize("u, v", [((1, 2), (3,)), ((1,), (2, 3)), ((), (1,)),
                                  ((F(1, 2), 1, 0), (1, 1))])
def test_vdot_rejects_a_length_mismatch(u, v):
    with pytest.raises(ValueError):
        vdot(u, v)


def test_vdot_values():
    assert vdot((), ()) == 0
    assert vdot((1, -2, 3), (4, 5, 6)) == 12
    assert vdot((F(1, 2), 3), (4, F(1, 3))) == 3


@pytest.mark.parametrize("row, direction", [((0, 1, 2), (1,)), ((0, 1), (1, 2)),
                                            ((5,), (1,)), ((0, 1, 1), ())])
def test_eval_dir_rejects_a_length_mismatch(row, direction):
    with pytest.raises(ValueError):
        eval_dir(row, direction)


def test_eval_dir_skips_the_constant():
    assert eval_dir((7, 1, -2), (3, 1)) == 1
    assert eval_dir((7,), ()) == 0


def test_quickly_disjoint_across_ambient_dimensions_raises():
    square = Polyhedron.from_hrep(2, [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)])
    cube = Polyhedron.from_generators(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for a, b in ((square, cube), (cube, square),
                 (Polyhedron.point((1, 2)), cube), (square, Polyhedron.point((0, 0, 0)))):
        with pytest.raises(ValueError):
            quickly_disjoint(a, b)


@pytest.mark.parametrize("u", [(), (0,), (0, 0, 0), (1,), (0, -1), (0, 0, 3),
                               (F(0),), (F(0), F(0, 5)), (F(1, 3), 0), (0, F(-2, 7)),
                               (F(0), 0, 1)])
def test_is_zero_vec_is_all_zero(u):
    assert is_zero_vec(u) == all(a == 0 for a in u)


@pytest.mark.parametrize("row", [(), (0,), (0, 0, 0), (1,), (-1,), (6,), (-6,),
                                 (2, 4, 6), (-2, 4, -6), (0, -3, 9), (3, 5),
                                 (-4, 0, 0), (12, -18, 30, 0), (0, 0, -7)])
def test_divide_gcd_is_int_row_on_ints(row):
    assert _divide_gcd(row) == int_row(row)
    assert _divide_gcd(list(row)) == int_row(row)


def _row_sets(seeds=range(10)):
    """Row sets from the faces of the facets of generated cycles: the
    stored equalities and lineality, which are ``rref`` output, and
    inequalities, vertex rows and perturbed copies, which mostly are not."""
    for seed in seeds:
        for facet in fixtures.generate_admissible(seed).facets:
            for face in facet.poly.all_faces():
                eqs = face.eqs
                yield eqs
                yield face.lineality
                yield tuple((0,) + l for l in face.lineality)
                yield face.ineqs
                yield face.vertex_rows
                yield eqs + face.ineqs
                if eqs:
                    first, *rest = eqs
                    yield eqs[::-1]
                    yield (tuple(2 * x for x in first), *rest)
                    yield (tuple(-x for x in first), *rest)
                    yield eqs + ((0,) * len(first),)
                    yield (tuple(F(x) for x in first), *rest)
                    yield (list(first), *rest)
                    if rest:
                        yield (tuple(a + b for a, b in zip(first, rest[-1])), *rest)


def test_canon_eqs_matches_rref():
    echelon = other = 0
    for rows in _row_sets():
        full = tuple(rref(rows)[0])
        assert polyhedra._canon_eqs(rows) == full
        # rref output is int tuples, so rows of another type are changed
        unchanged = tuple(rows) == full and all(
            type(r) is tuple and all(type(e) is int for e in r) for r in rows)
        assert polyhedra._is_rref(tuple(rows)) == unchanged
        echelon += unchanged
        other += not unchanged
    assert echelon > 100 and other > 100


def test_canon_eqs_skips_rref_on_echelon_rows(monkeypatch):
    calls = []

    def counting_rref(rows):
        calls.append(rows)
        return real_rref(rows)

    real_rref = linalg.rref
    monkeypatch.setattr(polyhedra, "rref", counting_rref)
    rows = ((1, 0, 2, 0), (0, 1, -3, 0), (0, 0, 0, 1))
    assert polyhedra._canon_eqs(rows) == rows
    assert polyhedra._canon_eqs(()) == ()
    assert not calls
    assert polyhedra._canon_eqs(((1, 1, 2, 0), (0, 1, -3, 0))) == ((1, 0, 5, 0),
                                                                  (0, 1, -3, 0))
    assert len(calls) == 1
