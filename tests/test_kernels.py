"""Contracts of the integer kernels that every constructor runs.

* ``vdot`` rejects vectors of different lengths, so ``quickly_disjoint``
  of polyhedra in different ambient spaces raises;
* ``is_zero_vec`` is ``all(a == 0 ...)`` on ints, Fractions and ``()``;
* ``linalg._divide_gcd`` is ``int_row`` on integer rows;
* ``polyhedra._canon_eqs`` is ``rref``, and returns ``rref`` output
  unchanged, over the rows of the faces of the facets of generator seeds
  0-9 and their rescaled, negated, padded and retyped variants;
* the Smith elimination gives the same diagonal and kernel whichever
  transforms it tracks, and the direction and saturated bases it yields
  are pinned by a digest;
* the balancing test by equality rows agrees with ``in_span`` of the face
  direction basis, on balanced cycles and on unbalanced copies.
"""

import hashlib
from fractions import Fraction

import pytest

from conftest import FIXTURE_DIR, coordinate_subspaces
from tropdeg import fixtures, linalg, polyhedra
from tropdeg.cycfile import load
from tropdeg.cycles import TropicalCycle, WeightedFacet, check_balancing, codim1_faces
from tropdeg.linalg import (_divide_gcd, in_span, int_kernel, int_row, is_zero_vec, rref,
                            saturate, sign_normalized, snf, snf_diagonal, vdot)
from tropdeg.ops import Rng
from tropdeg.polyhedra import Polyhedron, quickly_disjoint

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
        echelon += unchanged
        other += not unchanged
    assert echelon > 100 and other > 100


def test_canon_eqs_skips_rref_on_echelon_rows():
    """``rref`` output comes back unchanged; other rows are reduced."""
    rows = ((1, 0, 2, 0), (0, 1, -3, 0), (0, 0, 0, 1))
    assert polyhedra._canon_eqs(rows) == rows
    assert polyhedra._canon_eqs(()) == ()
    assert polyhedra._canon_eqs(((1, 1, 2, 0), (0, 1, -3, 0))) == ((1, 0, 5, 0),
                                                                  (0, 1, -3, 0))


# ---------------------------------------------------------------------------
# one Smith elimination, whichever transforms it tracks
# ---------------------------------------------------------------------------

def _random_int_matrices(count=400, seed=4242):
    """Integer matrices of 0-6 rows and 1-6 columns, with zero rows and
    rows that are integer combinations of earlier ones mixed in."""
    rng = Rng(seed)
    for _ in range(count):
        s, m = rng.randint(0, 6), rng.randint(1, 6)
        rows = []
        for _ in range(s):
            kind = rng.randint(0, 4)
            if kind == 0:
                rows.append([0] * m)
            elif kind == 1 and rows:
                a = rows[rng.randint(0, len(rows) - 1)]
                b = rows[rng.randint(0, len(rows) - 1)]
                ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([ca * x + cb * y for x, y in zip(a, b)])
            else:
                rows.append([rng.randint(-9, 9) for _ in range(m)])
        yield rows, m


def test_snf_diagonal_is_the_diagonal_of_snf():
    shapes = set()
    for rows, m in _random_int_matrices():
        d, _, _ = snf(rows)
        assert snf_diagonal(rows) == [d[i][i] for i in range(min(len(rows), m))]
        shapes.add((len(rows) == 0, any(not any(r) for r in rows)))
    assert snf([]) == ([], [], []) and snf_diagonal([]) == []
    assert shapes == {(True, False), (False, True), (False, False)}


def test_int_kernel_is_the_kernel_read_off_snf():
    deficient = 0
    for rows, m in _random_int_matrices():
        if not rows:
            assert int_kernel(rows, m) == tuple(tuple(r) for r in linalg.identity_rows(m))
            continue
        d, _, v = snf(rows)
        r = sum(1 for i in range(min(len(rows), m)) if d[i][i] != 0)
        expected = tuple(sign_normalized(tuple(v[i][j] for i in range(m)))
                         for j in range(r, m))
        assert int_kernel(rows, m) == expected
        deficient += r < min(len(rows), m)
    assert deficient > 50


#: sha256 over the direction bases of every face of the facets of generator
#: seeds 0-59 and over the saturated bases of every coordinate subspace of
#: seeds 0-29, alone and summed with each facet's direction space; recorded
#: before the Smith elimination stopped building unread transforms
BASIS_DIGEST = "047208053a4c2be048bfdccd4ab3b526d9e3439647df75838e402f37ec951fe3"


def test_direction_and_saturated_bases_are_pinned():
    h = hashlib.sha256()
    for seed in range(60):
        for facet in fixtures.generate_admissible(seed).facets:
            for face in facet.poly.all_faces():
                h.update(repr((seed, face.key, face.direction_basis())).encode())
    for seed in range(30):
        cycle = fixtures.generate_admissible(seed)
        m = cycle.m
        for coords, units in coordinate_subspaces(m):
            h.update(repr((seed, coords, saturate(units, m))).encode())
            for f in cycle.facets:
                dirs = f.poly.direction_basis() + tuple(units)
                h.update(repr((seed, coords, saturate(dirs, m))).encode())
    assert h.hexdigest() == BASIS_DIGEST


# ---------------------------------------------------------------------------
# balancing by equality rows against in_span of the face direction basis
# ---------------------------------------------------------------------------

def _in_span_violations(cycle):
    """Keys of the codimension-1 faces whose weighted normal sum is not in
    the span of the face's direction basis."""
    support = cycle.support_facets
    out = []
    for record in codim1_faces(cycle):
        total = (0,) * cycle.m
        for idx, v in record.incident:
            total = tuple(a + support[idx].weight * b for a, b in zip(total, v))
        if not in_span(record.face.direction_basis(), total):
            out.append(record.face.key)
    return out


def _balance_cases():
    """Generated cycles of seeds 0-59 and the shipped fixtures, each with
    one copy per support facet that has a facet of its own (at most two),
    that facet's weight raised by one."""
    cycles = [fixtures.generate_admissible(seed) for seed in range(60)]
    cycles += [load(path) for path in sorted(FIXTURE_DIR.glob("*.cyc"))]
    for cycle in cycles:
        yield cycle, True
        support = cycle.support_facets
        bounded = [i for i, f in enumerate(support) if f.poly.ineqs]
        for i in sorted(set(bounded[:1] + bounded[-1:])):
            facets = [WeightedFacet(f.poly, f.weight + (j == i))
                      for j, f in enumerate(support)]
            yield TropicalCycle(cycle.ambient, facets), False


def test_equality_row_balancing_matches_in_span():
    faces = unbalanced = 0
    for cycle, balanced in _balance_cases():
        report = check_balancing(cycle)
        assert report.balanced == balanced
        assert [r.face.key for r in report.violations] == _in_span_violations(cycle)
        faces += len(codim1_faces(cycle))
        unbalanced += not balanced
    assert faces > 200 and unbalanced > 60
