from fractions import Fraction

import pytest

from conftest import (QuotientLattice, coords_in_rows, frac_det, fraction_reduce_mod,
                      fraction_rref, int_inverse)
from tropdeg.errors import (ContractError, DimensionMismatchError, InvariantError,
                            ZeroVectorError)
from tropdeg.linalg import (
    INFINITE,
    in_span,
    int_kernel,
    int_row,
    lattice_index,
    primitive,
    rank,
    reduce_mod,
    rref,
    saturate,
    saturation_index,
    snf,
    snf_diagonal,
)
from tropdeg.ops import Rng


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def check_snf(mat):
    d, u, v = snf(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    s, m = len(mat), len(mat[0])
    diag = [d[i][i] for i in range(min(s, m))]
    for i in range(s):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert abs(frac_det(u)) == 1
    assert abs(frac_det(v)) == 1
    return diag


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    assert check_snf([[4, 6]]) == [2]


def test_snf_rejects_non_integral_entries():
    with pytest.raises(ContractError):
        snf([[Fraction(1, 2)]])
    assert snf([[Fraction(4, 2), 0], [0, Fraction(3)]]) == snf([[2, 0], [0, 3]])


def test_snf_diagonal_rejects_non_integral_entries():
    with pytest.raises(ContractError):
        snf_diagonal([[1, 0], [0, Fraction(3, 2)]])
    assert snf_diagonal([[Fraction(2), 0], [0, Fraction(6, 2)]]) == [1, 6]


def test_int_kernel_of_rational_rows():
    assert int_kernel([(Fraction(1, 2), 1)], 2) == ((2, -1),)
    assert int_kernel([(Fraction(1, 3), Fraction(1, 2), 0)], 3) == \
           int_kernel([(2, 3, 0)], 3)


def test_snf_randomized():
    rng = Rng(11)
    for _ in range(200):
        s = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = [[rng.randint(-12, 12) for _ in range(m)] for _ in range(s)]
        check_snf(mat)


def test_lattice_index_examples():
    assert lattice_index([(2, 0), (0, 3)], 2) == 6
    assert lattice_index([(1, 0), (0, 1)], 2) == 1
    assert lattice_index([(1, 1), (1, -1)], 2) == 2
    assert lattice_index([(1, 1)], 2) is INFINITE
    assert saturation_index([(2, 2), (0, 3)]) == 6
    assert saturation_index([(2, 4), (1, 2)]) == 1
    assert saturation_index([]) == lattice_index([], 0) == 1
    # integrality is checked before the rank is read: rank-deficient
    # non-integral generators raise too
    for gens in ([(Fraction(1, 2),)], [(1.5, 0), (0, 1)], [(Fraction(1, 2), 0)],
                 [(1.5, 0)], [(0, 0), (Fraction(1, 3), 0)]):
        with pytest.raises(ContractError, match="non-integral"):
            lattice_index(gens, len(gens[0]))
        with pytest.raises(ContractError, match="non-integral"):
            saturation_index(gens)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: snf([[3], [1, 2]]), id="snf-short-row-first"),
    pytest.param(lambda: snf([[1, 2], [3]]), id="snf-short-row-last"),
    pytest.param(lambda: snf([[1, 2], [3, 4, 5]]), id="snf-long-row"),
    pytest.param(lambda: snf_diagonal([[0], [0, 0]]), id="snf_diagonal-zero-rows"),
    pytest.param(lambda: int_kernel([(1, 2), (3,)], 2), id="int_kernel-ragged"),
    pytest.param(lambda: int_kernel([(1, 2, 3)], 2), id="int_kernel-long-rows"),
    pytest.param(lambda: int_kernel([(0, 0, 0)], 2), id="int_kernel-long-zero-row"),
    pytest.param(lambda: saturation_index([(1, 0), (1,)]), id="saturation_index-ragged"),
    pytest.param(lambda: lattice_index([(1, 0, 0), (0, 1, 0)], 2), id="lattice_index-in-Z3"),
    pytest.param(lambda: lattice_index([(1, 0), (0, 1)], 3), id="lattice_index-in-Z2"),
    pytest.param(lambda: lattice_index([(1, 0), (0, 1, 0)], 2), id="lattice_index-ragged"),
    pytest.param(lambda: rref([(1,), (1, 2)]), id="rref-long-row-in-span"),
    pytest.param(lambda: rref([(0, 1), (1, 2, 3)]), id="rref-long-row"),
    pytest.param(lambda: rref([(1, 2), (3,)]), id="rref-short-row"),
    pytest.param(lambda: rref([(1, 0), (0, 1), (1, 1, 1)]), id="rref-row-past-full-rank"),
    pytest.param(lambda: rank([(0, 0), (0, 0, 0)]), id="rank-zero-rows"),
    pytest.param(lambda: in_span([(1, 0), (Fraction(1, 2),)], (1, 0)), id="in_span-ragged"),
    pytest.param(lambda: in_span([(1, 0, 0)], (1, 0)), id="in_span-short-target"),
    pytest.param(lambda: in_span([(1, 0)], (1, 0, 0)), id="in_span-long-target"),
    pytest.param(lambda: in_span([(0, 0, 0)], (1, 0)), id="in_span-zero-basis-short-target"),
    pytest.param(lambda: in_span([(0, 0), (0, 0)], (1, 0, 0)), id="in_span-zero-basis-long-target"),
    pytest.param(lambda: reduce_mod([(1, 0, 0)], (1, 2)), id="reduce_mod-short-vector"),
])
def test_ragged_and_wrong_length_matrices_are_rejected(call):
    with pytest.raises(DimensionMismatchError):
        call()
    assert issubclass(DimensionMismatchError, ContractError)


def test_in_span_of_zero_rows():
    assert in_span([(0, 0, 0)], (0, 0, 0))
    assert not in_span([(0, 0, 0)], (0, 1, 0))
    assert not in_span([], (0, 1))


def test_lattice_index_matches_determinant():
    rng = Rng(5)
    for _ in range(100):
        m = rng.randint(1, 4)
        mat = [[rng.randint(-10, 10) for _ in range(m)] for _ in range(m)]
        det = frac_det(mat)
        idx = lattice_index(mat, m)
        if det == 0:
            assert idx is INFINITE
        else:
            assert idx == abs(det)


def test_saturate_examples():
    assert saturate([(2, 2)], 2) == ((1, 1),)
    assert set(saturate([(1, 0), (0, 1)], 2)) == {(1, 0), (0, 1)}
    assert saturate([(2, 4, 6)], 3) == ((1, 2, 3),)


def test_saturate_properties():
    rng = Rng(77)
    for _ in range(60):
        m = rng.randint(1, 5)
        k = rng.randint(1, m)
        gens = [tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        sat = saturate(gens, m)
        assert len(sat) == rank(gens)
        # every generator is a rational combination of the basis
        for g in gens:
            assert coords_in_rows(sat, g) is not None
        # saturated: all elementary divisors of the basis are 1
        if sat:
            d, _, _ = snf(list(sat))
            assert all(d[i][i] == 1 for i in range(len(sat)))


def test_primitive():
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    with pytest.raises(ZeroVectorError):
        primitive((0, 0))


def test_int_kernel_is_saturated():
    rows = [(1, 2, 3)]
    kern = int_kernel(rows, 3)
    assert len(kern) == 2
    for v in kern:
        assert sum(a * b for a, b in zip(rows[0], v)) == 0
    d, _, _ = snf(list(kern))
    assert all(d[i][i] == 1 for i in range(2))


def test_int_inverse():
    mat = [[1, 2], [0, 1]]
    assert int_inverse(mat) == [[1, -2], [0, 1]]


def test_quotient_lattice_roundtrip():
    q = QuotientLattice(((1, 1, 0),), 3)
    img = q.project((0, 1, 2))
    lifted = q.lift(img)
    assert q.project(lifted) == img


def test_rref_and_rank():
    red, piv = rref([(2, 4), (1, 2)])
    assert len(red) == 1 and piv == [0]
    assert rank([(1, 0), (0, 1), (1, 1)]) == 2


# ---------------------------------------------------------------------------
# the fraction-free kernel against the Fraction elimination it replaced
# ---------------------------------------------------------------------------

def _random_matrix(rng, ncols=None):
    """0-6 rows x 1-7 columns (or ``ncols``), with zero rows and dependent
    rows mixed in."""
    nrows = rng.randint(0, 6)
    if ncols is None:
        ncols = rng.randint(1, 7)
    rational = rng.randint(0, 1) == 1

    def entry():
        if rng.randint(0, 2) == 0:
            return 0
        x = rng.randint(-9, 9)
        return Fraction(x, rng.randint(1, 6)) if rational else x

    rows = []
    for _ in range(nrows):
        kind = rng.randint(0, 4)
        if kind == 0:
            row = [0] * ncols
        elif kind == 1 and rows:
            a = rows[rng.randint(0, len(rows) - 1)]
            b = rows[rng.randint(0, len(rows) - 1)]
            ca, cb = rng.randint(-3, 3), Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            row = [ca * x + cb * y for x, y in zip(a, b)]
            if not rational:
                row = [int(x * cb.denominator) for x in row]
        else:
            row = [entry() for _ in range(ncols)]
        rows.append(tuple(row))
    return rows, ncols


def _oracle_coords(basis_rows, target):
    """Coordinates with free coefficients zero, by Fraction elimination."""
    n = len(basis_rows)
    if n == 0:
        return () if all(t == 0 for t in target) else None
    aug = [[basis_rows[j][i] for j in range(n)] + [target[i]]
           for i in range(len(target))]
    red, piv = fraction_rref(aug)
    coords = [Fraction(0)] * n
    for row, p in zip(red, piv):
        if p == n:
            return None
        coords[p] = row[n]
    return tuple(coords)


def _unimodular(rng, n):
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if i != j:
            f = rng.randint(-3, 3)
            mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
    return mat


def _check_inverse(mat):
    det = frac_det(mat)
    if det == 0:
        with pytest.raises(InvariantError, match="singular"):
            int_inverse(mat)
    elif abs(det) != 1:
        with pytest.raises(InvariantError, match="not unimodular"):
            int_inverse(mat)
    else:
        inv = int_inverse(mat)
        n = len(mat)
        assert all(type(x) is int for row in inv for x in row)
        assert mat_mul(mat, inv) == [[int(i == j) for j in range(n)]
                                     for i in range(n)]


def test_kernel_matches_fraction_oracle():
    rng = Rng(31337)
    outcomes = set()
    for _ in range(300):
        rows, ncols = _random_matrix(rng)
        red, piv = rref(rows)
        o_red, o_piv = fraction_rref(rows)
        assert piv == o_piv
        assert red == [int_row(r) for r in o_red]
        assert rank(rows) == len(o_red)

        in_target = tuple(sum((rng.randint(-2, 2) * r[c] for r in rows), 0)
                          for c in range(ncols))
        free_target = tuple(rng.fraction(9, 4) for _ in range(ncols))
        for target in (in_target, free_target):
            expected = len(fraction_rref(rows + [target])[0]) == len(o_red)
            assert in_span(rows, target) == expected
            residual = reduce_mod(red, target)
            assert all(residual[p] == 0 for p in piv)
            assert (all(x == 0 for x in residual)) == expected
            coords = coords_in_rows(rows, target)
            assert coords == _oracle_coords(rows, target)
            assert (coords is not None) == expected
            if coords is not None:
                assert all(sum(c * r[i] for c, r in zip(coords, rows)) == t
                           for i, t in enumerate(target))
            outcomes.add(expected)

        k = min(len(rows), ncols)
        _check_inverse([list(int_row(r))[:k] for r in rows[:k]])
        n = rng.randint(1, 5)
        _check_inverse(_unimodular(rng, n))
        _check_inverse([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    assert outcomes == {True, False}


def test_rref_continues_from_reduced_rows():
    """Rows already in ``rref`` form pass through, and ``rref`` of reduced
    rows with more rows, on either side, is the elimination of all rows."""
    rng = Rng(1968)
    for _ in range(300):
        rows, ncols = _random_matrix(rng)
        red, piv = rref(rows)
        assert rref(red) == (red, piv)
        extra, _ = _random_matrix(rng, ncols)
        o_red, o_piv = fraction_rref(rows + extra)
        want = ([int_row(r) for r in o_red], o_piv)
        assert rref(red + extra) == want
        assert rref(extra + red) == want


def test_reduce_mod_is_primitive_multiple_of_fraction_residual():
    """The integer residual is the primitive row on the ray of the exact
    ``Fraction`` residual: a positive multiple, zero exactly in the span."""
    rng = Rng(2718)
    outcomes = set()
    for _ in range(300):
        rows, ncols = _random_matrix(rng)
        red, _ = rref(rows)
        in_target = tuple(sum((rng.randint(-3, 3) * r[c] for r in rows), 0)
                          for c in range(ncols))
        for target in (in_target, rng.vector(ncols, 9, 4),
                       tuple(rng.randint(-5, 5) for _ in range(ncols))):
            got = reduce_mod(red, target)
            want = fraction_reduce_mod(red, target)
            assert all(type(x) is int for x in got)
            inside = len(fraction_rref(rows + [target])[0]) == len(red)
            assert all(x == 0 for x in got) == inside
            if inside:
                assert all(x == 0 for x in want)
            else:
                assert got == primitive(want)
            outcomes.add(inside)
    assert outcomes == {True, False}
