"""Exact integer and rational linear algebra over the ambient lattice Z^m.

Vectors are tuples (ints for lattice data, Fractions for affine data),
matrices are lists/tuples of row tuples, and every computation is exact.
Row convention throughout: a lattice or subspace is generated by the rows
of its basis matrix, and x @ M means sum_i x[i] * M[i].

``rref`` is the one elimination kernel.  It is fraction-free: it clears
each row's denominators once and works in the integers, returning every
row as a primitive integer row with a positive pivot.  Ranks and spans
read off its rows; ``reduce_mod`` eliminates a vector against them the
same way and returns the residual as a primitive integer row, a positive
multiple of the exact one.  Lattice indices are products of Smith
invariant factors: ``saturation_index`` is the index of a lattice in its
saturation, ``lattice_index`` the index in Z^m.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ContractError, ZeroVectorError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

#: Sentinel returned by lattice_index when the generators are not full rank.
INFINITE = math.inf


def frac_vec(entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def vdot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def int_row(entries) -> IntVec:
    """Primitive integer multiple of a rational vector, keeping orientation.

    Denominators are cleared, then the entries are divided by their gcd;
    a zero vector comes back as integer zeros.
    """
    if not all(type(e) is int for e in entries):
        fv = [Fraction(e) for e in entries]
        den = math.lcm(*(e.denominator for e in fv))
        entries = [e.numerator * (den // e.denominator) for e in fv]
    g = math.gcd(*entries)
    return tuple(entries) if g <= 1 else tuple(x // g for x in entries)


def integral_row(entries, error, what: str) -> IntVec:
    """The entries as ints; raises ``error`` when one is not an integral
    number, where ``int`` would truncate it."""
    entries = tuple(entries)
    if all(type(e) is int for e in entries):
        return entries
    try:
        fv = [Fraction(e) for e in entries]
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} {entries!r} is not numeric") from None
    if any(e.denominator != 1 for e in fv):
        raise error(f"{what} {entries!r} has a non-integral entry")
    return tuple(e.numerator for e in fv)


def primitive(v) -> IntVec:
    """The unique integer vector with coprime entries on the ray R>=0 * v."""
    if is_zero_vec(v):
        raise ZeroVectorError("primitive() of the zero vector")
    return int_row(v)


def sign_normalized(vec: IntVec) -> IntVec:
    """The vector or its negative, whichever has a positive first nonzero entry."""
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-e for e in vec)
    return vec


def identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def rref(rows) -> tuple[list[IntVec], list[int]]:
    """Reduced row echelon form over Q, computed fraction-free.

    Each row is cleared of denominators once; a pivot column is then
    eliminated from every other row by ``pv*row - f*pivot_row`` and the
    result divided by its gcd, so all arithmetic stays in the integers.
    Returns (rows, pivot columns): each row is the primitive integer
    multiple of the corresponding RREF row with a positive pivot entry.
    """
    mat = [int_row(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        prow = sign_normalized(mat[pr])   # its first nonzero entry is at c
        mat[pr] = mat[r]
        mat[r] = prow
        pv = prow[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = int_row([pv * a - f * b for a, b in zip(mat[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reduce_mod(echelon_rows, vec) -> IntVec:
    """Residual of ``vec`` modulo the span of ``rref`` output rows, as the
    primitive integer row that is a positive multiple of the exact one.

    The exact residual is the unique vector in vec + span whose entries at
    the pivot columns are zero; it is zero exactly when vec lies in the
    span, and then so is the returned row.  ``vec`` is cleared of
    denominators once and each pivot is eliminated by ``pv*out -
    out[p]*row`` with ``pv > 0``, so the orientation is kept.
    """
    out = int_row(vec)
    for row in echelon_rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        f = out[p]
        if f != 0:
            pv = row[p]
            out = int_row([pv * a - f * b for a, b in zip(out, row)])
    return out


def rank(rows) -> int:
    return len(rref(rows)[0])


def in_span(basis_rows, target) -> bool:
    return is_zero_vec(reduce_mod(rref(basis_rows)[0], target))


# ---------------------------------------------------------------------------
# Smith normal form and lattice computations
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b == g == gcd(a, b) >= 0.

    When one argument divides the other, the other coefficient is 0, so
    elimination transforms built from these never touch a clean column.
    """
    if a != 0 and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    if b != 0 and a % b == 0:
        return (b, 0, 1) if b > 0 else (-b, 0, -1)
    sa, sb = (1, -1)[a < 0], (1, -1)[b < 0]
    old_r, r = abs(a), abs(b)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s * sa, old_t * sb


def snf(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms.

    Returns (D, U, V) with U @ mat @ V == D, D diagonal with non-negative
    entries satisfying d1 | d2 | ..., and U, V unimodular.  Eliminations
    use 2x2 extended-gcd transforms, which keeps entries small.
    """
    s = len(mat)
    m = len(mat[0]) if s else 0
    A = [list(integral_row(row, ContractError, "matrix row")) for row in mat]
    U = identity_rows(s)
    V = identity_rows(m)

    def rows_transform(i, j, a, b, c, d):
        # (row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j)
        A[i], A[j] = [a * x + b * y for x, y in zip(A[i], A[j])], \
                     [c * x + d * y for x, y in zip(A[i], A[j])]
        U[i], U[j] = [a * x + b * y for x, y in zip(U[i], U[j])], \
                     [c * x + d * y for x, y in zip(U[i], U[j])]

    def cols_transform(i, j, a, b, c, d):
        # (col_i, col_j) <- (a*col_i + b*col_j, c*col_i + d*col_j)
        for M, n in ((A, s), (V, m)):
            for r in range(n):
                x, y = M[r][i], M[r][j]
                M[r][i], M[r][j] = a * x + b * y, c * x + d * y

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(s):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(s, m):
        best = None
        for i in range(t, s):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None
                                     or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            for i in range(t + 1, s):
                if A[i][t] != 0:
                    a, b = A[t][t], A[i][t]
                    g, x, y = _xgcd(a, b)
                    rows_transform(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    a, b = A[t][t], A[t][j]
                    g, x, y = _xgcd(a, b)
                    cols_transform(t, j, x, y, -(b // g), a // g)
            if all(A[i][t] == 0 for i in range(t + 1, s)):
                # pivot must divide the remaining submatrix
                offender = None
                for i in range(t + 1, s):
                    for j in range(t + 1, m):
                        if A[i][j] % A[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                # absorb the offending row; the pivot shrinks to a divisor
                A[t] = [x + y for x, y in zip(A[t], A[offender])]
                U[t] = [x + y for x, y in zip(U[t], U[offender])]
        if A[t][t] < 0:
            row_neg(t)
        t += 1

    for i in range(min(s, m)):
        if A[i][i] < 0:
            row_neg(i)
    return A, U, V


def snf_diagonal(mat) -> list[int]:
    D, _, _ = snf(mat)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def int_kernel(rows, m: int) -> tuple[IntVec, ...]:
    """Basis of {x in Z^m : rows @ x == 0}; the result is a saturated lattice.

    A row with an entry that is not an ``int`` is replaced by its
    ``int_row``, which has the same kernel.
    """
    if not rows:
        return tuple(tuple(r) for r in identity_rows(m))
    D, _, V = snf([r if all(type(e) is int for e in r) else int_row(r) for r in rows])
    diag = [D[i][i] for i in range(min(len(D), m))]
    r = sum(1 for d in diag if d != 0)
    basis = (tuple(V[i][j] for i in range(m)) for j in range(r, m))
    return tuple(sign_normalized(b) for b in basis)


def saturation_index(gens) -> int:
    """Index [L : <gens>] of the lattice generated by integer vectors in its
    saturation L = span(gens) ∩ Z^m: the product of the nonzero Smith
    invariant factors of the generator matrix (1 for no generators).
    A non-integral entry raises ``ContractError``."""
    rows = [integral_row(g, ContractError, "lattice generator") for g in gens]
    rows = [g for g in rows if not is_zero_vec(g)]
    if not rows:
        return 1
    return math.prod(d for d in snf_diagonal(rows) if d != 0)


def lattice_index(gens, m: int):
    """Index [Z^m : L] of the lattice generated by integer vectors, or INFINITE."""
    if rank(gens) < m:
        return INFINITE
    return saturation_index(gens)


def saturate(gens, m: int) -> tuple[IntVec, ...]:
    """Basis of (Q-span of gens) intersected with Z^m."""
    rows = [primitive(g) for g in gens if not is_zero_vec(g)]
    if not rows:
        return ()
    perp = int_kernel(rows, m)
    if not perp:
        return tuple(tuple(r) for r in identity_rows(m))
    return int_kernel(perp, m)

