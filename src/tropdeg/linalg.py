"""Exact integer and rational linear algebra over the ambient lattice Z^m.

Vectors are tuples (ints for lattice data, Fractions for affine data),
matrices are lists/tuples of row tuples, and every computation is exact.
Row convention throughout: a lattice or subspace is generated by the rows
of its basis matrix, and x @ M means sum_i x[i] * M[i].

``rref`` is the one elimination kernel.  It is fraction-free: it clears
each row's denominators once and works in the integers, returning every
row as a primitive integer row with a positive pivot.  It works row by
row, reducing each row against the pivots found so far, so rows that
already are ``rref`` output pass through at the cost of one scan, and
ragged rows raise ``DimensionMismatchError``.  Ranks and spans read off
its rows; ``reduce_mod`` eliminates a vector against them the same way
and returns the residual as a primitive integer row, a positive multiple
of the exact one.

``_smith`` is the one Smith elimination.  It updates the row and column
transforms only when its caller passes them in: ``snf`` tracks both,
``int_kernel`` only the column transform, and the diagonal readers none.
Lattice indices are products of Smith invariant factors, and ranks are
their count: ``lattice_index`` is the index of a lattice in Z^m.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import mul

from .errors import ContractError, DimensionMismatchError, InputError, ZeroVectorError

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

#: Sentinel returned by lattice_index when the generators are not full rank.
INFINITE = math.inf


def vector_entries(vec, error, what: str) -> tuple:
    """``tuple(vec)`` for an entry point; a scalar raises ``error``."""
    try:
        return tuple(vec)
    except TypeError:
        raise error(f"{what} {vec!r} is not a vector") from None


def frac_vec(entries, what: str = "vector") -> Vec:
    """The entries as Fractions; raises ``InputError`` when one is a string
    or a ``bool``, which ``Fraction`` would take for a number, or not a
    finite number.  For entry points only: the kernels trust their rows."""
    entries = vector_entries(entries, InputError, what)
    try:
        if any(isinstance(e, (str, bytes, bool)) for e in entries):
            raise TypeError
        return tuple(Fraction(e) for e in entries)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} {entries!r} is not numeric") from None


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def vdot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vdot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def is_zero_vec(u) -> bool:
    return not any(u)


def int_row(entries) -> IntVec:
    """Primitive integer multiple of a rational vector, keeping orientation.

    Denominators are cleared, then the entries are divided by their gcd;
    a zero vector comes back as integer zeros.
    """
    if not all(type(e) is int for e in entries):
        fv = [Fraction(e) for e in entries]
        den = math.lcm(*(e.denominator for e in fv))
        entries = [e.numerator * (den // e.denominator) for e in fv]
    return _divide_gcd(entries)


def _divide_gcd(entries) -> IntVec:
    """``int_row`` of a sequence of ints: the entries divided by their gcd."""
    g = math.gcd(*entries)
    return tuple(entries) if g <= 1 else tuple(x // g for x in entries)


def integral_row(entries, error, what: str) -> IntVec:
    """The entries as ints; raises ``error`` when one is a string, a
    ``bool`` or not an integral number, where ``int`` would truncate it."""
    entries = vector_entries(entries, error, what)
    if all(type(e) is int for e in entries):
        return entries
    try:
        if any(isinstance(e, (str, bytes, bool)) for e in entries):
            raise TypeError
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
    """Reduced row echelon form over Q, computed fraction-free, row by row.

    Each row is taken to its ``int_row`` and reduced against the pivots
    found so far by ``pv*row - f*pivot_row``, the result divided by its
    gcd, so all arithmetic stays in the integers.  A nonzero remainder
    becomes a pivot row (negated if its leading entry is negative), and
    its pivot column is eliminated from the earlier rows the same way.  A
    row that is zero at every earlier pivot column costs one scan, so rows
    that already are ``rref`` output pass through.  Returns (rows, pivot
    columns) in pivot order: each row is the primitive integer multiple of
    the corresponding RREF row with a positive pivot entry.  Rows of
    different lengths raise ``DimensionMismatchError``.
    """
    red: list[IntVec] = []
    pivots: list[int] = []
    ncols = None
    for r in rows:
        row = int_row(r)
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise DimensionMismatchError(f"matrix rows of lengths {ncols} and {len(row)}")
        if len(pivots) == ncols:
            continue   # full rank: every further row reduces to zero
        for prow, p in zip(red, pivots):
            f = row[p]
            if f:
                pv = prow[p]
                row = _divide_gcd([pv * a - f * b for a, b in zip(row, prow)])
        lead = next(filter(None, row), 0)
        if not lead:
            continue
        c = row.index(lead)
        if lead < 0:
            row = tuple(-a for a in row)
            lead = -lead
        for i, prow in enumerate(red):
            f = prow[c]
            if f:
                red[i] = _divide_gcd([lead * a - f * b for a, b in zip(prow, row)])
        k = bisect.bisect(pivots, c)
        pivots.insert(k, c)
        red.insert(k, row)
    return red, pivots


def reduce_mod(echelon_rows, vec) -> IntVec:
    """Residual of ``vec`` modulo the span of ``rref`` output rows, as the
    primitive integer row that is a positive multiple of the exact one.

    The exact residual is the unique vector in vec + span whose entries at
    the pivot columns are zero; it is zero exactly when vec lies in the
    span, and then so is the returned row.  ``vec`` is cleared of
    denominators once and each pivot is eliminated by ``pv*out -
    out[p]*row`` with ``pv > 0``, so the orientation is kept.  A vector
    whose length differs from the rows' raises ``DimensionMismatchError``.
    """
    out = int_row(vec)
    if echelon_rows and len(echelon_rows[0]) != len(out):
        raise DimensionMismatchError(
            f"vector of length {len(out)} against rows of length {len(echelon_rows[0])}")
    for row in echelon_rows:
        p = row.index(next(filter(None, row)))
        f = out[p]
        if f != 0:
            pv = row[p]
            out = _divide_gcd([pv * a - f * b for a, b in zip(out, row)])
    return out


def rank(rows) -> int:
    return len(rref(rows)[0])


def in_span(basis_rows, target) -> bool:
    """Whether ``target`` lies in the span of the rows.  Its length is
    compared with the rows' before ``rref`` drops zero rows, so a target
    of another length raises ``DimensionMismatchError`` also against an
    all-zero basis."""
    basis_rows = list(basis_rows)
    echelon = rref(basis_rows)[0]
    if basis_rows and len(basis_rows[0]) != len(target):
        raise DimensionMismatchError(
            f"vector of length {len(target)} against rows of length {len(basis_rows[0])}")
    return is_zero_vec(reduce_mod(echelon, target))


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


def _pivot(A, t: int):
    """(i, j) of the first entry, in row order, of least absolute value in
    the submatrix of rows and columns from t on, or None when it is zero."""
    best, least = None, 0
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, len(row)):
            x = row[j]
            if x != 0 and (best is None or abs(x) < least):
                if x == 1 or x == -1:
                    return i, j
                best, least = (i, j), abs(x)
    return best


def _smith(mat, U=None, V=None) -> list[list[int]]:
    """Smith normal form D of an integer matrix, as a list of row lists.

    One elimination loop: the pivot is the first entry of least absolute
    value in the remaining submatrix; 2x2 extended-gcd row and column
    transforms clear its column and row, an offending row is added to the
    pivot row until the pivot divides the rest, and a negative pivot row
    is negated.  The row transforms are applied to ``U`` and the column
    transforms to ``V`` (lists of row lists, updated in place) only when
    they are given, so ``U @ mat @ V == D`` for identity starting values.
    Rows of different lengths, or a ``V`` of another size than the rows,
    raise ``DimensionMismatchError``.
    """
    A = [list(integral_row(row, ContractError, "matrix row")) for row in mat]
    s = len(A)
    m = len(A[0]) if A else 0
    if any(len(row) != m for row in A) or (V is not None and len(V) != m):
        raise DimensionMismatchError(
            f"matrix rows of lengths {sorted({len(row) for row in A})}"
            + ("" if V is None else f" against {len(V)} columns"))
    row_mats = (A,) if U is None else (A, U)
    for t in range(min(s, m)):
        best = _pivot(A, t)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            for M in row_mats:
                M[t], M[bi] = M[bi], M[t]
        if bj != t:
            for row in A if V is None else A + V:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, s):
                b = A[i][t]
                if b != 0:
                    # (row_t, row_i) <- (x*row_t + y*row_i, c*row_t + d*row_i)
                    a = A[t][t]
                    g, x, y = _xgcd(a, b)
                    c, d = -(b // g), a // g
                    for M in row_mats:
                        p, q = M[t], M[i]
                        M[t] = [x * e + y * f for e, f in zip(p, q)]
                        M[i] = [c * e + d * f for e, f in zip(p, q)]
            # rows before t are zero from column t on
            for j in range(t + 1, m):
                b = A[t][j]
                if b != 0:
                    # (col_t, col_j) <- (x*col_t + y*col_j, c*col_t + d*col_j)
                    a = A[t][t]
                    g, x, y = _xgcd(a, b)
                    c, d = -(b // g), a // g
                    for row in A[t:] if V is None else A[t:] + V:
                        e, f = row[t], row[j]
                        row[t], row[j] = x * e + y * f, c * e + d * f
            if any(A[i][t] != 0 for i in range(t + 1, s)):
                continue
            # the pivot must divide the remaining submatrix
            pivot = A[t][t]
            offender = None if abs(pivot) == 1 else next(
                (i for i in range(t + 1, s) if any(x % pivot for x in A[i][t + 1:])), None)
            if offender is None:
                break
            # absorb the offending row; the pivot shrinks to a divisor
            for M in row_mats:
                M[t] = [e + f for e, f in zip(M[t], M[offender])]
        if A[t][t] < 0:
            for M in row_mats:
                M[t] = [-e for e in M[t]]
    # later steps touch only rows and columns after t: each pivot stays >= 0
    return A


def snf(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms.

    Returns (D, U, V) with U @ mat @ V == D, D diagonal with non-negative
    entries satisfying d1 | d2 | ..., and U, V unimodular.  Eliminations
    use 2x2 extended-gcd transforms, which keeps entries small.
    """
    s = len(mat)
    U = identity_rows(s)
    V = identity_rows(len(mat[0]) if s else 0)
    return _smith(mat, U, V), U, V


def snf_diagonal(mat) -> list[int]:
    """The diagonal of the Smith normal form, without transforms."""
    D = _smith(mat)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def int_kernel(rows, m: int) -> tuple[IntVec, ...]:
    """Basis of {x in Z^m : rows @ x == 0}; the result is a saturated lattice.

    A row with an entry that is not an ``int`` is replaced by its
    ``int_row``, which has the same kernel.  The basis is read off the
    columns of the Smith column transform past the rank.
    """
    if not rows:
        return tuple(tuple(r) for r in identity_rows(m))
    V = identity_rows(m)
    D = _smith([r if all(type(e) is int for e in r) else int_row(r) for r in rows], V=V)
    r = sum(1 for i in range(min(len(D), m)) if D[i][i] != 0)
    basis = (tuple(V[i][j] for i in range(m)) for j in range(r, m))
    return tuple(sign_normalized(b) for b in basis)


def lattice_index(gens, m: int):
    """Index [Z^m : L] of the lattice generated by integer vectors in Z^m, or
    INFINITE when fewer than m invariant factors are nonzero.  A generator
    of another length raises ``DimensionMismatchError``, a non-integral
    entry ``ContractError``, whatever the rank."""
    if any(len(g) != m for g in gens):
        raise DimensionMismatchError(
            f"lattice generators of lengths {sorted({len(g) for g in gens})} in Z^{m}")
    rows = [integral_row(g, ContractError, "lattice generator") for g in gens]
    factors = [d for d in snf_diagonal(rows) if d != 0]
    return math.prod(factors) if len(factors) == m else INFINITE


def saturate(gens, m: int) -> tuple[IntVec, ...]:
    """Basis of (Q-span of gens) intersected with Z^m."""
    rows = [primitive(g) for g in gens if not is_zero_vec(g)]
    if not rows:
        return ()
    perp = int_kernel(rows, m)
    if not perp:
        return tuple(tuple(r) for r in identity_rows(m))
    return int_kernel(perp, m)

